#include "common/parse_num.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "common/log.hh"

namespace coscale {

namespace {

/** Did strto* consume all of @p s? Leading space fails: strto* skips it,
 *  which would let " -1" past parseU64's sign check and wrap around. */
bool
tookAll(const std::string &s, const char *end)
{
    return end != s.c_str() && *end == '\0' && errno != ERANGE
           && !std::isspace(static_cast<unsigned char>(s[0]));
}

} // namespace

std::optional<double>
parseDouble(const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (!tookAll(text, end) || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::optional<std::uint64_t>
parseU64(const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (!tookAll(text, end) || text[0] == '-')
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

std::optional<int>
parseInt(const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (!tookAll(text, end) || v < INT_MIN || v > INT_MAX)
        return std::nullopt;
    return static_cast<int>(v);
}

double
flagDouble(const char *flag, const char *text)
{
    std::optional<double> v = parseDouble(text);
    if (!v)
        fatal("%s must be a finite number, got '%s'", flag, text);
    return *v;
}

std::uint64_t
flagU64(const char *flag, const char *text)
{
    std::optional<std::uint64_t> v = parseU64(text);
    if (!v)
        fatal("%s must be an unsigned integer, got '%s'", flag, text);
    return *v;
}

int
flagInt(const char *flag, const char *text)
{
    std::optional<int> v = parseInt(text);
    if (!v)
        fatal("%s must be an integer, got '%s'", flag, text);
    return *v;
}

} // namespace coscale
