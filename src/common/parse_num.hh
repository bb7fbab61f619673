/**
 * @file
 * Strict number parsing for user-supplied text (CLI flags, environment
 * variables, spec strings): the whole token must be the number. The C
 * atoi/atof family reads "abc" as 0 and "2x" as 2, turning a typo into
 * a silently different run; the invariant linter bans it from src/.
 */

#ifndef COSCALE_COMMON_PARSE_NUM_HH
#define COSCALE_COMMON_PARSE_NUM_HH

#include <cstdint>
#include <optional>
#include <string>

namespace coscale {

/** All of @p text as a finite double (strtod syntax), else nullopt. */
std::optional<double> parseDouble(const std::string &text);

/** All of @p text as an unsigned base-10 integer (no sign), else nullopt. */
std::optional<std::uint64_t> parseU64(const std::string &text);

/** All of @p text as a base-10 int, else nullopt. */
std::optional<int> parseInt(const std::string &text);

/** The parsers above, with a malformed value a fatal() naming @p flag. */
double flagDouble(const char *flag, const char *text);
std::uint64_t flagU64(const char *flag, const char *text);
int flagInt(const char *flag, const char *text);

} // namespace coscale

#endif // COSCALE_COMMON_PARSE_NUM_HH
