// Fixture: lenient-number-parse must fire on the atoi family, which
// reads "abc" as 0 and "2x" as 2 without reporting an error.
// (Fixtures are linted, never compiled.)
#include <cstdlib>

struct Options
{
    int cores = 0;
    double cap = 0.0;
    long seed = 0;
    long long budget = 0;
};

void
parse(Options &opt, const char *const *argv)
{
    opt.cores = std::atoi(argv[1]);
    opt.cap = atof(argv[2]);
    opt.seed = std::atol(argv[3]);
    opt.budget = atoll(argv[4]);
}
