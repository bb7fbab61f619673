// Fixture: the strict parsers and identifiers that merely contain the
// banned names must stay silent.
#include "common/parse_num.hh"

struct Options
{
    int cores = 0;
    double cap = 0.0;
};

int myatoi(const char *text);  // a different function
constexpr int atoi_calls = 0;  // not a call

void
parse(Options &opt, const char *const *argv)
{
    opt.cores = coscale::flagInt("--cores", argv[1]);
    opt.cap = coscale::flagDouble("--cap", argv[2]);
    opt.cores += myatoi(argv[3]);
}
