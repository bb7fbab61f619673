#include "exp/bench_options.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/log.hh"
#include "common/parse_num.hh"
#include "exp/policies.hh"

namespace coscale {
namespace exp {

namespace {

bool
parseScale(const char *text, double *out)
{
    std::optional<double> v = parseDouble(text);
    if (v && *v > 0.0 && *v <= 1.0) {
        *out = *v;
        return true;
    }
    return false;
}

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [scale] [--scale X] [--jobs N] [--jsonl PATH]\n"
        "          [--progress] [--trace PATH] [--trace-format FMT]\n"
        "          [--metrics] [--timeout SECS]\n"
        "          [--mem-sched S] [--row-policy P] [--dram-standard D]\n"
        "  scale / --scale X  time scale in (0, 1]; 1.0 is the paper's\n"
        "                     full setup (default via COSCALE_SCALE or\n"
        "                     the harness default)\n"
        "  --jobs N           worker threads (default: COSCALE_JOBS,\n"
        "                     then hardware concurrency)\n"
        "  --jsonl PATH       append one JSON line per run to PATH\n"
        "  --progress         per-run progress lines on stderr\n"
        "  --trace PATH       write an epoch-level trace per run\n"
        "                     (request i of a batch goes to PATH.i)\n"
        "  --trace-format F   jsonl (default) or chrome\n"
        "                     (chrome://tracing / Perfetto JSON)\n"
        "  --metrics          collect and print per-run metrics\n"
        "  --timeout SECS     per-run wall-clock watchdog (0 = off)\n"
        "  --mem-sched S      channel scheduler: fcfs (paper) or\n"
        "                     frfcfs\n"
        "  --row-policy P     row-buffer policy: closed (paper) or\n"
        "                     open\n"
        "  --dram-standard D  DRAM standard: ddr3 (paper), ddr4, or\n"
        "                     lpddr4\n"
        "  --list-policies    print the registered policy roster and\n"
        "                     exit\n",
        prog);
}

} // namespace

double
parseTimeoutSecs(const char *text)
{
    std::optional<double> secs = parseDouble(text);
    if (!secs || *secs < 0.0)
        fatal("--timeout must be a non-negative number of seconds, "
              "got '%s'", text);
    return *secs;
}

void
printPolicyRoster()
{
    for (const std::string &name : knownPolicyNames())
        std::printf("%s\n", name.c_str());
}

BenchOptions
parseBenchArgs(int argc, char **argv, double defaultScale)
{
    BenchOptions opts;
    opts.scale = defaultScale;

    bool scaleSet = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto nextValue = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("%s requires a value", flag);
            return argv[++i];
        };
        if (std::strcmp(arg, "--scale") == 0) {
            const char *v = nextValue("--scale");
            if (!parseScale(v, &opts.scale))
                fatal("--scale must be in (0, 1], got '%s'", v);
            scaleSet = true;
        } else if (std::strcmp(arg, "--jobs") == 0) {
            const char *v = nextValue("--jobs");
            std::optional<int> n = parseInt(v);
            if (!n || *n <= 0)
                fatal("--jobs must be a positive integer, got '%s'", v);
            opts.jobs = *n;
        } else if (std::strcmp(arg, "--jsonl") == 0) {
            opts.jsonlPath = nextValue("--jsonl");
        } else if (std::strcmp(arg, "--trace") == 0) {
            opts.trace.path = nextValue("--trace");
        } else if (std::strcmp(arg, "--trace-format") == 0) {
            const char *v = nextValue("--trace-format");
            if (!parseTraceFormat(v, &opts.trace.format))
                fatal("--trace-format must be jsonl or chrome, "
                      "got '%s'", v);
        } else if (std::strcmp(arg, "--timeout") == 0) {
            opts.timeoutSecs = parseTimeoutSecs(nextValue("--timeout"));
        } else if (std::strcmp(arg, "--mem-sched") == 0) {
            const char *v = nextValue("--mem-sched");
            if (!parseMemSched(v, &opts.memBackend.sched))
                fatal("--mem-sched must be fcfs or frfcfs, got '%s'",
                      v);
            opts.memBackendSet = true;
        } else if (std::strcmp(arg, "--row-policy") == 0) {
            const char *v = nextValue("--row-policy");
            if (!parseRowPolicy(v, &opts.memBackend.rowPolicy))
                fatal("--row-policy must be closed or open, got '%s'",
                      v);
            opts.memBackendSet = true;
        } else if (std::strcmp(arg, "--dram-standard") == 0) {
            const char *v = nextValue("--dram-standard");
            if (!parseDramStandard(v, &opts.memBackend.standard))
                fatal("--dram-standard must be ddr3, ddr4, or lpddr4, "
                      "got '%s'", v);
            opts.memBackendSet = true;
        } else if (std::strcmp(arg, "--metrics") == 0) {
            opts.metrics = true;
        } else if (std::strcmp(arg, "--progress") == 0) {
            opts.progress = true;
        } else if (std::strcmp(arg, "--list-policies") == 0) {
            printPolicyRoster();
            exitCleanly();
        } else if (std::strcmp(arg, "--help") == 0
                   || std::strcmp(arg, "-h") == 0) {
            printUsage(argv[0]);
            exitCleanly();
        } else if (arg[0] != '-' && !scaleSet
                   && parseScale(arg, &opts.scale)) {
            // Historical form: bare positional scale as argv[1].
            scaleSet = true;
        } else {
            fatal("unknown argument '%s' (try --help)", arg);
        }
    }

    if (!scaleSet) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; no setenv in the process
        if (const char *env = std::getenv("COSCALE_SCALE")) {
            parseScale(env, &opts.scale);
        }
    }
    return opts;
}

} // namespace exp
} // namespace coscale
