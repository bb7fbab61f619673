/**
 * @file
 * Shared command-line surface for the figure/table harnesses. Every
 * harness accepts the same knobs — time scale, worker count, progress
 * reporting, JSONL output — parsed here so `bench_fig8_9_policies
 * --jobs 8 --jsonl out.jsonl` works identically across the suite.
 */

#ifndef COSCALE_EXP_BENCH_OPTIONS_HH
#define COSCALE_EXP_BENCH_OPTIONS_HH

#include <string>

#include "dram/mem_backend.hh"
#include "exp/engine.hh"
#include "obs/trace_sink.hh"
#include "sim/system.hh"

namespace coscale {
namespace exp {

struct BenchOptions
{
    /**
     * Time scale: 1.0 is the paper's full 100M-instruction setup; the
     * default keeps a full sweep to a few minutes.
     */
    double scale = 0.1;

    /** Worker threads; 0 = auto (COSCALE_JOBS, then hardware). */
    int jobs = 0;

    /** Print per-run progress lines to stderr. */
    bool progress = false;

    /** When non-empty, append one JSON line per run to this file. */
    std::string jsonlPath;

    /**
     * Epoch-trace destination (--trace PATH, --trace-format FMT).
     * With several requests in a batch, request i writes to
     * "PATH.i" so parallel runs never share a sink.
     */
    TraceSpec trace;

    /** Collect and print per-run metrics registries (--metrics). */
    bool metrics = false;

    /** Per-run wall-clock watchdog in seconds (--timeout; 0 = off). */
    double timeoutSecs = 0.0;

    /**
     * Memory backend picked by --mem-sched / --row-policy /
     * --dram-standard; memBackendSet records whether any of the three
     * flags appeared (an untouched harness keeps makeScaledConfig()'s
     * default-or-environment behaviour).
     */
    MemBackendSel memBackend;
    bool memBackendSet = false;

    /**
     * The harness's base SystemConfig: makeScaledConfig(scale) with
     * the backend flags applied on top. Every harness builds its
     * configs through this so the backend flags work uniformly.
     */
    SystemConfig
    makeSystemConfig() const
    {
        SystemConfig cfg = makeScaledConfig(scale);
        if (memBackendSet)
            applyMemBackend(cfg, memBackend);
        return cfg;
    }

    /**
     * Apply the trace/metrics surface to one request of a batch of
     * @p total (suffixes the trace path for multi-request batches).
     */
    void
    applyObs(RunRequest &req, std::size_t index,
             std::size_t total) const
    {
        if (trace.enabled()) {
            TraceSpec spec = trace;
            if (total > 1)
                spec.path += "." + std::to_string(index);
            req.withTrace(spec);
        }
        if (metrics)
            req.withMetrics();
    }

    EngineOptions
    engineOptions() const
    {
        EngineOptions opts;
        opts.jobs = jobs;
        opts.progress = progress;
        opts.timeoutSecs = timeoutSecs;
        return opts;
    }
};

/**
 * Parse the shared harness options. Accepts `--scale X` (or a bare
 * positional scale in (0, 1], the historical form), `--jobs N`,
 * `--jsonl PATH`, `--progress`, the memory-backend selection
 * (`--mem-sched fcfs|frfcfs`, `--row-policy closed|open`,
 * `--dram-standard ddr3|ddr4|lpddr4`), `--list-policies`, and
 * `--help`; falls back to the COSCALE_SCALE environment variable,
 * then @p defaultScale. Unknown flags are fatal.
 */
BenchOptions parseBenchArgs(int argc, char **argv,
                            double defaultScale = 0.1);

/**
 * Parse a --timeout value in host seconds. Fatal (exit 1) unless
 * @p text is a whole finite number >= 0, so a typo can never silently
 * disable the watchdog. Shared by the harnesses and coscale_sim.
 */
double parseTimeoutSecs(const char *text);

/**
 * Print the registered policy roster (knownPolicyNames(), one per
 * line) — the `--list-policies` body shared by the harnesses and
 * coscale_sim.
 */
void printPolicyRoster();

} // namespace exp
} // namespace coscale

#endif // COSCALE_EXP_BENCH_OPTIONS_HH
