/**
 * @file
 * Shared helpers for the benchmark harnesses: synthetic profile
 * construction (for algorithm microbenchmarks) and result printing.
 *
 * Argument parsing, baseline memoization, and parallel execution
 * moved behind the experiment engine — see exp/bench_options.hh,
 * exp/baseline_pool.hh, and exp/engine.hh.
 */

#ifndef COSCALE_BENCH_BENCH_COMMON_HH
#define COSCALE_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "exp/bench_options.hh"
#include "exp/engine.hh"
#include "exp/policies.hh"
#include "exp/report.hh"
#include "model/perf_model.hh"

namespace coscale {
namespace benchutil {

/**
 * A plausible mixed-intensity profiling snapshot for @p n cores,
 * used by the selection-algorithm microbenchmarks (no simulator
 * needed).
 */
inline SystemProfile
syntheticProfile(int n, std::uint64_t seed = 99)
{
    Rng rng(seed);
    SystemProfile prof;
    prof.windowTicks = 60 * tickPerUs;
    prof.profiledCoreIdx.assign(static_cast<size_t>(n), 0);
    prof.profiledMemIdx = 0;
    for (int i = 0; i < n; ++i) {
        CoreProfile c;
        c.cyclesPerInstr = rng.uniform(0.8, 1.8);
        c.alpha = rng.uniform(0.002, 0.03);
        c.tpiL2Secs = 7.5e-9;
        c.beta = rng.uniform(0.0001, 0.02);
        c.measuredMemStallSecs = rng.uniform(60e-9, 200e-9);
        c.instrs = 100000;
        c.aluPerInstr = 0.4;
        c.fpuPerInstr = 0.1;
        c.branchPerInstr = 0.15;
        c.memOpPerInstr = 0.35;
        c.llcAccessPerInstr = c.alpha + c.beta;
        c.memReadPerInstr = c.beta;
        prof.cores.push_back(c);
    }
    prof.mem.xiBank = 1.8;
    prof.mem.xiBus = 1.4;
    prof.mem.wBankSecs = 6e-9;
    prof.mem.wBusSecs = 4e-9;
    prof.mem.measuredStallSecs = 90e-9;
    prof.mem.profiledBusFreq = 800 * MHz;
    prof.mem.writeFrac = 0.25;
    prof.mem.busUtil = 0.3;
    prof.mem.rankActiveFrac = 0.4;
    prof.mem.trafficPerSec = 2e8;
    return prof;
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

/**
 * Run @p requests through an engine configured from @p opts, append
 * the batch to the JSONL sink when requested, and report failures.
 * The harness's standard tail: returns the outcomes for printing.
 *
 * Observability: --trace/--metrics apply to every request (each run
 * gets a private sink, so parallel batches stay deterministic); with
 * --metrics the registries are printed to stderr after the batch.
 */
inline std::vector<exp::RunOutcome>
runBatch(const exp::BenchOptions &opts,
         const std::vector<RunRequest> &requests)
{
    std::vector<RunRequest> prepared = requests;
    for (std::size_t i = 0; i < prepared.size(); ++i)
        opts.applyObs(prepared[i], i, prepared.size());

    exp::ExperimentEngine engine(opts.engineOptions());
    std::vector<exp::RunOutcome> outcomes = engine.run(prepared);
    exp::appendJsonlReport(outcomes, opts.jsonlPath);
    exp::reportFailures(outcomes);

    if (opts.metrics) {
        for (const exp::RunOutcome &out : outcomes) {
            if (!out.ok || !out.result.metrics)
                continue;
            std::ostringstream os;
            out.result.metrics->writeJson(os);
            std::fprintf(stderr, "[metrics] %s %s %s\n",
                         out.result.mixName.c_str(),
                         out.result.policyName.c_str(),
                         os.str().c_str());
        }
    }
    return outcomes;
}

} // namespace benchutil
} // namespace coscale

#endif // COSCALE_BENCH_BENCH_COMMON_HH
