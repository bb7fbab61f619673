/**
 * @file
 * The benchmark's workloads, the kernel pin and the traced run's
 * isolation replays. Every workload is a closed batch: one repetition
 * simulates a fixed amount of work, derived only from the workload
 * seed, to completion. Why each workload exists, and which layers it
 * loads, is written down in perfbench/README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/system.hh"

namespace perfbench {

/** Result of one repetition of a workload. */
struct Rep
{
    double setupS = 0.0; //!< host: building state before the first tick
    double wallS = 0.0;  //!< host: the timed region
    std::vector<double> epochMs; //!< host ms per simulated epoch step

    double simInstrs = 0.0;  //!< simulated instructions retired
    double njPerInstr = 0.0; //!< simulated full-system energy per instr

    /** exp/digest-style digest of every simulated result. */
    std::uint64_t digest = 0;

    /**
     * Exact simulated statistics, printed as non-metric fields so a
     * speed-only change can show "identical simulation" from the
     * benchmark output alone.
     */
    std::map<std::string, std::string> fingerprint;

    /** Workload-specific figures (exist on this workload only). */
    std::map<std::string, double> detail;

    /** Per-layer counts and timing samples seen from outside. */
    std::map<std::string, double> layer;
    std::map<std::string, std::vector<double>> samples;
};

/**
 * One System of the workload, for the traced run's sim leg and the
 * replays: the configuration and applications of the workload's first
 * simulation, and the policy whose decide() the replay times when the
 * workload's own run does not expose it.
 */
struct LegSpec
{
    coscale::SystemConfig cfg;
    std::vector<coscale::AppSpec> apps;
    std::string replayPolicy; //!< empty: decide() timed in the full run
    double capW = 0.0;        //!< per-node cap for the replayed policy
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * One closed-batch repetition on @p jobs workers. @p tracer is
     * null for untraced repetitions; @p decorate wraps policies in
     * the timing decorator (the reference repetition runs without it
     * so the digest check also proves the decorator transparent).
     */
    virtual Rep run(int jobs, Tracer *tracer, bool decorate,
                    Checks &checks) = 0;

    virtual LegSpec legSpec() const = 0;

    /** Workers of the timed repetitions when the host allows @p fanout. */
    virtual int timedJobs(int fanout) const { return fanout; }
};

/**
 * The ROADMAP kernel pin: MID1 on the default 16-core server at scale
 * 0.1 and seed 1, at all-max through System::run. Checks that every
 * application finishes and that exactly 6320371 kernel events are
 * dispatched, and returns the run's exact simulated statistics.
 */
std::map<std::string, std::string> kernelPin(Checks &checks);

/** The workload named @p name for seed @p seed; null if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Everything the traced run's sim leg and replays measured. */
struct LayerReport
{
    std::map<std::string, double> metrics;  //!< per_layer metric values
    std::map<std::string, double> detail;   //!< printed, not metrics
    /** Host seconds each replay took, by layer, for the split table. */
    std::map<std::string, double> replayS;
};

/**
 * Build and drive one System of the workload to completion at
 * all-max frequencies (the sim leg), then replay the trace, LLC
 * (ways off and on), event-queue and memory-controller layers in
 * isolation on that System's own input streams, and time decide() on
 * the leg's profiles when @p spec names a replay policy. Every
 * replay's work count is checked against the leg's counters.
 */
LayerReport runLayerLegs(const LegSpec &spec, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
