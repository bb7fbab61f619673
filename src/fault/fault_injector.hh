/**
 * @file
 * The per-run fault injector: interprets a FaultPlan at the epoch
 * step's natural seams (profiling snapshot, DVFS transition, epoch
 * timer; runEpochStep in sim/runner.hh is the only caller),
 * emits "fault" trace events and fault.* metrics through the obs
 * layer, and accumulates a FaultSummary for the run report.
 *
 * One injector serves exactly one run. It holds only the plan, the
 * resolved seed, the previous clean profile (for staleness), and a
 * possibly-pending delayed transition — every random decision goes
 * through the stateless hash in fault_plan.hh, so two injectors with
 * the same (plan, seed) make identical calls regardless of thread.
 */

#ifndef COSCALE_FAULT_FAULT_INJECTOR_HH
#define COSCALE_FAULT_FAULT_INJECTOR_HH

#include "common/types.hh"
#include "fault/fault_plan.hh"
#include "model/energy_model.hh"
#include "model/perf_model.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"

namespace coscale {
namespace fault {

class FaultInjector
{
  public:
    /**
     * @param plan the fault plan (copied)
     * @param config_seed fallback seed when plan.seed == 0, so the
     *        fault streams stay a pure function of the RunRequest
     */
    FaultInjector(const FaultPlan &plan, std::uint64_t config_seed);

    /**
     * Apply counter faults to the profiling snapshot the policy is
     * about to read. Returns the (possibly perturbed or re-served)
     * profile and remembers the clean one for staleness. @p now is
     * the simulated tick stamped on fault events.
     */
    SystemProfile perturbProfile(const SystemProfile &clean,
                                 std::uint64_t epoch, Tick now,
                                 TraceSink *sink,
                                 MetricsRegistry *metrics);

    /**
     * Filter a requested transition into the granted one. A request
     * identical to @p prev always passes (nothing to deny). Denied
     * and delayed requests grant @p prev; a delayed request is
     * remembered and surfaced by takePending() at the next epoch
     * boundary; a clamped request stops one ladder rung short of
     * every dimension that moved.
     */
    FreqConfig filterTransition(const FreqConfig &requested,
                                const FreqConfig &prev,
                                std::uint64_t epoch, Tick now,
                                TraceSink *sink,
                                MetricsRegistry *metrics);

    /**
     * The delayed transition to apply at the top of this epoch, if
     * one is pending. Clears the pending slot.
     */
    bool takePending(FreqConfig *out);

    /**
     * Epoch length for @p epoch under timer jitter, in ticks. Always
     * strictly longer than @p profile_len so the epoch outlasts its
     * profiling phase.
     */
    Tick jitteredEpochLen(Tick epoch_len, Tick profile_len,
                          std::uint64_t epoch, Tick now,
                          TraceSink *sink, MetricsRegistry *metrics);

    const FaultSummary &summary() const { return counts; }
    const FaultPlan &plan() const { return thePlan; }
    std::uint64_t seed() const { return theSeed; }

  private:
    FaultPlan thePlan;
    std::uint64_t theSeed;
    FaultSummary counts;

    bool havePrevProfile = false;
    SystemProfile prevCleanProfile;

    bool havePending = false;
    FreqConfig pending;
};

/** Every profile field a policy's model reads is finite. */
bool profileFinite(const SystemProfile &prof);

} // namespace fault
} // namespace coscale

#endif // COSCALE_FAULT_FAULT_INJECTOR_HH
