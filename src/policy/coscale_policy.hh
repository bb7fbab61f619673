/**
 * @file
 * The CoScale frequency-selection policy (Sections 3.1-3.2): a greedy
 * gradient-descent over per-core and memory frequency steps, with
 * core grouping to avoid local minima, selecting the visited
 * configuration with the smallest System Energy Ratio.
 *
 * Faithful to Figures 2 and 3:
 *  - the walk restarts from all-max frequencies each epoch;
 *  - at each iteration the marginal utility (delta power / delta
 *    performance) of one memory step is compared against the best
 *    core *group* (groups of 1..N cores formed greedily from a list
 *    sorted by ascending delta performance);
 *  - marginal_memory is recomputed only when the memory frequency
 *    changed; core marginals only when a core frequency changed;
 *  - every visited configuration's SER is recorded and the minimum
 *    wins.
 */

#ifndef COSCALE_POLICY_COSCALE_POLICY_HH
#define COSCALE_POLICY_COSCALE_POLICY_HH

#include <string>
#include <vector>

#include "policy/policy.hh"
#include "policy/search_common.hh"

namespace coscale {

/** One step of the greedy walk (for the Fig. 4 search-trace bench). */
struct SearchStep
{
    FreqConfig cfg;
    double ser = 1.0;
    bool memStep = false;   //!< this step lowered the memory frequency
    int groupSize = 0;      //!< cores lowered in this step
};

/** Ablation knobs for the CoScale controller (see bench_ablation). */
struct CoScaleOptions
{
    /**
     * Consider groups of 1..N cores per step (Fig. 3). Disabling
     * restricts steps to single cores, which Section 3.1 predicts
     * gets the walk stuck in local minima (memory tends to beat any
     * single core, so core scaling starves).
     */
    bool coreGrouping = true;

    /**
     * Carry unspent slack across epochs (Section 3's accumulated
     * slack). Disabling resets the budget to gamma each epoch.
     */
    bool carrySlack = true;

    /**
     * Fraction of gamma held back as margin for model error and
     * workload drift (see SlackTracker). Zero targets the bound
     * exactly and risks small overshoots.
     */
    double safetyFrac = 0.04;

    /**
     * Model a chip with a single CPU voltage/frequency domain (most
     * pre-2012 silicon): every core step moves ALL cores together,
     * and the slowest-to-tolerate core gates the whole chip. The
     * paper assumes per-core domains (citing on-chip regulators);
     * this knob quantifies what that assumption is worth.
     */
    bool chipWideCpuDvfs = false;

    /**
     * Walk the LLC way-partition dimension when the knob space
     * exposes it (profile carries miss curves, DESIGN.md §13): a
     * greedy way pre-balance phase at all-max frequencies precedes
     * the Fig. 2/3 frequency walk, which then evaluates candidates at
     * the chosen allocation. Inert — bit for bit — when the system
     * runs DVFS-only. Disabled by the "coscale-dvfs" roster entry to
     * give the generalized controller its ablation baseline.
     */
    bool useWayPartitioning = true;

    /**
     * Extra reference margin while the way dimension is active. The
     * DVFS-only reference is anchored at measured counters, but once
     * the installed partition differs from the even-split baseline
     * the reference is an extrapolation along the shadow miss curve,
     * and repartition epochs add unmodeled refill transients; both
     * biases eat into the measured bound, so the reference pace is
     * deflated by this fraction whenever the walk uses the ways knob.
     */
    double wayRefSafetyFrac = 0.03;

    /** Report a different policy name (empty keeps "CoScale"). */
    std::string nameOverride;
};

/** The CoScale controller. */
class CoScalePolicy : public Policy
{
  public:
    CoScalePolicy(int num_apps, double gamma,
                  CoScaleOptions opts = CoScaleOptions{})
        : tracker(num_apps, gamma, opts.safetyFrac), opts(opts)
    {
    }

    std::string
    name() const override
    {
        return opts.nameOverride.empty() ? "CoScale" : opts.nameOverride;
    }

    FreqConfig decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &current, Tick epoch_len) override;

    void observeEpoch(const EpochObservation &obs,
                      const EnergyModel &em) override;

    double slackGamma() const override { return tracker.gamma(); }

    const SlackTracker *slackLedger() const override { return &tracker; }

    /** Record the greedy walk of the next decide() calls. */
    void recordWalk(bool on) { recording = on; }
    const std::vector<SearchStep> &lastWalk() const { return walk; }

  protected:
    SlackTracker tracker;

  private:
    CoScaleOptions opts;
    bool recording = false;
    std::vector<SearchStep> walk;
};

} // namespace coscale

#endif // COSCALE_POLICY_COSCALE_POLICY_HH
