/**
 * @file
 * The Offline upper-bound policy (Section 3.2): per epoch, it is
 * given a *perfect* profile of the upcoming epoch (the runner clones
 * the simulator and runs the clone ahead at maximum frequencies),
 * and selects frequencies by exhaustive-equivalent search over all
 * memory and core combinations. Impractical by construction; used
 * only as an upper bound on CoScale. Like CoScale it remains
 * epoch-by-epoch greedy: it never banks slack for future epochs.
 */

#ifndef COSCALE_POLICY_OFFLINE_HH
#define COSCALE_POLICY_OFFLINE_HH

#include "policy/policy.hh"
#include "policy/search_common.hh"

namespace coscale {

/** Oracle-profiled, exhaustive-search policy. */
class OfflinePolicy final : public TrackedPolicy
{
  public:
    using TrackedPolicy::TrackedPolicy;

    std::string name() const override { return "Offline"; }

    bool wantsOracleProfile() const override { return true; }

    FreqConfig
    decide(const SystemProfile &profile, const EnergyModel &em,
           const FreqConfig &, Tick epoch_len) override
    {
        int n = static_cast<int>(profile.cores.size());
        FreqConfig all_max = FreqConfig::allMax(n);
        std::vector<double> ref = refTpis(em, profile, all_max);
        std::vector<double> allowed =
            allowedTpis(tracker, ref, epoch_len, profile.appOnCore);
        SearchStats stats;
        FreqConfig pick = exhaustiveBest(
            em, profile, allowed, obsEnabled() ? &stats : nullptr);
        if (obsEnabled())
            traceSearch(stats.candidates, 0, 0, 0, stats.bestSer);
        return pick;
    }
};

} // namespace coscale

#endif // COSCALE_POLICY_OFFLINE_HH
