/**
 * @file
 * Per-channel memory DVFS: the MultiScale extension (Deng et al.,
 * ISLPED 2012 — reference [9] of the CoScale paper). With the
 * RegionPerChannel address mapping, each application's traffic lands
 * on one channel, so channel loads follow the applications and each
 * channel can run at its own frequency: channels serving
 * compute-bound applications clock down deep while channels serving
 * memory-bound ones stay fast — savings a single uniform memory
 * frequency cannot reach.
 *
 * MultiScalePolicy manages only the memory channels (cores stay at
 * maximum, as in the MemScale/MultiScale line of work); it keeps
 * per-application slack and picks every channel's frequency jointly
 * with the shared cap-scan (search_common.hh), each channel priced
 * on its own profile.
 */

#ifndef COSCALE_POLICY_MULTISCALE_HH
#define COSCALE_POLICY_MULTISCALE_HH

#include "policy/policy.hh"
#include "policy/search_common.hh"

namespace coscale {

/**
 * Per-channel memory-DVFS controller. Its slack ledger takes each
 * core's all-max reference against the core's home channel.
 */
class MultiScalePolicy final : public TrackedPolicy
{
  public:
    using TrackedPolicy::TrackedPolicy;

    std::string name() const override { return "MultiScale"; }

    FreqConfig decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &current, Tick epoch_len) override;

    void observeEpoch(const EpochObservation &obs,
                      const EnergyModel &em) override;
};

} // namespace coscale

#endif // COSCALE_POLICY_MULTISCALE_HH
