/**
 * @file
 * Power capping (Section 2.3: "CoScale can be readily extended to cap
 * power with appropriate changes to its decision algorithm"): minimise
 * performance loss subject to a full-system power ceiling, by the same
 * greedy walk taking the highest-utility (delta power / delta
 * performance) steps until the predicted power fits under the cap.
 *
 * With headroom spending on, this is FastCap's per-node agent
 * (PAPERS.md): after the descent it takes the single step back up that
 * most reduces predicted relative time while still fitting, until none
 * does — the maximise-minimum-performance fairness rule. The cluster
 * allocator pushes each node's grant in through setPowerCap().
 *
 * Deliberately no slackLedger(): safeDecide()'s slack-exhaustion escape
 * hatch would jump to all-max frequencies and blow the granted budget;
 * for a capped node the power bound dominates the performance bound.
 */

#ifndef COSCALE_POLICY_POWER_CAP_HH
#define COSCALE_POLICY_POWER_CAP_HH

#include "policy/policy.hh"

namespace coscale {

/** Greedy power-capping controller built on the CoScale machinery. */
class PowerCapPolicy final : public Policy
{
  public:
    /**
     * @param cap_watts initial power cap; updated via setPowerCap()
     * @param spend_headroom after fitting under the cap, spend the
     *        leftover headroom on performance (FastCap)
     */
    explicit PowerCapPolicy(double cap_watts, bool spend_headroom = false)
        : capWatts(cap_watts), spendHeadroom(spend_headroom)
    {
    }

    std::string
    name() const override
    {
        return spendHeadroom ? "FastCap" : "PowerCap";
    }

    FreqConfig decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &current, Tick epoch_len) override;

    void
    observeEpoch(const EpochObservation &, const EnergyModel &) override
    {
    }

    double cap() const { return capWatts; }

    void setPowerCap(double watts) override { capWatts = watts; }

    /** True if the last decision could not fit under the cap. */
    bool lastDecisionOverCap() const { return overCap; }

  private:
    double capWatts;
    bool spendHeadroom;
    bool overCap = false;
};

} // namespace coscale

#endif // COSCALE_POLICY_POWER_CAP_HH
