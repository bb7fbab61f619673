// A second copy of the controller cycle: a caller outside the shared
// epoch step drives the policy and the fault seams itself, so every
// per-epoch feature would have to be written into both copies.
#include "fault/fault_injector.hh"
#include "policy/policy.hh"

namespace coscale {

FreqConfig
forkedEpoch(Policy &policy, fault::FaultInjector *inj,
            const SystemProfile &clean, const EnergyModel &em,
            const FreqConfig &prev, Tick now)
{
    FreqConfig pend;
    if (inj->takePending(&pend))
        return pend;
    SystemProfile prof =
        inj->perturbProfile(clean, 0, now, nullptr, nullptr);
    FreqConfig want = policy.safeDecide(prof, em, prev, now);
    Tick len = inj->jitteredEpochLen(now, now / 2, 0, now, nullptr,
                                     nullptr);
    (void)len;
    return inj->filterTransition(want, prev, 0, now, nullptr,
                                 nullptr);
}

} // namespace coscale
