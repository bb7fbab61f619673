// The sanctioned shape: one call to the shared epoch step, which
// owns the policy decision and every fault seam. Declarations and
// qualified definitions of the seams are not calls.
#include "sim/runner.hh"

namespace coscale {

struct SeamNames
{
    bool takePending(FreqConfig *out);
    FreqConfig safeDecide(const SystemProfile &profile);
};

bool
SeamNames::takePending(FreqConfig *out)
{
    return out != nullptr;
}

std::uint64_t
nodeEpoch(System &sys, const EnergyModel &em, Policy &policy, int n)
{
    EpochStep step =
        runEpochStep(sys, em, policy, nullptr, n, nullptr, nullptr);
    return step.obs.instrs.empty() ? 0 : step.obs.instrs.front();
}

} // namespace coscale
