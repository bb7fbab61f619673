#include "model/knobs.hh"

#include "model/energy_model.hh"

namespace coscale {

bool
KnobSpace::contains(const KnobVector &vec) const
{
    if (static_cast<int>(vec.coreIdx.size()) != numCores)
        return false;
    for (int c : vec.coreIdx) {
        if (c < 0 || c >= coreSteps)
            return false;
    }
    if (vec.memIdx < 0 || vec.memIdx >= memSteps)
        return false;
    if (!vec.chanIdx.empty()) {
        if (static_cast<int>(vec.chanIdx.size()) != numChannels)
            return false;
        for (int m : vec.chanIdx) {
            if (m < 0 || m >= memSteps)
                return false;
        }
    }
    if (!vec.wayIdx.empty()) {
        if (!llcWays)
            return false;
        if (static_cast<int>(vec.wayIdx.size()) != numCores)
            return false;
        int sum = 0;
        for (int w : vec.wayIdx) {
            if (w < wayFloor || w > waysTotal)
                return false;
            sum += w;
        }
        if (sum > waysTotal)
            return false;
    }
    return true;
}

std::vector<int>
KnobSpace::baselinePartition() const
{
    return evenWaySplit(waysTotal, numCores);
}

std::vector<int>
evenWaySplit(int ways_total, int num_cores)
{
    std::vector<int> way(static_cast<size_t>(num_cores), 0);
    if (num_cores <= 0)
        return way;
    int base = ways_total / num_cores;
    int rem = ways_total - base * num_cores;
    for (int i = 0; i < num_cores; ++i)
        way[static_cast<size_t>(i)] = base + (i < rem ? 1 : 0);
    return way;
}

bool
KnobSpace::underCap(const EnergyModel &em, const SystemProfile &prof,
                    const KnobVector &vec) const
{
    if (powerCapW == std::numeric_limits<double>::infinity())
        return true;
    return em.systemPower(prof, vec) <= powerCapW;
}

KnobSpace
makeKnobSpace(const EnergyModel &em, const SystemProfile &prof,
              double power_cap_w)
{
    KnobSpace space;
    space.numCores = static_cast<int>(prof.cores.size());
    space.coreSteps = static_cast<int>(em.cores().size());
    space.memSteps = static_cast<int>(em.mem().size());
    space.numChannels = static_cast<int>(prof.channels.size());
    space.llcWays = prof.waysTotal > 0;
    space.waysTotal = prof.waysTotal;
    space.wayFloor = prof.wayFloor;
    space.powerCapW = power_cap_w;
    return space;
}

} // namespace coscale
