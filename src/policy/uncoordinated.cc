#include "policy/uncoordinated.hh"

namespace coscale {

FreqConfig
UncoordinatedPolicy::decide(const SystemProfile &profile,
                            const EnergyModel &em,
                            const FreqConfig &current, Tick epoch_len)
{
    int n = static_cast<int>(profile.cores.size());

    // CPU manager: plans against (cores max, memory as-is); spends its
    // whole slack on core frequencies.
    FreqConfig cpu_ref = FreqConfig::allMax(n);
    cpu_ref.memIdx = current.memIdx;
    std::vector<double> cpu_ref_tpi = refTpis(em, profile, cpu_ref);
    std::vector<double> cpu_allowed = allowedTpis(
        cpuTracker, cpu_ref_tpi, epoch_len, profile.appOnCore);
    double ser = 0.0;
    SearchStats stats;
    SearchStats *sp = obsEnabled() ? &stats : nullptr;
    FreqConfig cpu_pick = capScanBestForMem(em, profile, current.memIdx,
                                            cpu_allowed, ser, sp);

    // Memory manager: plans against (cores as-is, memory max); spends
    // the same slack on the memory frequency.
    FreqConfig mem_ref;
    mem_ref.coreIdx = current.coreIdx;
    mem_ref.memIdx = 0;
    std::vector<double> mem_ref_tpi = refTpis(em, profile, mem_ref);
    std::vector<double> mem_allowed = allowedTpis(
        memTracker, mem_ref_tpi, epoch_len, profile.appOnCore);
    int mem_pick =
        memOnlyBest(em, profile, current.coreIdx, mem_allowed, sp);

    FreqConfig combined;
    combined.coreIdx = cpu_pick.coreIdx;
    combined.memIdx = mem_pick;
    lastApplied = combined;
    // The two managers never compare a joint SER, so no best_ser.
    if (obsEnabled())
        traceSearch(stats.candidates, 0, 0, 0, -1.0);
    return combined;
}

void
UncoordinatedPolicy::observeEpoch(const EpochObservation &obs,
                                  const EnergyModel &em)
{
    int n = static_cast<int>(obs.epochProfile.cores.size());
    double secs = ticksToSeconds(obs.epochTicks);

    // Each manager references a world where only its component can
    // have degraded performance: the other component's applied state
    // is treated as the baseline.
    FreqConfig cpu_ref = FreqConfig::allMax(n);
    cpu_ref.memIdx = obs.applied.memIdx;
    FreqConfig mem_ref;
    mem_ref.coreIdx = obs.applied.coreIdx;
    mem_ref.memIdx = 0;

    for (int i = 0; i < n; ++i) {
        std::uint64_t instrs = obs.instrs[static_cast<size_t>(i)];
        int app = appOf(obs.appOnCore, i);
        cpuTracker.update(app, em.tpi(obs.epochProfile, i, cpu_ref),
                          instrs, secs);
        memTracker.update(app, em.tpi(obs.epochProfile, i, mem_ref),
                          instrs, secs);
    }
}

FreqConfig
SemiCoordinatedPolicy::decide(const SystemProfile &profile,
                              const EnergyModel &em,
                              const FreqConfig &current, Tick epoch_len)
{
    int n = static_cast<int>(profile.cores.size());
    std::uint64_t epoch = epochNo++;

    // Honest reference: all-max. The shared slack is the coordination
    // the paper grants this policy.
    FreqConfig all_max = FreqConfig::allMax(n);
    std::vector<double> ref = refTpis(em, profile, all_max);
    std::vector<double> allowed =
        allowedTpis(tracker, ref, epoch_len, profile.appOnCore);

    bool cpu_acts = phase == Phase::InPhase || (epoch % 2 == 0);
    bool mem_acts = phase == Phase::InPhase || (epoch % 2 == 1);

    SearchStats stats;
    SearchStats *sp = obsEnabled() ? &stats : nullptr;
    FreqConfig combined = current;
    if (cpu_acts) {
        double ser = 0.0;
        FreqConfig pick = capScanBestForMem(em, profile, current.memIdx,
                                            allowed, ser, sp);
        combined.coreIdx = pick.coreIdx;
    }
    if (mem_acts) {
        combined.memIdx =
            memOnlyBest(em, profile, current.coreIdx, allowed, sp);
    }
    if (obsEnabled())
        traceSearch(stats.candidates, 0, 0, 0, -1.0);
    return combined;
}

} // namespace coscale
