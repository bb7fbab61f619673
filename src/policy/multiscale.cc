#include "policy/multiscale.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"

namespace coscale {

namespace {

/** Per-channel memory power at ladder index m, traffic-anchored. */
double
channelPower(const EnergyModel &em, const MemProfile &chan,
             double traffic_scale, int m)
{
    const PerfModel &perf = em.perfModel();
    Freq f = em.mem().freq(m);
    MemActivityRates rates;
    double traffic = chan.trafficPerSec * traffic_scale;
    rates.readsPs = traffic * (1.0 - chan.writeFrac);
    rates.writesPs = traffic * chan.writeFrac;
    double stretch = perf.busSecs(f) / perf.busSecs(chan.profiledBusFreq);
    rates.busUtil =
        std::min(1.0, chan.busUtil * traffic_scale * stretch);
    rates.rankActiveFrac =
        std::min(1.0, chan.rankActiveFrac * traffic_scale);
    return em.powerModel()
        .memPowerBreakdown(em.mem().voltage(m), f, rates, 1)
        .total();
}

/**
 * Reference (all-max) TPI of core @p i, evaluated against its home
 * channel's profile when one exists.
 */
double
refTpiOf(const SystemProfile &prof, const EnergyModel &em, int i)
{
    const CoreProfile &c = prof.cores[static_cast<size_t>(i)];
    const MemProfile &mem =
        (c.homeChannel >= 0
         && c.homeChannel < static_cast<int>(prof.channels.size()))
            ? prof.channels[static_cast<size_t>(c.homeChannel)]
            : prof.mem;
    return em.perfModel().tpiSecs(c, em.cores().fMax(), mem,
                                  em.mem().fMax());
}

} // namespace

FreqConfig
MultiScalePolicy::decide(const SystemProfile &profile,
                         const EnergyModel &em, const FreqConfig &,
                         Tick epoch_len)
{
    int n = static_cast<int>(profile.cores.size());
    int channels = static_cast<int>(profile.channels.size());
    const PerfModel &perf = em.perfModel();

    FreqConfig cfg = FreqConfig::allMax(n);

    // Admissible TPI per core, against its home channel's profile.
    double epoch_secs = ticksToSeconds(epoch_len);
    std::vector<double> allowed(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        allowed[static_cast<size_t>(i)] = tracker.allowedTpi(
            appOf(profile.appOnCore, i), refTpiOf(profile, em, i),
            epoch_secs);
    }

    if (channels == 0) {
        // No per-channel profile available: behave like MemScale.
        SearchStats stats;
        cfg.memIdx = memOnlyBest(em, profile, cfg.coreIdx, allowed,
                                 obsEnabled() ? &stats : nullptr);
        if (obsEnabled())
            traceSearch(stats.candidates, 0, 0, 0, stats.bestSer);
        return cfg;
    }

    SerEvaluator ev(em, profile);
    double p_base = ev.basePower();
    // The per-channel dimension is this policy's native axis; its
    // ladder length comes from the EnergyModel (DESIGN.md §13).
    int mem_steps = em.mem().size();

    // Precompute, per channel and frequency step: the worst relative
    // slowdown among the cores homed on it, its power, and per-core
    // admissibility. Channels are independent in performance (each
    // core's traffic goes to one channel), so a joint optimum is a
    // cap-scan: for every achievable worst-slowdown cap, each channel
    // independently drops as deep as the cap and the per-core bounds
    // allow, and the SER couples them through max() and sum()
    // (search_common.hh's capScan).
    std::vector<std::vector<double>> t_rel(
        static_cast<size_t>(channels),
        std::vector<double>(static_cast<size_t>(mem_steps), 1.0));
    std::vector<std::vector<double>> p_ch(
        static_cast<size_t>(channels),
        std::vector<double>(static_cast<size_t>(mem_steps), 0.0));
    std::vector<int> deepest(static_cast<size_t>(channels), 0);
    std::vector<double> caps;

    for (int ch = 0; ch < channels; ++ch) {
        const MemProfile &chan =
            profile.channels[static_cast<size_t>(ch)];
        std::vector<int> homed;
        for (int i = 0; i < n; ++i) {
            int home = profile.cores[static_cast<size_t>(i)].homeChannel;
            if (home == ch || home < 0)
                homed.push_back(i);
        }
        for (int m = 0; m < mem_steps; ++m) {
            Freq f = em.mem().freq(m);
            double worst = 1.0;
            double reads_now = 0.0;
            double reads_max = 0.0;
            bool feasible = true;
            for (int i : homed) {
                const CoreProfile &c =
                    profile.cores[static_cast<size_t>(i)];
                double t_max = perf.tpiSecs(c, em.cores().fMax(), chan,
                                            em.mem().fMax());
                double t = perf.tpiSecs(c, em.cores().fMax(), chan, f);
                if (t > allowed[static_cast<size_t>(i)]) {
                    feasible = false;
                    break;
                }
                worst = std::max(worst, t_max > 0.0 ? t / t_max : 1.0);
                reads_now += c.memReadPerInstr / t;
                reads_max += c.memReadPerInstr / t_max;
            }
            if (!feasible)
                break;
            double traffic_scale =
                reads_max > 0.0 ? reads_now / reads_max : 1.0;
            t_rel[static_cast<size_t>(ch)][static_cast<size_t>(m)] =
                worst;
            p_ch[static_cast<size_t>(ch)][static_cast<size_t>(m)] =
                channelPower(em, chan, traffic_scale, m);
            deepest[static_cast<size_t>(ch)] = m;
            caps.push_back(worst);
        }
    }
    double p_mem_max = 0.0;
    for (int ch = 0; ch < channels; ++ch)
        p_mem_max += p_ch[static_cast<size_t>(ch)][0];

    cfg.chanIdx.assign(static_cast<size_t>(channels), 0);
    std::vector<int> pick(static_cast<size_t>(channels), 0);
    std::uint64_t candidates = 0;
    double best_ser = capScan(
        t_rel, deepest, std::move(caps), 1.0, cfg.chanIdx, pick, candidates,
        [&] {
            double worst = 1.0;
            double p_mem = 0.0;
            for (size_t sc = 0; sc < pick.size(); ++sc) {
                size_t m = static_cast<size_t>(pick[sc]);
                worst = std::max(worst, t_rel[sc][m]);
                p_mem += p_ch[sc][m];
            }
            return worst * (p_base - p_mem_max + p_mem) / p_base;
        });

    // Report the shallowest channel as the nominal uniform index for
    // loggers that only understand memIdx.
    cfg.memIdx = *std::min_element(cfg.chanIdx.begin(),
                                   cfg.chanIdx.end());
    if (obsEnabled())
        traceSearch(candidates, 0, 0, 0, best_ser);
    return cfg;
}

void
MultiScalePolicy::observeEpoch(const EpochObservation &obs,
                               const EnergyModel &em)
{
    int n = static_cast<int>(obs.epochProfile.cores.size());
    double secs = ticksToSeconds(obs.epochTicks);
    for (int i = 0; i < n; ++i) {
        tracker.update(appOf(obs.appOnCore, i),
                       refTpiOf(obs.epochProfile, em, i),
                       obs.instrs[static_cast<size_t>(i)], secs);
    }
}

} // namespace coscale
