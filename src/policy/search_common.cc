#include "policy/search_common.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/log.hh"
#include "model/knobs.hh"

namespace coscale {

std::vector<double>
refTpis(const EnergyModel &em, const SystemProfile &profile,
        const FreqConfig &ref)
{
    int n = static_cast<int>(profile.cores.size());
    std::vector<double> out(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out[static_cast<size_t>(i)] = em.tpi(profile, i, ref);
    return out;
}

std::vector<double>
allowedTpis(const SlackTracker &slack, const std::vector<double> &ref_tpi,
            Tick epoch_len, const std::vector<int> &app_on_core)
{
    double epoch_secs = ticksToSeconds(epoch_len);
    std::vector<double> out(ref_tpi.size());
    for (size_t i = 0; i < ref_tpi.size(); ++i) {
        out[i] = slack.allowedTpi(appOf(app_on_core,
                                        static_cast<int>(i)),
                                  ref_tpi[i], epoch_secs);
    }
    return out;
}

bool
configFeasible(const EnergyModel &em, const SystemProfile &profile,
               const FreqConfig &cfg, const std::vector<double> &allowed)
{
    int n = static_cast<int>(profile.cores.size());
    for (int i = 0; i < n; ++i) {
        if (em.tpi(profile, i, cfg) > allowed[static_cast<size_t>(i)])
            return false;
    }
    return true;
}

FreqConfig
capScanBestForMem(const EnergyModel &em, const SystemProfile &profile,
                  int mem_idx, const std::vector<double> &allowed,
                  double &out_ser, SearchStats *stats)
{
    SerEvaluator ev(em, profile);
    return capScanBestForMem(ev, em, profile, mem_idx, allowed,
                             out_ser, stats);
}

FreqConfig
capScanBestForMem(const SerEvaluator &ev, const EnergyModel &em,
                  const SystemProfile &profile, int mem_idx,
                  const std::vector<double> &allowed, double &out_ser,
                  SearchStats *stats)
{
    int n = static_cast<int>(profile.cores.size());
    int steps = em.cores().size();

    // Per core: slowdown ratio at every frequency, and the deepest
    // admissible index.
    std::vector<std::vector<double>> ratio(
        static_cast<size_t>(n),
        std::vector<double>(static_cast<size_t>(steps)));
    std::vector<int> deepest(static_cast<size_t>(n), 0);
    std::vector<double> caps;

    for (int i = 0; i < n; ++i) {
        double t_max = ev.tpiAtMax(i);
        for (int c = 0; c < steps; ++c) {
            double t = ev.tpi(i, c, mem_idx);
            ratio[static_cast<size_t>(i)][static_cast<size_t>(c)] =
                t_max > 0.0 ? t / t_max : 1.0;
            bool admissible = t <= allowed[static_cast<size_t>(i)];
            if (admissible) {
                deepest[static_cast<size_t>(i)] = c;
                caps.push_back(
                    ratio[static_cast<size_t>(i)][static_cast<size_t>(c)]);
            }
        }
    }

    FreqConfig best = FreqConfig::allMax(n);
    best.memIdx = mem_idx;
    std::uint64_t candidates = 1;
    FreqConfig cand = best;
    out_ser = capScan(ratio, deepest, std::move(caps), ev.ser(best),
                      best.coreIdx, cand.coreIdx, candidates,
                      [&] { return ev.ser(cand); });
    if (stats) {
        stats->candidates += candidates;
        stats->bestSer = out_ser;
    }
    return best;
}

FreqConfig
exhaustiveBest(const EnergyModel &em, const SystemProfile &profile,
               const std::vector<double> &allowed, SearchStats *stats)
{
    int n = static_cast<int>(profile.cores.size());
    SerEvaluator ev(em, profile);
    FreqConfig best = FreqConfig::allMax(n);
    double best_ser = ev.ser(best);
    if (stats)
        stats->candidates += 1;

    for (int m = 0; m < em.mem().size(); ++m) {
        // The memory step must itself be admissible for all cores at
        // max core frequency, otherwise no deeper config at this
        // memory index can be.
        FreqConfig probe = FreqConfig::allMax(n);
        probe.memIdx = m;
        if (!configFeasible(em, profile, probe, allowed))
            continue;
        double ser = 0.0;
        FreqConfig cand =
            capScanBestForMem(ev, em, profile, m, allowed, ser, stats);
        if (ser < best_ser) {
            best_ser = ser;
            best = cand;
        }
    }
    if (stats)
        stats->bestSer = best_ser;
    return best;
}

bool
decisionSane(const EnergyModel &em, const SystemProfile &profile,
             const FreqConfig &cfg)
{
    // Structural validity is exactly knob-space membership: ladder
    // ranges, vector widths, the way floor and budget.
    if (!makeKnobSpace(em, profile).contains(cfg))
        return false;
    size_t n = profile.cores.size();
    for (size_t i = 0; i < n; ++i) {
        double t = em.tpi(profile, static_cast<int>(i), cfg);
        if (!std::isfinite(t) || t <= 0.0)
            return false;
    }
    return true;
}

double
minSlackSecs(const SlackTracker &slack)
{
    double worst = std::numeric_limits<double>::infinity();
    for (int i = 0; i < slack.size(); ++i)
        worst = std::min(worst, slack.slackSecs(i));
    return worst;
}

int
memOnlyBest(const EnergyModel &em, const SystemProfile &profile,
            const std::vector<int> &core_idx,
            const std::vector<double> &allowed, SearchStats *stats)
{
    SerEvaluator ev(em, profile);
    FreqConfig cfg;
    cfg.coreIdx = core_idx;
    cfg.memIdx = 0;
    int best_idx = 0;
    double best_ser = ev.ser(cfg);
    if (stats)
        stats->candidates += 1;

    for (int m = 1; m < em.mem().size(); ++m) {
        cfg.memIdx = m;
        if (!configFeasible(em, profile, cfg, allowed))
            break;
        double s = ev.ser(cfg);
        if (stats)
            stats->candidates += 1;
        if (s < best_ser) {
            best_ser = s;
            best_idx = m;
        }
    }
    if (stats)
        stats->bestSer = best_ser;
    return best_idx;
}

} // namespace coscale
