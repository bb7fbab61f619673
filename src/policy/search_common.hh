/**
 * @file
 * Search utilities shared by the policies: admissible-TPI vectors,
 * feasibility checks, and the cap-scan exhaustive core-frequency
 * optimizer.
 *
 * Cap-scan exploits a structural property of the Section 3.3 models:
 * for a fixed memory frequency, per-core TPIs and powers are
 * independent across cores, and the SER couples them only through
 * max(relative slowdown) and sum(power). Scanning every achievable
 * worst-case slowdown cap and letting each core drop to its lowest
 * admissible frequency under that cap therefore covers the whole
 * Pareto frontier of the exponential configuration space exactly
 * (see DESIGN.md). The same structure holds for MultiScale's memory
 * channels, so both searches run the one capScan() below.
 */

#ifndef COSCALE_POLICY_SEARCH_COMMON_HH
#define COSCALE_POLICY_SEARCH_COMMON_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "policy/policy.hh"

namespace coscale {

/**
 * Search-loop telemetry (obs/): every optimizer below counts the
 * candidate configurations whose SER it evaluated into the optional
 * out-param, so policies can report search effort per decision.
 */
struct SearchStats
{
    std::uint64_t candidates = 0;
    double bestSer = -1.0;  //!< winning SER; negative = not recorded
};

/**
 * The cap-scan over independent units (cores at one memory index, or
 * memory channels). For each distinct cap in @p caps and 1.0, each unit
 * u drops to the deepest index <= deepest[u] whose slowdown[u][m] is
 * within the cap, written into @p pick (one index per unit, sized by
 * the caller, who may let it alias the configuration @p price reads),
 * and @p price() returns that pick's SER; one candidate is counted per
 * cap. @p best holds the starting pick on entry and the winner on
 * return; the return value is its SER, or @p best_ser if no cap beat
 * it. The pricing callable is a template parameter, and nothing is
 * allocated per cap, because Offline runs this loop for every memory
 * step.
 */
template <typename Price>
double
capScan(const std::vector<std::vector<double>> &slowdown,
        const std::vector<int> &deepest, std::vector<double> caps,
        double best_ser, std::vector<int> &best, std::vector<int> &pick,
        std::uint64_t &candidates, Price &&price)
{
    caps.push_back(1.0);
    std::sort(caps.begin(), caps.end());
    caps.erase(std::unique(caps.begin(), caps.end()), caps.end());
    for (double cap : caps) {
        for (std::size_t u = 0; u < deepest.size(); ++u) {
            int p = 0;
            for (int m = deepest[u]; m >= 1; --m) {
                if (slowdown[u][static_cast<std::size_t>(m)] <= cap) {
                    p = m;
                    break;
                }
            }
            pick[u] = p;
        }
        double s = price();
        candidates += 1;
        if (s < best_ser) {
            best_ser = s;
            best = pick;
        }
    }
    return best_ser;
}

/**
 * Per-core reference TPIs (predicted at configuration @p ref).
 */
std::vector<double> refTpis(const EnergyModel &em,
                            const SystemProfile &profile,
                            const FreqConfig &ref);

/**
 * Per-core admissible TPI bounds for the next epoch, combining the
 * reference pace with accumulated slack.
 */
std::vector<double> allowedTpis(const SlackTracker &slack,
                                const std::vector<double> &ref_tpi,
                                Tick epoch_len,
                                const std::vector<int> &app_on_core =
                                    std::vector<int>{});

/** True if every core's predicted TPI under @p cfg is admissible. */
bool configFeasible(const EnergyModel &em, const SystemProfile &profile,
                    const FreqConfig &cfg,
                    const std::vector<double> &allowed);

/**
 * Exhaustive-equivalent optimizer for the core dimensions at a fixed
 * memory index: returns the SER-minimal admissible configuration.
 * @p out_ser receives the winning SER.
 */
FreqConfig capScanBestForMem(const EnergyModel &em,
                             const SystemProfile &profile, int mem_idx,
                             const std::vector<double> &allowed,
                             double &out_ser,
                             SearchStats *stats = nullptr);

/** As above with a prebuilt evaluator (for callers scanning many
 *  memory indices against one profile). */
FreqConfig capScanBestForMem(const SerEvaluator &ev,
                             const EnergyModel &em,
                             const SystemProfile &profile, int mem_idx,
                             const std::vector<double> &allowed,
                             double &out_ser,
                             SearchStats *stats = nullptr);

/**
 * Full exhaustive-equivalent search over memory and core frequencies
 * (the Offline policy's selection step).
 */
FreqConfig exhaustiveBest(const EnergyModel &em,
                          const SystemProfile &profile,
                          const std::vector<double> &allowed,
                          SearchStats *stats = nullptr);

/**
 * Memory-only greedy walk with cores pinned at @p core_idx: lowers
 * the memory frequency while admissible, returns the SER-minimal
 * memory index visited.
 */
int memOnlyBest(const EnergyModel &em, const SystemProfile &profile,
                const std::vector<int> &core_idx,
                const std::vector<double> &allowed,
                SearchStats *stats = nullptr);

// --- graceful-degradation guards (Policy::safeDecide) ---

/**
 * Sanity-check a policy decision against the ladders and the model:
 * the configuration must have one core index per profiled core, every
 * index must lie on its ladder, and the predicted TPI of every core
 * must be finite and positive. A profile poisoned by a counter
 * dropout, or a search that walked off the ladder, fails here and the
 * runner holds the previous configuration instead.
 */
bool decisionSane(const EnergyModel &em, const SystemProfile &profile,
                  const FreqConfig &cfg);

/** Smallest (most indebted) per-application slack in the ledger. */
double minSlackSecs(const SlackTracker &slack);

} // namespace coscale

#endif // COSCALE_POLICY_SEARCH_COMMON_HH
