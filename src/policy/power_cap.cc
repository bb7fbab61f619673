#include "policy/power_cap.hh"

#include <algorithm>

#include "model/knobs.hh"

namespace coscale {

namespace {

/**
 * Call @p fn(next, core) on every configuration one rung from @p cfg
 * in direction @p dir (+1 = slower, -1 = faster): the memory step
 * first (core = -1), then each core's in index order.
 */
template <typename Fn>
void
forEachStep(const KnobSpace &space, const FreqConfig &cfg, int dir, Fn fn)
{
    auto movable = [dir](int idx, int steps) {
        return idx + dir >= 0 && idx + dir < steps;
    };
    if (movable(cfg.memIdx, space.memSteps)) {
        FreqConfig next = cfg;
        next.memIdx += dir;
        fn(next, -1);
    }
    for (int i = 0; i < space.numCores; ++i) {
        if (movable(cfg.coreIdx[static_cast<size_t>(i)], space.coreSteps)) {
            FreqConfig next = cfg;
            next.coreIdx[static_cast<size_t>(i)] += dir;
            fn(next, i);
        }
    }
}

} // namespace

FreqConfig
PowerCapPolicy::decide(const SystemProfile &profile, const EnergyModel &em,
                       const FreqConfig &, Tick)
{
    // Aim slightly below the cap: the prediction is model-based and
    // the epoch's actual activity can run a little hotter than the
    // profiling window suggested. The cap is a feasibility predicate
    // over the knob space (DESIGN.md §13), not a separate search mode.
    KnobSpace space = makeKnobSpace(em, profile, capWatts * 0.96);
    FreqConfig cfg = FreqConfig::allMax(space.numCores);
    std::uint64_t candidates = 1;
    std::uint64_t mem_steps = 0;
    overCap = false;

    // Fit: from all-max, greedily take the single step down with the
    // highest utility (delta power / delta performance) until the
    // predicted system power fits under the cap.
    while (!space.underCap(em, profile, cfg)) {
        constexpr double eps = 1e-15;
        double best_utility = -1.0;
        FreqConfig best_next = cfg;
        bool any = false;
        forEachStep(space, cfg, +1, [&](const FreqConfig &next, int core) {
            double d_power =
                core < 0 ? em.systemPower(profile, cfg)
                               - em.systemPower(profile, next)
                         : em.corePower(profile, core, cfg)
                               - em.corePower(profile, core, next);
            double d_perf = std::max(em.relativeTime(profile, next)
                                         - em.relativeTime(profile, cfg),
                                     eps);
            double u = d_power / d_perf;
            candidates += 1;
            if (u > best_utility) {
                best_utility = u;
                best_next = next;
                any = true;
            }
        });
        if (!any) {
            overCap = true;  // everything already at minimum
            break;
        }
        if (best_next.memIdx != cfg.memIdx)
            mem_steps += 1;
        cfg = best_next;
    }

    // FastCap's fairness upgrade: the utility-greedy descent can
    // overshoot (its last step is not necessarily the cheapest one
    // that fits), leaving headroom another dimension could use.
    // Repeatedly take the single step up that most reduces predicted
    // relative time while still fitting under the cap; each round
    // raises one ladder index, so the loop is bounded by the rungs.
    while (spendHeadroom && !overCap) {
        constexpr double eps = 1e-12;
        double best_rel = em.relativeTime(profile, cfg) - eps;
        FreqConfig best_next = cfg;
        bool any = false;
        forEachStep(space, cfg, -1, [&](const FreqConfig &next, int) {
            candidates += 1;
            if (!space.underCap(em, profile, next))
                return;
            double rel = em.relativeTime(profile, next);
            if (rel < best_rel) {
                best_rel = rel;
                best_next = next;
                any = true;
            }
        });
        if (!any)
            break;
        if (best_next.memIdx != cfg.memIdx)
            mem_steps += 1;
        cfg = best_next;
    }

    // The capping walk optimises power fit, not SER, so no best_ser.
    if (obsEnabled())
        traceSearch(candidates, mem_steps, 0, 0, -1.0);
    return cfg;
}

} // namespace coscale
