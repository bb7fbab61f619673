#include "cluster/allocator.hh"

#include <algorithm>
#include <cmath>

namespace coscale {
namespace cluster {

namespace {

/** Clamp model inputs to finite non-negative values: a faulted node
 *  can report NaN predictions, and the allocator's invariants assume
 *  finite arithmetic. */
double
finiteOrZero(double v)
{
    return std::isfinite(v) && v > 0.0 ? v : 0.0;
}

} // namespace

std::vector<double>
fastcapAllocate(double budget_w,
                const std::vector<NodePowerDemand> &nodes)
{
    const std::size_t n = nodes.size();
    std::vector<double> grants(n, 0.0);
    if (n == 0 || !(budget_w > 0.0))
        return grants;

    std::vector<double> min_w(n, 0.0);
    std::vector<double> headroom(n, 0.0);
    std::vector<double> weight(n, 0.0);
    double sum_min = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        switch (nodes[i].trust) {
          case NodeTrust::Dead:
            // Fenced and drawing nothing: reclaim the whole grant.
            min_w[i] = 0.0;
            headroom[i] = 0.0;
            weight[i] = 0.0;
            break;
          case NodeTrust::Stale:
            // Silent but possibly still drawing: reserve the
            // conservative envelope as a hard floor with no upside —
            // the node cannot be steered, so it gets no demand share
            // and no headroom, just its reservation.
            min_w[i] = std::max(finiteOrZero(nodes[i].minW),
                                finiteOrZero(nodes[i].maxW));
            headroom[i] = 0.0;
            weight[i] = 0.0;
            break;
          case NodeTrust::Fresh:
            min_w[i] = finiteOrZero(nodes[i].minW);
            headroom[i] =
                std::max(min_w[i], finiteOrZero(nodes[i].maxW))
                - min_w[i];
            weight[i] = finiteOrZero(nodes[i].demand);
            break;
        }
        sum_min += min_w[i];
    }

    if (budget_w <= sum_min) {
        // The budget cannot cover the floors: scale the minima
        // proportionally. Every node's policy finds itself over its
        // cap and pins all-min; the measured shortfall is the
        // operator's signal that the budget is infeasible, not
        // silently hidden.
        if (sum_min <= 0.0) {
            double even = budget_w / static_cast<double>(n);
            grants.assign(n, even);
            return grants;
        }
        for (std::size_t i = 0; i < n; ++i)
            grants[i] = budget_w * min_w[i] / sum_min;
        return grants;
    }

    // Guarantee the floors, then water-fill the remainder
    // proportionally to demand, clamped at each node's headroom.
    // Each round either distributes everything (no clamp hit) or
    // saturates at least one node, so the loop runs at most n+1
    // times. The fixed point is min(headroom_i, lambda*w_i) with a
    // single water level lambda — monotone in the budget.
    grants = min_w;
    double remaining = budget_w - sum_min;
    std::vector<std::size_t> active;
    active.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (headroom[i] > 0.0)
            active.push_back(i);
    }

    constexpr double eps = 1e-12;
    while (remaining > eps && !active.empty()) {
        double total_weight = 0.0;
        for (std::size_t i : active)
            total_weight += weight[i];
        const bool equal_shares = total_weight <= 0.0;
        if (equal_shares)
            total_weight = static_cast<double>(active.size());

        double distributed = 0.0;
        std::vector<std::size_t> still_active;
        still_active.reserve(active.size());
        for (std::size_t i : active) {
            double w = equal_shares ? 1.0 : weight[i];
            double share = remaining * w / total_weight;
            double add = std::min(share, headroom[i]);
            grants[i] += add;
            headroom[i] -= add;
            distributed += add;
            if (headroom[i] > eps)
                still_active.push_back(i);
        }
        remaining -= distributed;
        if (still_active.size() == active.size()) {
            // No clamp fired: every share landed in full, so the
            // remainder is exhausted up to fp rounding.
            break;
        }
        active.swap(still_active);
    }
    return grants;
}

} // namespace cluster
} // namespace coscale
