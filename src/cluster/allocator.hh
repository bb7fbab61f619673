/**
 * @file
 * The cluster-level power-cap allocator: FastCap's cap-and-fairness
 * rule (PAPERS.md) dividing one global budget across nodes each
 * cluster epoch. Every node first receives its minimum achievable
 * power (nobody can run below all-min frequencies); the remaining
 * budget is water-filled proportionally to demand, clamped at each
 * node's maximum useful power. A pure function of its inputs —
 * deterministic by construction, and cheap enough to run every
 * cluster epoch for thousands of nodes.
 */

#ifndef COSCALE_CLUSTER_ALLOCATOR_HH
#define COSCALE_CLUSTER_ALLOCATOR_HH

#include <vector>

namespace coscale {
namespace cluster {

/**
 * How much the allocator may trust one node's report this round
 * (health monitoring feeds this; cluster/health.hh).
 */
enum class NodeTrust
{
    /** Report is current: full minW/maxW/demand participation. */
    Fresh,

    /**
     * Report is stale or the node is silent but possibly still
     * drawing (suspect, hung, telemetry blackout): the node is
     * budgeted a fixed conservative reservation — max(minW, maxW) as
     * both floor and ceiling, no demand share — so the global cap
     * stays safe without trusting a word it says.
     */
    Stale,

    /**
     * Declared dead and fenced: zero reservation, its whole grant is
     * reclaimed for the survivors.
     */
    Dead,
};

/** One node's inputs to the allocator, from its last epoch profile. */
struct NodePowerDemand
{
    /** Predicted system power at all-min frequencies: the floor the
     *  node cannot go below even if granted nothing. */
    double minW = 0.0;

    /** Predicted system power at all-max frequencies: granting more
     *  than this buys nothing. */
    double maxW = 0.0;

    /** Offered load (queued requests / work); only relative
     *  magnitudes matter. While any node has positive demand,
     *  zero-demand nodes receive just their minimum; when every
     *  demand is zero the remainder is shared equally. */
    double demand = 0.0;

    /** Telemetry trust level (default preserves PR 8 behaviour). */
    NodeTrust trust = NodeTrust::Fresh;
};

/**
 * Divide @p budget_w across @p nodes.
 *
 * Invariants (property-tested in tests/test_cluster.cc):
 *  - sum(grants) <= budget_w (up to fp rounding),
 *  - grants[i] >= nodes[i].minW whenever budget_w >= sum(minW),
 *  - grants[i] <= max(minW, maxW) always,
 *  - monotone in budget_w: more budget never shrinks any grant,
 *  - symmetric: identical nodes receive identical grants,
 *  - demand-monotone: raising one node's demand (all else equal)
 *    never shrinks that node's grant,
 *  - Dead nodes are granted exactly 0 regardless of their reported
 *    envelope (their watts go back into the shared pool),
 *  - Stale nodes are granted exactly their reservation
 *    max(minW, maxW) when the budget covers all floors, never more.
 *
 * When the budget cannot even cover the minima, grants scale the
 * minima proportionally — every node is over-capped and its
 * controller pins all-min (PowerCapPolicy's over-cap condition).
 * Stale reservations scale down with everyone else's floors in that
 * regime: the budget stays a hard invariant even mid-churn.
 */
std::vector<double> fastcapAllocate(
    double budget_w, const std::vector<NodePowerDemand> &nodes);

} // namespace cluster
} // namespace coscale

#endif // COSCALE_CLUSTER_ALLOCATOR_HH
