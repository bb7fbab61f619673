/**
 * @file
 * The generic knob vector and knob space the policy/search stack
 * operates on (DESIGN.md §13).
 *
 * CoScale's original search walks exactly two knob families — per-core
 * frequency and memory frequency. `KnobVector` generalizes the
 * candidate to typed dimensions (per-core DVFS, memory DVFS, per-
 * channel DVFS, per-core LLC way allocation) and `KnobSpace` describes
 * which dimensions a given system actually exposes: ladder sizes,
 * QoS floors, and the power cap as a feasibility predicate over the
 * vector rather than a separate code path.
 *
 * Contract: a vector whose optional dimensions are empty is exactly
 * the legacy `(coreFreqIdx[], memFreqIdx)` pair, and every consumer
 * treats it with the legacy arithmetic bit for bit — the default
 * (DVFS-only) knob space stays byte-identical to the pre-refactor
 * code.
 */

#ifndef COSCALE_MODEL_KNOBS_HH
#define COSCALE_MODEL_KNOBS_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace coscale {

class EnergyModel;
struct SystemProfile;

/**
 * A candidate setting of every controllable knob. Historically named
 * FreqConfig (energy_model.hh keeps that alias); the optional
 * dimensions default to "held" (empty), which every consumer treats
 * as the legacy DVFS-only pair.
 */
struct KnobVector
{
    std::vector<int> coreIdx;  //!< ladder index per core
    int memIdx = 0;
    /**
     * Optional per-channel memory indices (MultiScale extension).
     * Empty means the uniform memIdx applies to every channel.
     */
    std::vector<int> chanIdx;
    /**
     * Optional per-core LLC way allocation (way-partitioning knob).
     * Empty means the dimension is held: whatever partition the
     * system currently has (or none) stays in place, and the model
     * evaluates the candidate at the profiled allocation.
     */
    std::vector<int> wayIdx;

    static KnobVector
    allMax(int num_cores)
    {
        KnobVector c;
        c.coreIdx.assign(static_cast<std::size_t>(num_cores), 0);
        c.memIdx = 0;
        return c;
    }
};

/**
 * The search space a system exposes. Ladder lengths come from the
 * EnergyModel (`em.cores().size()`, `em.mem().size()`, which
 * policies also read directly); the space adds what the model does
 * not know: vector membership (`contains`), the way budget and
 * floor, and the power cap expressed as a feasibility predicate
 * (`underCap`) instead of a dedicated search mode. Built from the
 * live system via makeKnobSpace().
 */
struct KnobSpace
{
    int numCores = 0;
    int coreSteps = 0;   //!< core ladder size
    int memSteps = 0;    //!< memory ladder size
    int numChannels = 0;
    bool llcWays = false; //!< way-partition dimension present?
    int waysTotal = 0;    //!< associativity W when llcWays
    int wayFloor = 1;     //!< QoS floor: min ways per core
    /** Feasibility cap in watts; +inf means uncapped. */
    double powerCapW = std::numeric_limits<double>::infinity();

    /** Is @p vec a well-formed member of this space? */
    bool contains(const KnobVector &vec) const;

    /**
     * The power-cap feasibility predicate: predicted system power of
     * @p vec under @p prof is within powerCapW. Always true when
     * uncapped.
     */
    bool underCap(const EnergyModel &em, const SystemProfile &prof,
                  const KnobVector &vec) const;

    /**
     * The baseline partition of this space: the even split the System
     * installs at construction (see evenWaySplit()). This is the
     * partition the measured performance bound is taken against, since
     * the baseline policy never moves it.
     */
    std::vector<int> baselinePartition() const;
};

/**
 * The even way split over @p num_cores cores of a @p ways_total -way
 * LLC: floor(W/N) ways each, the remainder going to the lowest-index
 * cores. The System installs exactly this partition at construction,
 * and the policies anchor their performance reference to it, so the
 * two layers must agree — both call this helper.
 */
std::vector<int> evenWaySplit(int ways_total, int num_cores);

/**
 * Build the knob space the system described by (@p em, @p prof)
 * exposes: per-core DVFS from the core ladder, memory DVFS from the
 * active backend's ladder, per-channel DVFS when the profile has
 * channels, and the LLC way dimension when the profile carries a
 * partitioned-LLC snapshot (prof.waysTotal > 0).
 */
KnobSpace makeKnobSpace(const EnergyModel &em,
                        const SystemProfile &prof,
                        double power_cap_w =
                            std::numeric_limits<double>::infinity());

} // namespace coscale

#endif // COSCALE_MODEL_KNOBS_HH
