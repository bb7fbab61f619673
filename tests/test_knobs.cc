/**
 * @file
 * Knob-space tests (DESIGN.md §13): KnobVector/KnobSpace membership
 * and the power-cap feasibility predicate, CAT-style LLC way
 * partitioning (miss allocation restricted, lookups whole-set), the
 * UMON shadow-monitor miss curve, the model's missScale anchor and
 * monotonicity, the two-phase CoScale walk's output shape, and the
 * serialization surface of partitioned runs: a golden JSONL/Chrome
 * fixture with per-dimension knob values and the serial-vs---jobs-4
 * byte-identity pin.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/llc.hh"
#include "common/dvfs.hh"
#include "exp/engine.hh"
#include "exp/policies.hh"
#include "golden_util.hh"
#include "model/energy_model.hh"
#include "model/knobs.hh"
#include "obs/trace_sink.hh"
#include "policy/coscale_policy.hh"
#include "sim/runner.hh"
#include "workloads/spec_catalogue.hh"

namespace coscale {
namespace {

// --- Model-level fixture (mirrors test_model's EnergyFixture) ---

PerfModel
makePerf()
{
    return PerfModel(DramTimingParams{}, 10.0, 7.5);
}

CoreProfile
computeBound()
{
    CoreProfile c;
    c.cyclesPerInstr = 1.5;
    c.alpha = 0.008;
    c.tpiL2Secs = 7.5e-9;
    c.beta = 0.0004;
    c.measuredMemStallSecs = 60e-9;
    c.instrs = 1'000'000;
    c.aluPerInstr = 0.45;
    c.fpuPerInstr = 0.02;
    c.branchPerInstr = 0.18;
    c.memOpPerInstr = 0.35;
    c.llcAccessPerInstr = 0.0084;
    c.memReadPerInstr = 0.0004;
    return c;
}

CoreProfile
memoryBound()
{
    CoreProfile c = computeBound();
    c.cyclesPerInstr = 0.9;
    c.alpha = 0.022;
    c.beta = 0.018;
    c.measuredMemStallSecs = 90e-9;
    c.llcAccessPerInstr = 0.04;
    c.memReadPerInstr = 0.018;
    return c;
}

MemProfile
quietMem(Freq anchor = 800 * MHz)
{
    MemProfile m;
    m.profiledBusFreq = anchor;
    m.wBankSecs = 2e-9;
    m.wBusSecs = 1e-9;
    PerfModel pm = makePerf();
    m.measuredStallSecs = pm.serviceSecs(anchor) + 3e-9;
    m.busUtil = 0.15;
    m.rankActiveFrac = 0.2;
    m.writeFrac = 0.25;
    m.trafficPerSec = 1e8;
    return m;
}

struct KnobFixture : ::testing::Test
{
    static PowerParams
    fourCoreParams()
    {
        PowerParams p;
        p.numCores = 4;
        return p;
    }

    KnobFixture()
        : coreLadder(defaultCoreLadder()), memLadder(defaultMemLadder()),
          perf(makePerf()), power(fourCoreParams()),
          em(&perf, &power, &coreLadder, &memLadder)
    {
        prof.windowTicks = 300 * tickPerUs;
        for (int i = 0; i < 4; ++i)
            prof.cores.push_back(i % 2 ? memoryBound() : computeBound());
        prof.mem = quietMem();
        prof.profiledCoreIdx.assign(4, 0);
        prof.profiledMemIdx = 0;
    }

    /**
     * Arm the way dimension: a 16-way snapshot at the even split,
     * with a strictly decreasing reuse-depth histogram so the miss
     * curve is strictly monotone where it matters.
     */
    void
    armWays(int ways_total = 16, int floor = 1)
    {
        prof.waysTotal = ways_total;
        prof.wayFloor = floor;
        int even = ways_total / static_cast<int>(prof.cores.size());
        prof.profiledWayIdx.assign(prof.cores.size(), even);
        for (CoreProfile &c : prof.cores) {
            c.wayHitsPerInstr.assign(
                static_cast<size_t>(ways_total), 0.0);
            for (int d = 0; d < ways_total; ++d)
                c.wayHitsPerInstr[static_cast<size_t>(d)] =
                    c.llcAccessPerInstr
                    / static_cast<double>((d + 1) * (d + 1));
            c.shadowMissPerInstr = c.memReadPerInstr;
        }
    }

    FreqLadder coreLadder;
    FreqLadder memLadder;
    PerfModel perf;
    PowerModel power;
    EnergyModel em;
    SystemProfile prof;
};

TEST_F(KnobFixture, DvfsOnlySpaceShapeAndMembership)
{
    KnobSpace space = makeKnobSpace(em, prof);
    EXPECT_EQ(space.numCores, 4);
    EXPECT_EQ(space.coreSteps, static_cast<int>(em.cores().size()));
    EXPECT_EQ(space.memSteps, static_cast<int>(em.mem().size()));
    EXPECT_FALSE(space.llcWays);

    FreqConfig ok = FreqConfig::allMax(4);
    EXPECT_TRUE(space.contains(ok));

    FreqConfig off_ladder = ok;
    off_ladder.coreIdx[2] = space.coreSteps;  // one past the end
    EXPECT_FALSE(space.contains(off_ladder));

    FreqConfig bad_mem = ok;
    bad_mem.memIdx = -1;
    EXPECT_FALSE(space.contains(bad_mem));

    FreqConfig wrong_width = ok;
    wrong_width.coreIdx.push_back(0);
    EXPECT_FALSE(space.contains(wrong_width));

    // The way dimension is not part of a DVFS-only space.
    FreqConfig with_ways = ok;
    with_ways.wayIdx.assign(4, 4);
    EXPECT_FALSE(space.contains(with_ways));
}

TEST_F(KnobFixture, WaySpaceMembershipFloorAndBudget)
{
    armWays();
    KnobSpace space = makeKnobSpace(em, prof);
    ASSERT_TRUE(space.llcWays);
    EXPECT_EQ(space.waysTotal, 16);
    EXPECT_EQ(space.wayFloor, 1);

    FreqConfig ok = FreqConfig::allMax(4);
    ok.wayIdx.assign(4, 4);
    EXPECT_TRUE(space.contains(ok));
    // Held dimension (empty wayIdx) is always a member.
    EXPECT_TRUE(space.contains(FreqConfig::allMax(4)));

    FreqConfig below_floor = ok;
    below_floor.wayIdx[1] = 0;
    EXPECT_FALSE(space.contains(below_floor));

    FreqConfig over_budget = ok;
    over_budget.wayIdx.assign(4, 8);  // sums to 32 > 16
    EXPECT_FALSE(space.contains(over_budget));

    FreqConfig wrong_width = ok;
    wrong_width.wayIdx.pop_back();
    EXPECT_FALSE(space.contains(wrong_width));
}

TEST_F(KnobFixture, UnderCapIsAFeasibilityPredicate)
{
    FreqConfig all_max = FreqConfig::allMax(4);
    // Uncapped: everything is feasible.
    KnobSpace open = makeKnobSpace(em, prof);
    EXPECT_TRUE(open.underCap(em, prof, all_max));

    double p_max = em.systemPower(prof, all_max);
    KnobSpace tight = makeKnobSpace(em, prof, p_max * 0.5);
    EXPECT_FALSE(tight.underCap(em, prof, all_max));
    KnobSpace loose = makeKnobSpace(em, prof, p_max + 1.0);
    EXPECT_TRUE(loose.underCap(em, prof, all_max));

    // The cap never affects structural membership.
    EXPECT_TRUE(tight.contains(all_max));
}

TEST_F(KnobFixture, MissScaleAnchorsAtExactlyOneAndIsMonotone)
{
    // No way snapshot: the scale is the exact IEEE constant 1.0 for
    // any allocation — the DVFS-only identity.
    EXPECT_EQ(em.missScale(prof, 0, 3), 1.0);

    armWays();
    for (int i = 0; i < 4; ++i) {
        // Exactly 1 at the profiled allocation (no rounding slack:
        // this anchors SerEvaluator/EnergyModel audit consistency).
        EXPECT_EQ(em.missScale(prof, i, prof.profiledWayIdx
                                            [static_cast<size_t>(i)]),
                  1.0);
        // Monotone non-increasing in ways: more cache never predicts
        // more misses.
        double prev = em.missScale(prof, i, 1);
        EXPECT_GT(prev, 1.0);  // fewer ways than profiled => more
        for (int w = 2; w <= 16; ++w) {
            double s = em.missScale(prof, i, w);
            EXPECT_LE(s, prev) << "core " << i << " ways " << w;
            prev = s;
        }
        EXPECT_LT(prev, 1.0);  // full cache beats the even split
    }
}

TEST_F(KnobFixture, CoScaleWalksTheWayDimensionOnlyWhenArmed)
{
    Tick epoch = 300 * tickPerUs;
    // DVFS-only profile: the decision holds the way dimension.
    CoScalePolicy plain(4, 0.1);
    FreqConfig d0 = plain.decide(prof, em, FreqConfig::allMax(4), epoch);
    EXPECT_TRUE(d0.wayIdx.empty());

    // Armed profile: the two-phase walk emits a full partition that
    // respects the floor and the budget.
    armWays();
    CoScalePolicy armed(4, 0.1);
    FreqConfig d1 = armed.decide(prof, em, FreqConfig::allMax(4), epoch);
    ASSERT_EQ(d1.wayIdx.size(), 4u);
    int sum = 0;
    for (int w : d1.wayIdx) {
        EXPECT_GE(w, 1);
        sum += w;
    }
    EXPECT_LE(sum, 16);
    EXPECT_TRUE(makeKnobSpace(em, prof).contains(d1));

    // The coscale-dvfs roster entry pins the DVFS-only search even
    // on an armed profile (the bench harness's control arm).
    CoScaleOptions dvfs_only;
    dvfs_only.useWayPartitioning = false;
    CoScalePolicy control(4, 0.1, dvfs_only);
    FreqConfig d2 = control.decide(prof, em, FreqConfig::allMax(4),
                                   epoch);
    EXPECT_TRUE(d2.wayIdx.empty());
}

TEST(PolicyRoster, CoScaleDvfsVariantIsRegistered)
{
    std::vector<std::string> names = exp::knownPolicyNames();
    bool found = false;
    for (const std::string &n : names)
        found = found || n == "coscale-dvfs";
    EXPECT_TRUE(found);
    auto factory = exp::requirePolicyFactory("coscale-dvfs", 4, 0.1);
    EXPECT_EQ(factory()->name(), "CoScale-DVFS");
}

// --- CAT-style way partitioning in the LLC ---

TEST(LlcPartition, RestrictsMissAllocationButNotLookups)
{
    LlcConfig cfg;
    cfg.sizeBytes = 32 * 1024;  // 512 blocks, 16 ways, 32 sets
    cfg.ways = 16;
    std::uint64_t sets =
        cfg.sizeBytes / blockBytes / static_cast<std::uint64_t>(cfg.ways);

    // Unpartitioned control: a 16-block set-resident working set
    // fits, so the second pass hits every access.
    Llc whole(cfg);
    for (int pass = 0; pass < 2; ++pass)
        for (int k = 0; k < 16; ++k) {
            bool hit = whole
                           .access(static_cast<BlockAddr>(k) * sets,
                                   false, 0)
                           .hit;
            EXPECT_EQ(hit, pass == 1);
        }

    // Partitioned: core 0 may allocate in only 8 of the 16 ways, so
    // the same 16-block cyclic working set LRU-thrashes to 0 hits.
    Llc part(cfg);
    part.setPartition({8, 8});
    ASSERT_TRUE(part.partitionActive());
    for (int pass = 0; pass < 2; ++pass)
        for (int k = 0; k < 16; ++k)
            EXPECT_FALSE(part.access(static_cast<BlockAddr>(k) * sets,
                                     false, 0)
                             .hit);

    // Lookups still probe the whole set: core 1 hits on a line that
    // is resident in core 0's ways.
    Llc shared(cfg);
    shared.setPartition({8, 8});
    EXPECT_FALSE(shared.access(0, false, 0).hit);
    EXPECT_TRUE(shared.access(0, false, 1).hit);
}

TEST(LlcPartition, ShadowMonitorRecordsTheMissCurve)
{
    LlcConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    cfg.ways = 16;
    std::uint64_t sets =
        cfg.sizeBytes / blockBytes / static_cast<std::uint64_t>(cfg.ways);

    Llc llc(cfg);
    llc.setShadowTracking(2);
    ASSERT_TRUE(llc.shadowTracking());

    // Core 0 cycles k = 4 same-set blocks for three rounds: round one
    // is 4 cold misses, every later access re-uses at stack depth 3.
    const int k = 4, rounds = 3;
    for (int r = 0; r < rounds; ++r)
        for (int b = 0; b < k; ++b)
            llc.access(static_cast<BlockAddr>(b) * sets, false, 0);

    EXPECT_EQ(llc.shadowMisses()[0], static_cast<std::uint64_t>(k));
    const std::vector<std::uint64_t> &hits = llc.shadowHits();
    EXPECT_EQ(hits[static_cast<size_t>(k - 1)],
              static_cast<std::uint64_t>((rounds - 1) * k));
    for (int d = 0; d < cfg.ways; ++d) {
        if (d != k - 1) {
            EXPECT_EQ(hits[static_cast<size_t>(d)], 0u)
                << "depth " << d;
        }
    }

    // The miss-curve identity m(w) = miss + sum_{d >= w} hits[d]:
    // with fewer than k ways everything misses, with >= k ways only
    // the cold misses remain.
    auto missesAt = [&](int w) {
        std::uint64_t m = llc.shadowMisses()[0];
        for (int d = w; d < cfg.ways; ++d)
            m += hits[static_cast<size_t>(d)];
        return m;
    };
    EXPECT_EQ(missesAt(k - 1), static_cast<std::uint64_t>(rounds * k));
    EXPECT_EQ(missesAt(k), static_cast<std::uint64_t>(k));
    EXPECT_EQ(missesAt(cfg.ways), static_cast<std::uint64_t>(k));

    // Shadow counters are partition-independent: the same stream
    // under a starved 1-way allocation records the same curve.
    Llc starved(cfg);
    starved.setShadowTracking(2);
    starved.setPartition({1, 15});
    for (int r = 0; r < rounds; ++r)
        for (int b = 0; b < k; ++b)
            starved.access(static_cast<BlockAddr>(b) * sets, false, 0);
    EXPECT_EQ(starved.shadowMisses()[0], llc.shadowMisses()[0]);
    EXPECT_EQ(starved.shadowHits(), llc.shadowHits());
}

// --- Serialization of partitioned runs ---

/** The 2-core fixture config with the way-partition knob armed. */
SystemConfig
waysConfig()
{
    SystemConfig cfg = makeScaledConfig(0.02);
    cfg.numCores = 2;
    // Pin the paper-default backend so the fixtures stay
    // byte-identical under CI's backend-funnel leg.
    applyMemBackend(cfg, MemBackendSel{});
    // Arm the dimension explicitly: 2 cores / 16 ways clears the
    // System's ways >= 2 * cores gate, so this config partitions
    // regardless of COSCALE_KNOB_LLC_WAYS.
    cfg.knobs.llcWays = true;
    // Scale the LLC down to 1 MB (1024 sets) so the fixture working
    // sets below contend for it and the walk has a reason to move
    // ways; at the default 16 MB the partition never leaves the even
    // split and the fixtures would not exercise the dimension.
    cfg.llc.sizeBytes = std::uint64_t(1) << 20;
    return cfg;
}

/**
 * Heterogeneous resident sets for the fixture runs: 4 and 12 blocks
 * per set against 8 ways each under the even split, so one core has
 * idle ways the other needs — the regime where the two-phase walk
 * actually transfers ways.
 */
const std::vector<std::uint64_t> kWaysFootprints = {4096, 12288};

std::string
waysTraceBytes(const std::string &policy_name, TraceFormat format)
{
    SystemConfig cfg = waysConfig();
    RunRequest req =
        RunRequest::forMix(cfg, mixByName("MID1"))
            .with(exp::requirePolicyFactory(policy_name, cfg.numCores,
                                            cfg.gamma));
    applyHotFootprints(req.apps, kWaysFootprints);
    std::ostringstream os;
    std::unique_ptr<TraceSink> sink;
    if (format == TraceFormat::Chrome)
        sink = std::make_unique<ChromeTraceSink>(os);
    else
        sink = std::make_unique<JsonlTraceSink>(os);
    req.withTrace(*sink);
    coscale::run(req);
    sink->finish();
    return os.str();
}

TEST(KnobGolden, PartitionedCoScaleJsonlMatchesFixture)
{
    std::string bytes = waysTraceBytes("coscale", TraceFormat::Jsonl);
    // Epoch events carry the per-dimension knob values.
    EXPECT_NE(bytes.find("\"way_idx\""), std::string::npos);
    checkGolden("mid1_2core_ways_coscale.jsonl", bytes);
}

TEST(KnobGolden, PartitionedCoScaleChromeMatchesFixture)
{
    std::string bytes = waysTraceBytes("coscale", TraceFormat::Chrome);
    EXPECT_NE(bytes.find("way_idx"), std::string::npos);
    checkGolden("mid1_2core_ways_coscale.chrome.json", bytes);
}

TEST(KnobGolden, JsonReportCarriesWayIdxPerEpoch)
{
    SystemConfig cfg = waysConfig();
    RunRequest req =
        RunRequest::forMix(cfg, mixByName("MID1"))
            .with(exp::requirePolicyFactory("coscale", cfg.numCores,
                                            cfg.gamma));
    applyHotFootprints(req.apps, kWaysFootprints);
    RunResult r = coscale::run(req);
    std::ostringstream os;
    writeJsonReport(r, nullptr, os);
    EXPECT_NE(os.str().find("\"way_idx\""), std::string::npos);

    // And a DVFS-only run of the same shape emits none: the knob
    // dimension never leaks into runs that did not opt in.
    SystemConfig plain = waysConfig();
    plain.knobs.llcWays = false;
    RunRequest req2 =
        RunRequest::forMix(plain, mixByName("MID1"))
            .with(exp::requirePolicyFactory("coscale", plain.numCores,
                                            plain.gamma));
    applyHotFootprints(req2.apps, kWaysFootprints);
    RunResult r2 = coscale::run(req2);
    std::ostringstream os2;
    writeJsonReport(r2, nullptr, os2);
    EXPECT_EQ(os2.str().find("\"way_idx\""), std::string::npos);
}

TEST(KnobDeterminism, WorkerCountDoesNotChangePartitionedTraceBytes)
{
    SystemConfig cfg = waysConfig();
    const std::vector<std::string> mixes = {"MID1", "MEM1", "MIX1"};

    auto traceAll = [&](int jobs) {
        std::vector<std::unique_ptr<std::ostringstream>> streams;
        std::vector<std::unique_ptr<JsonlTraceSink>> sinks;
        std::vector<RunRequest> reqs;
        for (const std::string &m : mixes) {
            streams.push_back(std::make_unique<std::ostringstream>());
            sinks.push_back(
                std::make_unique<JsonlTraceSink>(*streams.back()));
            reqs.push_back(
                RunRequest::forMix(cfg, mixByName(m))
                    .with(exp::requirePolicyFactory(
                        "coscale", cfg.numCores, cfg.gamma)));
            applyHotFootprints(reqs.back().apps, kWaysFootprints);
            reqs.back().withTrace(*sinks.back());
        }
        exp::EngineOptions opts;
        opts.jobs = jobs;
        exp::ExperimentEngine engine(opts);
        std::vector<exp::RunOutcome> outcomes = engine.run(reqs);
        std::vector<std::string> bytes;
        for (size_t i = 0; i < reqs.size(); ++i) {
            EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
            sinks[i]->finish();
            bytes.push_back(streams[i]->str());
        }
        return bytes;
    };

    std::vector<std::string> serial = traceAll(1);
    std::vector<std::string> parallel = traceAll(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty()) << "mix " << mixes[i];
        EXPECT_EQ(serial[i], parallel[i]) << "mix " << mixes[i];
    }
}

} // namespace
} // namespace coscale
