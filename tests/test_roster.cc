/**
 * @file
 * Roster pin: every name in exp::knownPolicyNames() runs end to end on
 * a small MID2 mix, and each run's observable outcome is folded into
 * one exp::Digest that is pinned here. The digest covers the finish
 * tick, the three energies, retired instructions, every epoch's
 * applied knob vector (core, memory, per-channel and way indices) and
 * the search-effort counters, so a refactor of any policy's search
 * that changes a single decision or a single evaluated candidate
 * fails its row.
 *
 * Two rows go beyond the plain roster: MultiScale under
 * region-per-channel placement (so its per-channel scan runs instead
 * of the no-channel fallback), and PowerCap/FastCap at a cap tight
 * enough that FastCap's headroom-spending phase takes steps PowerCap
 * does not.
 *
 * A deliberate behaviour change regenerates a row by running this
 * test and copying the "actual" value from the failure message.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "exp/digest.hh"
#include "exp/policies.hh"
#include "sim/runner.hh"

namespace coscale {
namespace {

constexpr int kCores = 4;
constexpr double kScale = 0.02;
constexpr double kDefaultCapW = 120.0;
/** Cap under which FastCap's upgrade phase moves MID2 off PowerCap's pick
 *  (at 60 W the two runs are identical). */
constexpr double kTightCapW = 50.0;

RunResult
runRow(const std::string &policy, bool region_map, double cap_w)
{
    SystemConfig cfg = makeScaledConfig(kScale);
    cfg.numCores = kCores;
    cfg.power.numCores = kCores;
    if (region_map) {
        cfg.geom.addrMap = AddrMap::RegionPerChannel;
        cfg.power.geom = cfg.geom;
    }
    RunRequest req = RunRequest::forMix(cfg, mixByName("MID2"));
    req.with(exp::requirePolicyFactory(policy, kCores, cfg.gamma, cap_w))
        .withMetrics();
    return run(req);
}

/**
 * Digest of a run's outcome; with @p search, also of the search
 * effort the policy reported.
 */
std::uint64_t
digestOf(const RunResult &r, bool search)
{
    exp::Digest d;
    d.add(static_cast<std::uint64_t>(r.finishTick));
    d.add(r.cpuEnergyJ);
    d.add(r.memEnergyJ);
    d.add(r.otherEnergyJ);
    d.add(r.totalInstrs);
    d.add(static_cast<std::uint64_t>(r.epochs.size()));
    auto addVec = [&d](const std::vector<int> &v) {
        d.add(static_cast<std::uint64_t>(v.size()));
        for (int x : v)
            d.add(x);
    };
    for (const EpochLog &e : r.epochs) {
        addVec(e.applied.coreIdx);
        d.add(e.applied.memIdx);
        addVec(e.applied.chanIdx);
        addVec(e.applied.wayIdx);
    }
    if (search) {
        EXPECT_NE(r.metrics, nullptr);
        if (!r.metrics)
            return 0;
        d.add(r.metrics->counter("search.candidates").value());
        d.add(r.metrics->counter("search.mem_steps").value());
    }
    return d.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

struct PinnedRow
{
    const char *policy;
    bool regionMap;
    double capW;
    std::uint64_t digest;
};

// One row per roster name (default cap), plus the region-mapped
// MultiScale row and the tight-cap PowerCap/FastCap pair.
const std::vector<PinnedRow> &
pinnedRows()
{
    static const std::vector<PinnedRow> rows = {
        {"baseline", false, kDefaultCapW, 0xea290405153f1ebeULL},
        {"reactive", false, kDefaultCapW, 0xcebd65dbe2941f13ULL},
        {"memscale", false, kDefaultCapW, 0x1eaa6f60478387eeULL},
        {"cpuonly", false, kDefaultCapW, 0x9d057c3dc86fe278ULL},
        {"uncoordinated", false, kDefaultCapW, 0x96a21e927edb21e6ULL},
        {"semi", false, kDefaultCapW, 0xbc65e161b0a8dd02ULL},
        {"semi-alt", false, kDefaultCapW, 0xab655f133e9b2ca4ULL},
        {"coscale", false, kDefaultCapW, 0xed61a5709498a493ULL},
        {"coscale-dvfs", false, kDefaultCapW, 0xed61a5709498a493ULL},
        {"coscale-chipwide", false, kDefaultCapW, 0x5a821b7b8d060c65ULL},
        {"offline", false, kDefaultCapW, 0xc1f0c2181b9b4f33ULL},
        {"multiscale", false, kDefaultCapW, 0x20fc3175bfb4648bULL},
        {"powercap", false, kDefaultCapW, 0xd43c2a34566c2c34ULL},
        {"fastcap", false, kDefaultCapW, 0xd43c2a34566c2c34ULL},
        {"multiscale", true, kDefaultCapW, 0x3a2a1961742a644bULL},
        {"powercap", false, kTightCapW, 0x6c742978d718fbecULL},
        {"fastcap", false, kTightCapW, 0x74500c8b5de1a367ULL},
    };
    return rows;
}

TEST(PolicyRoster, PinnedRowsCoverEveryKnownName)
{
    std::set<std::string> pinned;
    for (const PinnedRow &row : pinnedRows())
        pinned.insert(row.policy);
    for (const std::string &name : exp::knownPolicyNames())
        EXPECT_EQ(pinned.count(name), 1u) << name << " is not pinned";
    EXPECT_EQ(pinned.size(), exp::knownPolicyNames().size());
}

TEST(PolicyRoster, EveryRunMatchesItsPinnedDigest)
{
    for (const PinnedRow &row : pinnedRows()) {
        std::uint64_t digest =
            digestOf(runRow(row.policy, row.regionMap, row.capW), true);
        EXPECT_EQ(hex(digest), hex(row.digest))
            << row.policy << (row.regionMap ? " (region map)" : "")
            << " cap " << row.capW << " W";
    }
}

TEST(PolicyRoster, TightCapSeparatesPowerCapFromFastCap)
{
    // FastCap's upgrade phase must change what the run applies, not
    // just the candidate count, or its row pins nothing PowerCap's
    // row does not.
    EXPECT_NE(digestOf(runRow("powercap", false, kTightCapW), false),
              digestOf(runRow("fastcap", false, kTightCapW), false));
}

TEST(PolicyRoster, ReportedNamesAreDistinct)
{
    // Reported names key JSONL, CSV and trace rows, so two roster
    // entries sharing one would be indistinguishable in the output.
    std::set<std::string> seen;
    for (const std::string &name : exp::knownPolicyNames()) {
        std::string reported =
            exp::requirePolicyFactory(name, kCores, 0.10)()->name();
        EXPECT_TRUE(seen.insert(reported).second)
            << name << " reports '" << reported
            << "', already reported by another roster name";
    }
}

} // namespace
} // namespace coscale
