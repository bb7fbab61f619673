/**
 * @file
 * The traced run's sim leg and isolation replays. The simulator's
 * inner layers (trace generation, the LLC, the memory controller, the
 * event queue) cannot be timed from outside inside a full run, so
 * each is replayed on its own through its public API, on the input
 * stream of one System of the workload, and its work count is checked
 * against that System's counters.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "cache/llc.hh"
#include "common/rng.hh"
#include "exp/policies.hh"
#include "memctrl/mem_ctrl.hh"
#include "model/knobs.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "trace/synthetic.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using coscale::BlockAddr;
using coscale::System;
using coscale::Tick;

constexpr int kSetupReps = 3;
constexpr int kCopyReps = 3;
constexpr std::size_t kProfilesKept = 256;
// Replay-against-leg tolerances. Over seeds 1-6 of every workload the
// largest gaps were 2.4e-5 in hit fraction and 0.07% in writebacks,
// DRAM reads and DRAM writes (0 on 2-core and way-partitioned runs).
// Interleaving the cores by instruction position instead of the
// leg's epoch pace gave a 4% writeback gap on suite_mem.
constexpr double kHitFracTol = 0.001; //!< absolute hit-fraction gap
constexpr double kCountTol = 0.005;   //!< relative writeback/DRAM gap

/** A merged LLC access: block address, core and store flag. */
struct Access
{
    BlockAddr addr;
    std::uint32_t core;
    bool write;
};

/** One core's replayed record stream. */
struct CoreStream
{
    std::vector<BlockAddr> addr;
    std::vector<bool> write;
};

/** Seed of core @p i's trace, as System derives it. */
std::uint64_t
coreTraceSeed(const coscale::SystemConfig &cfg, int i)
{
    return cfg.seed * 7919 + static_cast<std::uint64_t>(i) * 104729;
}

/** |a - b| / b, or |a - b| when b is 0. */
double
relGap(std::uint64_t a, std::uint64_t b)
{
    double d = std::fabs(static_cast<double>(a) - static_cast<double>(b));
    return b ? d / static_cast<double>(b) : d;
}

/** What one LLC replay counted, and how long its accesses took. */
struct LlcReplay
{
    coscale::LlcCounters counters;
    double seconds = 0.0;
    /** Its misses, writebacks and prefetches, in order, as System
     *  sends them to the memory controller. */
    std::vector<coscale::MemReq> toMem;
};

/**
 * Replay @p merged into a fresh LLC. With @p partition_cores > 0 the
 * cache runs UMON shadow tags and an even way split over that many
 * cores, as System sets it up when the way knob is armed. Only the
 * access loop is timed.
 */
LlcReplay
replayLlc(const coscale::LlcConfig &llc_cfg,
          const std::vector<Access> &merged, int partition_cores)
{
    LlcReplay out;
    coscale::Llc cache(llc_cfg);
    if (partition_cores > 0) {
        cache.setShadowTracking(partition_cores);
        cache.setPartition(
            coscale::evenWaySplit(llc_cfg.ways, partition_cores));
    }
    // Per access: bit 0 hit, 1 writeback, 2 prefetch, 3 prefetch
    // writeback; the addresses of the last three follow in order.
    std::vector<std::uint8_t> outcome(merged.size());
    std::vector<BlockAddr> extra;
    Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < merged.size(); ++k) {
        const Access &a = merged[k];
        coscale::LlcAccessResult r =
            cache.access(a.addr, a.write, static_cast<int>(a.core));
        outcome[k] = static_cast<std::uint8_t>(
            (r.hit ? 1 : 0) | (r.writeback ? 2 : 0)
            | (r.prefetchIssued ? 4 : 0) | (r.prefetchWriteback ? 8 : 0));
        if (r.writeback)
            extra.push_back(r.writebackAddr);
        if (r.prefetchIssued)
            extra.push_back(r.prefetchAddr);
        if (r.prefetchWriteback)
            extra.push_back(r.prefetchWritebackAddr);
    }
    out.seconds = secondsSince(t0);
    out.counters = cache.counters();

    std::size_t next_extra = 0;
    auto send = [&](BlockAddr addr, coscale::ReqKind kind, std::size_t k) {
        coscale::MemReq q;
        q.addr = addr;
        q.kind = kind;
        if (kind != coscale::ReqKind::Writeback)
            q.core = static_cast<coscale::CoreId>(merged[k].core);
        q.token = k;
        out.toMem.push_back(q);
    };
    for (std::size_t k = 0; k < outcome.size(); ++k) {
        const std::uint8_t o = outcome[k];
        if (!(o & 1))
            send(merged[k].addr, coscale::ReqKind::Read, k);
        if (o & 2)
            send(extra[next_extra++], coscale::ReqKind::Writeback, k);
        if (o & 4)
            send(extra[next_extra++], coscale::ReqKind::Prefetch, k);
        if (o & 8)
            send(extra[next_extra++], coscale::ReqKind::Writeback, k);
    }
    return out;
}

} // namespace

LayerReport
runLayerLegs(const LegSpec &spec, Checks &checks)
{
    LayerReport rep;
    const coscale::SystemConfig &cfg = spec.cfg;
    const int cores = cfg.numCores;

    // --- sim leg: construct, drive epoch by epoch, copy, profile ----
    std::vector<double> setup_ms;
    for (int r = 0; r < kSetupReps; ++r) {
        Clock::time_point t0 = Clock::now();
        System probe(cfg, spec.apps);
        setup_ms.push_back(secondsSince(t0) * 1e3);
    }
    rep.metrics["sim.setup_ms"] = median(setup_ms);

    System sys(cfg, spec.apps);
    coscale::EnergyModel em = sys.energyModel();
    std::vector<double> epoch_ms, profile_us, power_err, copy_ms;
    std::vector<coscale::SystemProfile> profiles;
    // Each core's LLC accesses so far, at the end of every epoch: the
    // pace at which the replay interleaves the cores' streams.
    std::vector<std::vector<std::uint64_t>> epoch_tla;
    coscale::SystemProfile prev;
    double run_s = 0.0;
    std::size_t epoch = 0;
    while (!sys.allAppsDone()) {
        coscale::CounterSnapshot snap = sys.snapshot();
        Clock::time_point t0 = Clock::now();
        sys.run(sys.now() + cfg.epochLen);
        double s = secondsSince(t0);
        run_s += s;
        epoch_ms.push_back(s * 1e3);
        std::vector<std::uint64_t> &tla = epoch_tla.emplace_back();
        for (int i = 0; i < cores; ++i)
            tla.push_back(sys.core(i).counters().tla);

        Clock::time_point t1 = Clock::now();
        coscale::SystemProfile prof = sys.makeProfile(snap);
        profile_us.push_back(secondsSince(t1) * 1e6);
        // Model accuracy as a policy relies on it: the previous
        // epoch's profile predicts this epoch's measured power.
        double measured = sys.windowPower(snap).totalW();
        if (epoch > 0 && measured > 0.0) {
            double predicted = em.systemPower(prev, sys.currentConfig());
            if (std::isfinite(predicted))
                power_err.push_back(std::fabs(predicted - measured)
                                    / measured * 100.0);
        }
        if (profiles.size() < kProfilesKept)
            profiles.push_back(prof);
        prev = std::move(prof);

        // Offline's oracle copies a warm System mid-run.
        if (++epoch == 8) {
            for (int r = 0; r < kCopyReps; ++r) {
                Clock::time_point tc = Clock::now();
                System clone(sys);
                copy_ms.push_back(secondsSince(tc) * 1e3);
            }
        }
    }
    const double events = static_cast<double>(sys.eventsDispatched());
    const coscale::LlcCounters &llc = sys.llc().counters();
    const coscale::ChannelCounters mem = sys.memCtrl().totalCounters();
    rep.metrics["sim.events"] = events;
    rep.metrics["sim.ns_per_event"] = run_s * 1e9 / events;
    rep.metrics["sim.run_ms_per_epoch_p50"] = median(epoch_ms);
    rep.metrics["sim.copy_ms"] = median(copy_ms);
    rep.metrics["model.profile_us"] = median(profile_us);
    rep.metrics["model.power_err_pct_p50"] = median(power_err);
    rep.metrics["llc.accesses"] = static_cast<double>(llc.accesses);
    rep.metrics["llc.hit_frac"] = ratio(static_cast<double>(llc.hits),
                                      static_cast<double>(llc.accesses));
    rep.metrics["llc.writebacks"] = static_cast<double>(llc.writebacks);
    rep.metrics["dram.reads"] = static_cast<double>(mem.readReqs);
    rep.metrics["dram.writes"] = static_cast<double>(mem.writeReqs);
    rep.metrics["dram.row_hit_frac"] = ratio(
        static_cast<double>(mem.rowHits),
        static_cast<double>(mem.rowHits + mem.rowMisses + mem.rowConflicts));
    rep.metrics["dram.queue_len_mean"] =
        ratio(static_cast<double>(mem.queueLenSum),
            static_cast<double>(mem.queueSamples));
    rep.replayS["sim"] = run_s;

    // --- trace replay: each core's own stream, as many records as the
    // core retired; their instruction gaps must add up to its count.
    std::vector<CoreStream> streams(static_cast<std::size_t>(cores));
    std::uint64_t records = 0;
    double trace_s = 0.0;
    for (int i = 0; i < cores; ++i) {
        const coscale::CoreCounters &cc = sys.core(i).counters();
        CoreStream &cs = streams[static_cast<std::size_t>(i)];
        cs.addr.reserve(cc.tla);
        cs.write.reserve(cc.tla);
        coscale::SyntheticTraceSource src(
            spec.apps[static_cast<std::size_t>(i)], i, coreTraceSeed(cfg, i));
        std::uint64_t instrs = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t k = 0; k < cc.tla; ++k) {
            coscale::TraceRecord r = src.next();
            cs.addr.push_back(r.addr);
            cs.write.push_back(r.isWrite != 0);
            instrs += r.gapInstrs;
        }
        trace_s += secondsSince(t0);
        records += cc.tla;
        checks.expect(instrs == cc.tic,
                      "trace replay: core " + std::to_string(i)
                          + " stream does not reproduce its retired "
                            "instruction count");
    }
    checks.expect(records == llc.accesses,
                  "trace replay: records differ from LLC accesses");
    rep.metrics["trace.records"] = static_cast<double>(records);
    rep.metrics["trace.ns_per_record"] =
        trace_s * 1e9 / static_cast<double>(records);
    rep.replayS["trace"] = trace_s;

    // Merge the streams in the leg's epoch-by-epoch pace: epoch by
    // epoch, each core's accesses of that epoch spread evenly over it
    // (untimed preparation). Inside an epoch the order is not the
    // leg's timing order, so shared-cache contents differ a little.
    std::vector<Access> merged;
    merged.reserve(records);
    {
        std::vector<std::uint64_t> from(static_cast<std::size_t>(cores), 0);
        for (const std::vector<std::uint64_t> &upto : epoch_tla) {
            std::vector<std::uint64_t> next = from;
            for (;;) {
                // The core whose next access sits earliest in the
                // epoch, (next - from + 1) / (upto - from); ties go
                // to the lower core index.
                int best = -1;
                for (int i = 0; i < cores; ++i) {
                    std::size_t u = static_cast<std::size_t>(i);
                    if (next[u] == upto[u])
                        continue;
                    if (best < 0) {
                        best = i;
                        continue;
                    }
                    std::size_t b = static_cast<std::size_t>(best);
                    if ((next[u] - from[u] + 1) * (upto[b] - from[b])
                        < (next[b] - from[b] + 1) * (upto[u] - from[u]))
                        best = i;
                }
                if (best < 0)
                    break;
                std::size_t b = static_cast<std::size_t>(best);
                merged.push_back({streams[b].addr[next[b]],
                                  static_cast<std::uint32_t>(best),
                                  streams[b].write[next[b]]});
                next[b] += 1;
            }
            from = upto;
        }
    }
    streams.clear();
    streams.shrink_to_fit();

    // --- LLC replays, ways off and on. The one set up like the leg's
    // cache feeds the memory controller replay and is compared with
    // the leg's counters, within a tolerance (see the merge above).
    const bool leg_ways = sys.llc().partitionActive();
    LlcReplay plain = replayLlc(cfg.llc, merged, 0);
    LlcReplay ways = replayLlc(cfg.llc, merged, cores);
    merged.clear();
    merged.shrink_to_fit();
    rep.metrics["llc.ns_per_access"] =
        plain.seconds * 1e9 / static_cast<double>(records);
    rep.metrics["llc.ns_per_access_ways"] =
        ways.seconds * 1e9 / static_cast<double>(records);
    rep.replayS["llc"] = plain.seconds;
    rep.replayS["llc_ways"] = ways.seconds;
    LlcReplay &own = leg_ways ? ways : plain;
    const double hit_frac = ratio(static_cast<double>(own.counters.hits),
                                  static_cast<double>(records));
    const double wb_gap = relGap(own.counters.writebacks, llc.writebacks);
    rep.detail["llc.replay_hit_frac"] = hit_frac;
    rep.detail["llc.replay_writeback_gap"] = wb_gap;
    checks.expect(std::fabs(hit_frac - rep.metrics["llc.hit_frac"])
                          <= kHitFracTol
                      && wb_gap <= kCountTol,
                  "LLC replay: hit fraction or writebacks differ from the "
                  "full run's");

    // --- MemCtrl replay: that LLC replay's misses, writebacks and
    // prefetches, arriving at the full run's mean request rate.
    {
        coscale::MemCtrlConfig mcc;
        mcc.geom = cfg.geom;
        mcc.timing = cfg.timing;
        mcc.ladder = cfg.memLadder;
        mcc.writeHighWater = cfg.writeHighWater;
        mcc.writeLowWater = cfg.writeLowWater;
        mcc.respFixedNs = cfg.respFixedNs;
        mcc.backend = cfg.memBackend;
        coscale::MemCtrl mc(mcc, 0);
        std::vector<coscale::MemReq> &to_mem = own.toMem;
        const Tick gap = std::max<Tick>(
            1, sys.now() / std::max<std::uint64_t>(1, to_mem.size()));
        std::uint64_t steps = 0, reads_done = 0, reads_in = 0;
        Clock::time_point t0 = Clock::now();
        Tick at = 0;
        for (coscale::MemReq &q : to_mem) {
            while (mc.nextEventTick() <= at) {
                std::optional<coscale::MemCompletion> c = mc.step();
                steps += 1;
                if (c && c->kind == coscale::ReqKind::Read)
                    reads_done += 1;
            }
            q.arrival = at;
            mc.enqueue(q);
            reads_in += q.kind == coscale::ReqKind::Read;
            at += gap;
        }
        while (mc.nextEventTick() != coscale::maxTick) {
            std::optional<coscale::MemCompletion> c = mc.step();
            steps += 1;
            if (c && c->kind == coscale::ReqKind::Read)
                reads_done += 1;
        }
        double s = secondsSince(t0);
        coscale::ChannelCounters rc = mc.totalCounters();
        rep.detail["dram.replay_read_gap"] = relGap(rc.readReqs, mem.readReqs);
        rep.detail["dram.replay_write_gap"] =
            relGap(rc.writeReqs, mem.writeReqs);
        checks.expect(reads_done == reads_in
                          && rc.prefetchReqs == mem.prefetchReqs
                          && relGap(rc.readReqs, mem.readReqs) <= kCountTol
                          && relGap(rc.writeReqs, mem.writeReqs) <= kCountTol,
                      "MemCtrl replay: DRAM reads, writes or prefetches "
                      "differ from the full run's");
        rep.metrics["memctrl.ns_per_req"] =
            s * 1e9 / static_cast<double>(std::max<std::size_t>(
                          1, to_mem.size()));
        rep.detail["memctrl.replay_steps"] = static_cast<double>(steps);
        rep.replayS["memctrl"] = s;
    }

    // --- EventQueue churn: as many pop/reschedule operations as the
    // full run dispatched, at its rank count (controller + cores).
    {
        const int ranks = 1 + cores;
        coscale::EventQueue q(ranks);
        coscale::Rng rng(cfg.seed);
        for (int r = 0; r < ranks; ++r)
            q.schedule(r, 1 + rng.next() % 4096);
        const std::uint64_t ops = sys.eventsDispatched();
        Tick last = 0;
        bool ordered = true;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t k = 0; k < ops; ++k) {
            Tick t = q.topTick();
            int r = q.topRank();
            ordered = ordered && t >= last;
            last = t;
            q.schedule(r, t + 1 + (rng.next() & 4095));
        }
        double s = secondsSince(t0);
        checks.expect(ordered, "EventQueue replay popped out of order");
        rep.metrics["eventq.ns_per_op"] = s * 1e9 / static_cast<double>(ops);
        rep.replayS["eventq"] = s;
    }

    // --- decide() replay on the leg's own profiles ------------------
    if (!spec.replayPolicy.empty()) {
        coscale::PolicyFactory f = coscale::exp::requirePolicyFactory(
            spec.replayPolicy, cores, cfg.gamma);
        std::unique_ptr<coscale::Policy> pol = f();
        coscale::MetricsRegistry reg;
        pol->attachObs(nullptr, &reg);
        if (spec.capW > 0.0)
            pol->setPowerCap(spec.capW);
        coscale::FreqConfig cur = coscale::FreqConfig::allMax(cores);
        std::vector<double> us;
        double total = 0.0;
        for (const coscale::SystemProfile &p : profiles) {
            Clock::time_point t0 = Clock::now();
            cur = pol->decide(p, em, cur, cfg.epochLen);
            double s = secondsSince(t0);
            total += s;
            us.push_back(s * 1e6);
        }
        rep.metrics["policy.decide_us_p50"] = quantile(us, 0.5);
        rep.metrics["policy.decide_us_p90"] = quantile(us, 0.9);
        rep.metrics["policy.decides"] = static_cast<double>(us.size());
        rep.metrics["policy.candidates"] = static_cast<double>(
            reg.counter("search.candidates").value());
        rep.replayS["policy"] = total;
    }
    return rep;
}

} // namespace perfbench
