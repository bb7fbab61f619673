#include "sim/runner.hh"

#include <algorithm>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "check/audit.hh"
#include "check/contract.hh"
#include "common/json.hh"
#include "fault/fault_injector.hh"

namespace coscale {

EpochStep
runEpochStep(System &sys, const EnergyModel &em, Policy &policy,
             fault::FaultInjector *inj, int epoch_no, TraceSink *sink,
             MetricsRegistry *metrics)
{
    const SystemConfig &cfg = sys.config();
    EpochStep step;

    // A transition the fault layer delayed lands at this epoch
    // boundary: the profiling phase below runs under it.
    FreqConfig pend;
    if (inj && inj->takePending(&pend)) {
        sys.applyConfig(pend);
        if (sink) {
            sink->write(TraceEvent(sys.now(), "fault", "transition_late")
                            .f("epoch",
                               static_cast<std::uint64_t>(epoch_no))
                            .f("mem_idx", pend.memIdx)
                            .f("core_idx", pend.coreIdx));
        }
    }
    step.start = sys.snapshot();
    const Tick epoch_start = step.start.tick;

    // Profiling phase (runs under the previous configuration).
    sys.run(epoch_start + cfg.profileLen);
    step.profTicks = sys.now() - epoch_start;
    if (step.profTicks > 0)
        step.profPower = sys.windowPower(step.start);
    if (sys.allAppsDone()) {
        step.finished = true;
        return step;
    }

    const std::uint64_t fepoch = static_cast<std::uint64_t>(epoch_no);
    step.prof = policy.wantsOracleProfile()
                    ? sys.oracleProfile(cfg.epochLen)
                    : sys.makeProfile(step.start);
    if (inj) {
        step.prof = inj->perturbProfile(step.prof, fepoch, sys.now(),
                                        sink, metrics);
    }
    step.prev = sys.currentConfig();
    policy.setObsTick(sys.now());
    FreqConfig decision =
        epoch_no < cfg.warmupEpochs
            ? step.prev
            : policy.safeDecide(step.prof, em, step.prev, cfg.epochLen);
    // A policy that does not speak the way dimension (empty wayIdx)
    // holds the installed partition rather than dropping it — the
    // knob is "held", never implicitly reset.
    if (decision.wayIdx.empty() && !step.prev.wayIdx.empty())
        decision.wayIdx = step.prev.wayIdx;
    // Requested vs granted: the fault layer may deny, delay, or clamp
    // the transition. Everything downstream follows granted.
    EpochObservation &obs = step.obs;
    obs.applied = inj ? inj->filterTransition(decision, step.prev, fepoch,
                                              sys.now(), sink, metrics)
                      : std::move(decision);

    CounterSnapshot mid = sys.snapshot();
    Tick epoch_len =
        inj ? inj->jitteredEpochLen(cfg.epochLen, cfg.profileLen,
                                    fepoch, sys.now(), sink, metrics)
            : cfg.epochLen;
    sys.applyConfig(obs.applied);
    sys.run(epoch_start + epoch_len);
    step.runTicks = sys.now() - mid.tick;
    if (step.runTicks > 0)
        step.runPower = sys.windowPower(mid);

    obs.epochProfile = sys.makeProfile(step.start);
    obs.instrs = sys.instrsSince(step.start);
    obs.epochTicks = sys.now() - epoch_start;
    if (sys.numApps() > sys.numCores())
        obs.appOnCore = sys.appAssignment();
    policy.observeEpoch(obs, em);
    return step;
}

namespace {

/**
 * Accumulate the energy of a window of @p span ticks from @p since at
 * average power @p pb. When the workload was @p done by the window's
 * end, the window is clipped at its completion tick. The energy
 * auditor, when attached, shadows the same integral.
 */
void
accumulateEnergy(const System &sys, const PowerBreakdown &pb,
                 Tick since, Tick span, bool done, RunResult &result,
                 EnergyAuditor *ea)
{
    Tick effective_end = since + span;
    if (done)
        effective_end = std::min(effective_end, sys.lastCompletionTick());
    if (effective_end <= since)
        return;
    double secs = ticksToSeconds(effective_end - since);
    result.cpuEnergyJ += pb.cpuW * secs;
    result.memEnergyJ += pb.memW * secs;
    result.otherEnergyJ += pb.otherW * secs;
    if (ea) {
        ea->checkConservation(pb.totalW(), pb.cpuW, pb.memW, pb.otherW);
        ea->onWindowEnergy(pb.cpuW, pb.memW, pb.otherW, secs);
    }
}

/**
 * Per-channel DRAM telemetry for one epoch window: counter deltas
 * reduced to the rates/fractions Fig. 7-style timelines need.
 */
void
traceDramWindow(const System &sys, const SystemConfig &cfg,
                const CounterSnapshot &since,
                const CounterSnapshot &end, TraceSink *sink,
                MetricsRegistry *metrics)
{
    Tick elapsed = end.tick - since.tick;
    if (elapsed == 0)
        return;
    int ranks = cfg.geom.ranksPerChannel();
    for (size_t c = 0; c < end.memChannels.size(); ++c) {
        ChannelCounters d = end.memChannels[c] - since.memChannels[c];
        double row_total =
            static_cast<double>(d.rowHits + d.rowMisses);
        double avg_q =
            d.queueSamples
                ? static_cast<double>(d.queueLenSum)
                      / static_cast<double>(d.queueSamples)
                : 0.0;
        double bus_frac = static_cast<double>(d.busBusyTicks)
                          / static_cast<double>(elapsed);
        double rank_frac =
            static_cast<double>(d.rankActiveTicks)
            / (static_cast<double>(elapsed) * ranks);
        if (metrics) {
            metrics->histogram("dram.queue_len", 0.0, 32.0, 32)
                .sample(avg_q);
            if (row_total > 0.0) {
                metrics->accum("dram.row_hit_rate")
                    .sample(static_cast<double>(d.rowHits) / row_total);
            }
            metrics->accum("dram.rank_active_frac").sample(rank_frac);
            metrics->counter("dram.refreshes").inc(d.refreshes);
        }
        if (sink) {
            sink->write(
                TraceEvent(end.tick, "dram",
                           "ch" + std::to_string(c))
                    .f("reads", d.readReqs)
                    .f("writes", d.writeReqs)
                    .f("prefetches", d.prefetchReqs)
                    .f("row_hits", d.rowHits)
                    .f("row_misses", d.rowMisses)
                    .f("avg_queue_len", avg_q)
                    .f("bus_busy_frac", bus_frac)
                    .f("rank_active_frac", rank_frac)
                    .f("refreshes", d.refreshes)
                    .f("activations", d.activations)
                    .f("precharges", d.precharges)
                    .f("freq_idx",
                       sys.memCtrl().channelFrequencyIndex(
                           static_cast<int>(c))));
        }
    }
}

/**
 * The epoch loop shared by every entry path: one runEpochStep per
 * epoch (profile, decide, transition, run the epoch out, update
 * slack), plus what is the single run's own — completion-clipped
 * energy, the EpochLog, optional per-epoch tracing and metrics (both
 * null when observability is off; the hot path then pays a handful
 * of pointer tests) and the auditors.
 *
 * Fault injection (@p inj, null for clean runs) acts inside the step;
 * the loop accounts the *granted* configuration it reports — EpochLog,
 * traces, and energy all follow what the (faulty) hardware actually
 * did, not what the policy asked for.
 *
 * Cooperative cancellation (@p cancel, null normally): the engine's
 * watchdog sets the flag and the loop aborts at the next epoch
 * boundary by throwing.
 */
RunResult
runEpochLoop(const SystemConfig &cfg, const std::string &label,
             const std::vector<AppSpec> &apps, Policy &policy,
             AuditSet *audit, bool force_audit, TraceSink *sink,
             MetricsRegistry *metrics, fault::FaultInjector *inj,
             const std::atomic<bool> *cancel)
{
    System sys(cfg, apps);
    EnergyModel em = sys.energyModel();

    // Auto-instantiate the auditors when auditing is on by default
    // (COSCALE_AUDIT build, or COSCALE_AUDIT=1 in the environment).
    std::unique_ptr<AuditSet> local_audit;
    if (!audit && (force_audit || auditingEnabled())) {
        local_audit = std::make_unique<AuditSet>(sys.numApps(),
                                                 policy.slackGamma());
        audit = local_audit.get();
    }
    EnergyAuditor *ea = audit ? &audit->energy : nullptr;
    if (audit)
        sys.attachDramAuditor(&audit->dram);

    RunResult result;
    result.mixName = label;
    result.policyName = policy.name();

    const bool tracing = sink != nullptr || metrics != nullptr;
    policy.attachObs(sink, metrics);

    int epoch_no = 0;
    while (!sys.allAppsDone()) {
        if (cancel && cancel->load(std::memory_order_relaxed)) {
            throw std::runtime_error(
                "run '" + label + "' cancelled at epoch "
                + std::to_string(epoch_no) + " (engine watchdog)");
        }
        // Context-switch rotation at scheduling-quantum boundaries
        // (before profiling, so the profile reflects the incoming
        // threads).
        if (cfg.schedQuantumEpochs > 0 && epoch_no > 0
            && epoch_no % cfg.schedQuantumEpochs == 0) {
            sys.rotateApps();
        }
        // Epoch-delta anchors: traced per-epoch energy is the exact
        // difference of the run totals, so traced epochs sum to the
        // RunResult to the last bit.
        double cpu_j0 = result.cpuEnergyJ;
        double mem_j0 = result.memEnergyJ;
        double other_j0 = result.otherEnergyJ;

        EpochStep step = runEpochStep(sys, em, policy, inj, epoch_no,
                                      sink, metrics);
        const Tick epoch_start = step.start.tick;
        accumulateEnergy(sys, step.profPower, epoch_start,
                         step.profTicks, step.finished, result, ea);
        if (step.finished) {
            if (tracing) {
                CounterSnapshot end_snap = sys.snapshot();
                if (sink) {
                    sink->write(
                        TraceEvent(sys.now(), "epoch", "tail")
                            .f("start",
                               static_cast<std::uint64_t>(epoch_start))
                            .f("cpu_j", result.cpuEnergyJ - cpu_j0)
                            .f("mem_j", result.memEnergyJ - mem_j0)
                            .f("other_j",
                               result.otherEnergyJ - other_j0));
                }
                traceDramWindow(sys, cfg, step.start, end_snap, sink,
                                metrics);
            }
            break;
        }
        epoch_no += 1;

        const SystemProfile &prof = step.prof;
        const FreqConfig &prev_cfg = step.prev;
        const EpochObservation &obs = step.obs;
        const FreqConfig &granted = obs.applied;
        accumulateEnergy(sys, step.runPower, epoch_start + step.profTicks,
                         step.runTicks, sys.allAppsDone(), result, ea);
        result.epochs.push_back(
            EpochLog{epoch_start, granted, step.runPower});

        if (tracing) {
            CounterSnapshot end_snap = sys.snapshot();
            std::uint64_t epoch_idx = result.epochs.size() - 1;
            std::uint64_t instrs = 0;
            for (std::uint64_t v : obs.instrs)
                instrs += v;

            int core_changes = 0;
            size_t nc = std::min(granted.coreIdx.size(),
                                 prev_cfg.coreIdx.size());
            for (size_t i = 0; i < nc; ++i) {
                if (granted.coreIdx[i] != prev_cfg.coreIdx[i])
                    core_changes += 1;
            }
            bool mem_changed =
                granted.memIdx != prev_cfg.memIdx
                || granted.chanIdx != prev_cfg.chanIdx;

            const PowerBreakdown &pw = result.epochs.back().avgPower;
            if (metrics) {
                metrics->counter("run.epochs").inc();
                metrics->counter("run.core_freq_changes")
                    .inc(static_cast<std::uint64_t>(core_changes));
                if (mem_changed)
                    metrics->counter("run.mem_freq_changes").inc();
                metrics->accum("epoch.total_w").sample(pw.totalW());
                metrics->accum("epoch.cpu_w").sample(pw.cpuW);
                metrics->accum("epoch.mem_w").sample(pw.memW);
            }
            if (sink) {
                double act_secs = ticksToSeconds(obs.epochTicks);
                std::vector<double> pred_tpi;
                std::vector<double> act_tpi;
                pred_tpi.reserve(static_cast<size_t>(sys.numCores()));
                act_tpi.reserve(static_cast<size_t>(sys.numCores()));
                for (int i = 0; i < sys.numCores(); ++i) {
                    pred_tpi.push_back(em.tpi(prof, i, granted));
                    std::uint64_t n_i =
                        obs.instrs[static_cast<size_t>(i)];
                    act_tpi.push_back(
                        n_i ? act_secs / static_cast<double>(n_i)
                            : 0.0);
                }
                TraceEvent ev(sys.now(), "epoch", "epoch");
                ev.f("epoch", epoch_idx)
                    .f("start",
                       static_cast<std::uint64_t>(epoch_start))
                    .f("mem_idx", granted.memIdx)
                    .f("mem_mhz",
                       em.mem().freq(granted.memIdx) / 1e6)
                    .f("core_idx", granted.coreIdx)
                    .f("cpu_w", pw.cpuW)
                    .f("mem_w", pw.memW)
                    .f("other_w", pw.otherW)
                    .f("cpu_j", result.cpuEnergyJ - cpu_j0)
                    .f("mem_j", result.memEnergyJ - mem_j0)
                    .f("other_j", result.otherEnergyJ - other_j0)
                    .f("instrs", instrs)
                    .f("pred_tpi", pred_tpi)
                    .f("act_tpi", act_tpi);
                if (!granted.chanIdx.empty())
                    ev.f("chan_idx", granted.chanIdx);
                if (!granted.wayIdx.empty())
                    ev.f("way_idx", granted.wayIdx);
                if (const SlackTracker *ledger = policy.slackLedger()) {
                    std::vector<double> slack;
                    slack.reserve(
                        static_cast<size_t>(ledger->size()));
                    for (int a = 0; a < ledger->size(); ++a)
                        slack.push_back(ledger->slackSecs(a));
                    ev.f("slack_secs", slack);
                }
                sink->write(ev);
            }
            traceDramWindow(sys, cfg, step.start, end_snap, sink,
                            metrics);
        }

        if (audit) {
            // Cross-check the decision the policy just took (Eq. 2/3
            // decomposition and SER fast path) and the Eq. 1 residual
            // of the epoch that just ran. A counter dropout poisons
            // the profile with NaN by design — the audit contract
            // assumes finite inputs, so the candidate check is
            // skipped for those epochs (the guarded policy held its
            // frequencies anyway).
            if (!inj || fault::profileFinite(prof))
                audit->energy.auditCandidate(em, prof, granted);
            audit->perf.onEpoch(obs, em);
        }
    }

    if (audit) {
        audit->energy.auditRunTotals(result.cpuEnergyJ,
                                     result.memEnergyJ,
                                     result.otherEnergyJ);
        sys.attachDramAuditor(nullptr);
    }

    result.finishTick = sys.lastCompletionTick();
    result.appCompletion = sys.appCompletionTicks();

    std::uint64_t instrs = 0;
    for (int i = 0; i < sys.numCores(); ++i)
        instrs += sys.core(i).counters().tic;
    result.totalInstrs = instrs;

    const LlcCounters &llc = sys.llc().counters();
    if (instrs > 0) {
        result.measuredMpki = 1000.0 * static_cast<double>(llc.misses)
                              / static_cast<double>(instrs);
        result.measuredWpki =
            1000.0 * static_cast<double>(llc.writebacks)
            / static_cast<double>(instrs);
    }
    result.prefetchAccuracy = sys.llc().prefetchAccuracy();

    ChannelCounters mem = sys.memCtrl().totalCounters();
    result.dramReads = mem.readReqs;
    result.dramPrefetches = mem.prefetchReqs;
    result.dramWrites = mem.writeReqs;

    policy.attachObs(nullptr, nullptr);
    if (metrics) {
        metrics->counter("run.instructions").inc(result.totalInstrs);
        metrics->gauge("run.finish_secs")
            .set(ticksToSeconds(result.finishTick));
        metrics->gauge("run.energy_j").set(result.totalEnergyJ());
        metrics->gauge("run.energy_per_instr_nj")
            .set(result.energyPerInstrNj());
    }
    if (sink) {
        sink->write(TraceEvent(sys.now(), "run", "summary")
                        .f("mix", result.mixName)
                        .f("policy", result.policyName)
                        .f("finish_secs",
                           ticksToSeconds(result.finishTick))
                        .f("cpu_j", result.cpuEnergyJ)
                        .f("mem_j", result.memEnergyJ)
                        .f("other_j", result.otherEnergyJ)
                        .f("instrs", result.totalInstrs)
                        .f("epochs",
                           static_cast<std::uint64_t>(
                               result.epochs.size())));
    }
    return result;
}

} // namespace

RunRequest
RunRequest::forMix(const SystemConfig &cfg, const WorkloadMix &mix)
{
    RunRequest req;
    req.label = mix.name;
    req.cfg = cfg;
    req.apps = expandMix(mix, cfg.numCores, cfg.instrBudget);
    return req;
}

RunRequest
RunRequest::forApps(const SystemConfig &cfg, std::string label,
                    std::vector<AppSpec> apps)
{
    RunRequest req;
    req.label = std::move(label);
    req.cfg = cfg;
    req.apps = std::move(apps);
    return req;
}

RunResult
run(const RunRequest &req)
{
    COSCALE_CHECK(req.borrowedPolicy != nullptr
                      || static_cast<bool>(req.makePolicy),
                  "RunRequest has neither a policy factory nor a "
                  "borrowed policy");
    COSCALE_CHECK(!req.apps.empty(),
                  "RunRequest '%s' has no applications",
                  req.label.c_str());

    std::unique_ptr<Policy> owned;
    Policy *policy = req.borrowedPolicy;
    if (!policy) {
        owned = req.makePolicy();
        COSCALE_CHECK(owned != nullptr,
                      "policy factory for '%s' returned null",
                      req.label.c_str());
        policy = owned.get();
    }

    // Observability: a borrowed sink wins; otherwise open a private
    // one from the spec. Private sinks are finished (Chrome footer,
    // flush) before the result returns; borrowed sinks stay open so
    // callers can pool several runs into one stream.
    std::unique_ptr<TraceSink> owned_sink;
    TraceSink *sink = req.traceSink;
    if (!sink && req.trace.enabled()) {
        owned_sink = openTraceSink(req.trace);
        sink = owned_sink.get();
    }
    std::shared_ptr<MetricsRegistry> metrics;
    if (req.wantMetrics)
        metrics = std::make_shared<MetricsRegistry>();

    // Fault injection: the injector exists only for runs that asked
    // for it; a disabled plan leaves the epoch loop untouched. The
    // injector seeds from the plan, falling back to the effective
    // config seed, so faults stay a pure function of the request.
    SystemConfig cfg = req.effectiveConfig();
    std::unique_ptr<fault::FaultInjector> inj;
    if (req.faults.enabled())
        inj = std::make_unique<fault::FaultInjector>(req.faults,
                                                     cfg.seed);

    RunResult result =
        runEpochLoop(cfg, req.label, req.apps, *policy, req.auditSet,
                     req.forceAudit, sink, metrics.get(), inj.get(),
                     req.cancelFlag);
    if (inj) {
        result.faultsEnabled = true;
        result.faults = inj->summary();
    }
    if (owned_sink)
        owned_sink->finish();
    result.metrics = std::move(metrics);
    return result;
}

Comparison
compare(const RunResult &baseline, const RunResult &run)
{
    Comparison c;
    double e_base = baseline.totalEnergyJ();
    if (e_base > 0.0)
        c.fullSystemSavings = 1.0 - run.totalEnergyJ() / e_base;
    if (baseline.cpuEnergyJ > 0.0)
        c.cpuSavings = 1.0 - run.cpuEnergyJ / baseline.cpuEnergyJ;
    if (baseline.memEnergyJ > 0.0)
        c.memSavings = 1.0 - run.memEnergyJ / baseline.memEnergyJ;

    COSCALE_CHECK(baseline.appCompletion.size()
                      == run.appCompletion.size(),
                  "mismatched app counts in comparison");
    double sum = 0.0;
    double worst = 0.0;
    size_t n = run.appCompletion.size();
    for (size_t i = 0; i < n; ++i) {
        double d = static_cast<double>(run.appCompletion[i])
                       / static_cast<double>(baseline.appCompletion[i])
                   - 1.0;
        sum += d;
        worst = std::max(worst, d);
    }
    c.avgDegradation = n ? sum / static_cast<double>(n) : 0.0;
    c.worstDegradation = worst;
    return c;
}

void
writeJsonReport(const RunResult &run, const Comparison *vs_baseline,
                std::ostream &os)
{
    JsonWriter j(os);
    j.beginObject();
    j.field("mix", run.mixName);
    j.field("policy", run.policyName);
    j.field("finish_seconds", ticksToSeconds(run.finishTick));
    j.field("total_instructions",
            static_cast<std::uint64_t>(run.totalInstrs));
    j.field("energy_j", run.totalEnergyJ());
    j.field("cpu_energy_j", run.cpuEnergyJ);
    j.field("mem_energy_j", run.memEnergyJ);
    j.field("other_energy_j", run.otherEnergyJ);
    j.field("energy_per_instr_nj", run.energyPerInstrNj());
    j.field("measured_mpki", run.measuredMpki);
    j.field("measured_wpki", run.measuredWpki);
    j.field("prefetch_accuracy", run.prefetchAccuracy);
    j.field("dram_reads", static_cast<std::uint64_t>(run.dramReads));
    j.field("dram_writes", static_cast<std::uint64_t>(run.dramWrites));

    if (run.faultsEnabled) {
        // Injected-fault summary: deterministic (pure function of the
        // request's plan + seed), so it belongs in the report.
        j.beginObject("faults");
        j.field("noisy_epochs", run.faults.noisyEpochs);
        j.field("stale_profiles", run.faults.staleProfiles);
        j.field("counter_dropouts", run.faults.counterDropouts);
        j.field("transitions_denied", run.faults.transitionsDenied);
        j.field("transitions_delayed", run.faults.transitionsDelayed);
        j.field("transitions_clamped", run.faults.transitionsClamped);
        j.field("jittered_epochs", run.faults.jitteredEpochs);
        j.endObject();
    }

    if (vs_baseline) {
        j.beginObject("vs_baseline");
        j.field("full_system_savings", vs_baseline->fullSystemSavings);
        j.field("cpu_savings", vs_baseline->cpuSavings);
        j.field("mem_savings", vs_baseline->memSavings);
        j.field("avg_degradation", vs_baseline->avgDegradation);
        j.field("worst_degradation", vs_baseline->worstDegradation);
        j.endObject();
    }

    j.beginArray("app_completion_seconds");
    for (Tick t : run.appCompletion)
        j.value(ticksToSeconds(t));
    j.endArray();

    j.beginArray("epochs");
    for (const auto &e : run.epochs) {
        j.beginObject();
        j.field("start_seconds", ticksToSeconds(e.startTick));
        j.field("mem_idx", e.applied.memIdx);
        j.beginArray("core_idx");
        for (int idx : e.applied.coreIdx)
            j.value(idx);
        j.endArray();
        if (!e.applied.chanIdx.empty()) {
            j.beginArray("chan_idx");
            for (int idx : e.applied.chanIdx)
                j.value(idx);
            j.endArray();
        }
        if (!e.applied.wayIdx.empty()) {
            j.beginArray("way_idx");
            for (int idx : e.applied.wayIdx)
                j.value(idx);
            j.endArray();
        }
        j.field("cpu_w", e.avgPower.cpuW);
        j.field("mem_w", e.avgPower.memW);
        j.field("total_w", e.avgPower.totalW());
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

} // namespace coscale
