/**
 * @file
 * coscale_sim — the command-line front end to the whole library.
 * Runs any workload mix under any policy at any configuration, and
 * prints (or CSVs) the result. This is the "driver binary" a
 * downstream user scripts their own experiments with. Multi-mix
 * sweeps execute on the parallel experiment engine; results are
 * printed in mix order regardless of worker count.
 *
 * Usage:
 *   coscale_sim [options]
 *     --mix NAME         workload mix (default MID1; 'all' sweeps)
 *     --policy NAME      any name --list-policies prints
 *                        (default coscale)
 *     --scale S          time scale in (0,1] (default 0.1)
 *     --bound PCT        performance bound in percent (default 10)
 *     --cap WATTS        power cap (powercap and fastcap policies)
 *     --cores N          number of cores (default 16)
 *     --jobs N           worker threads for multi-mix sweeps
 *                        (default: COSCALE_JOBS, then hardware)
 *     --ooo              enable the OoO/MLP window
 *     --prefetch         enable the next-line prefetcher
 *     --mem-sched S      channel scheduler: fcfs (paper) or frfcfs
 *     --row-policy P     row-buffer policy: closed (paper) or open
 *     --dram-standard D  DRAM standard: ddr3 (paper), ddr4, lpddr4
 *     --open-page        alias for --row-policy open
 *     --region-map       region-per-channel placement (MultiScale)
 *     --freq-steps N     ladder steps for both domains (default 10)
 *     --half-voltage     use the 0.95-1.2 V core range
 *     --mem-power-mult M memory power multiplier (Fig. 12/13)
 *     --other-frac F     rest-of-system power fraction (default 0.1)
 *     --seed S           workload RNG seed
 *     --csv PATH         append one result row per run to a CSV
 *     --json PATH        write a full JSON report of the (last) run
 *     --jsonl PATH       append one JSON line per run (all runs)
 *     --epochs           print the per-epoch frequency log
 *     --trace PATH       write an epoch-level trace per run (run i
 *                        of a sweep goes to PATH.i)
 *     --trace-format F   jsonl (default) or chrome (load chrome
 *                        traces in chrome://tracing or Perfetto)
 *     --metrics          print each run's metrics registry (JSON)
 *     --timeout SECS     per-run wall-clock watchdog (0 = off)
 *     --list-policies    print the registered policy roster and exit
 *
 *   Numeric values must be numbers in full: '--cores abc' or
 *   '--cap 2x' is a fatal error, not 0 cores or a 2 W cap; so is an
 *   out-of-range count or wattage ('--cores 0', '--cap -10').
 *
 *   Cluster mode (src/cluster/; --nodes > 0 switches to it):
 *     --nodes N          simulate an N-node fleet (0 = single node)
 *     --node-cores C     cores per fleet node (default 2)
 *     --power-cap W      global cluster power budget in watts
 *                        (0 = uncapped; grants re-divided per epoch)
 *     --cluster-epochs E cluster epochs to run (default 12)
 *     --arrival SPEC     request stream, e.g.
 *                        "rate=2e5,diurnal=0.25,period=12,burst=0.1,
 *                        burstx=4,ipr=250e3,slo=2e-3,seed=7"
 *                        (default: ~1.5 requests/node/epoch)
 *     --lb NAME          load balancer: rr, least-loaded, weighted
 *     --churn SPEC       node churn plan, e.g.
 *                        "crash=0.05,reboot=3,ramp=2,flap=0.02,
 *                        hang=0.05,hangx=2,blackout=0.1,blackoutx=1,
 *                        suspect=1,dead=3,seed=7"
 *                        (default: no churn; see DESIGN.md §12)
 *   In cluster mode --policy selects the per-node policy (fastcap
 *   couples with the allocator; anything else ignores its grants),
 *   --mix the per-node workload ('all' is rejected), --jobs the node
 *   fan-out width, and --trace/--json/--csv/--metrics emit
 *   cluster-scope output.
 *
 *   Deterministic fault injection (src/fault/; all default off):
 *     --fault-seed S     fault stream seed (0 = derive from --seed)
 *     --fault-noise A    counter noise amplitude (relative, e.g. 0.1)
 *     --fault-noise-bias B  persistent memory-stall-channel bias
 *     --fault-dropout P  P(profile loses one core's counters)/epoch
 *     --fault-stale P    P(profile re-serves the previous epoch)
 *     --fault-deny P     P(DVFS transition denied)/epoch
 *     --fault-delay P    P(transition delayed one epoch)/epoch
 *     --fault-clamp P    P(transition clamped one rung short)/epoch
 *     --fault-jitter F   epoch-timer jitter fraction (e.g. 0.05)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/csv.hh"
#include "common/log.hh"
#include "common/parse_num.hh"
#include "exp/bench_options.hh"
#include "exp/engine.hh"
#include "exp/policies.hh"
#include "exp/report.hh"
#include "sim/runner.hh"

using namespace coscale;

namespace {

struct Options
{
    std::string mix = "MID1";
    std::string policy = "coscale";
    double scale = 0.1;
    double bound = 10.0;
    double cap = 120.0;
    int cores = 16;
    int jobs = 0;
    bool ooo = false;
    bool prefetch = false;
    MemBackendSel memBackend;
    bool memBackendSet = false;
    bool regionMap = false;
    int freqSteps = 10;
    bool halfVoltage = false;
    double memPowerMult = 1.0;
    double otherFrac = 0.10;
    std::uint64_t seed = 1;
    std::string csvPath;
    std::string jsonPath;
    std::string jsonlPath;
    bool printEpochs = false;
    TraceSpec trace;
    bool metrics = false;
    double timeoutSecs = 0.0;
    fault::FaultPlan faults;

    // Cluster mode (--nodes > 0).
    int nodes = 0;
    int nodeCores = 2;
    double powerCap = 0.0;
    int clusterEpochs = 12;
    std::string arrival;
    std::string lb = "weighted";
    std::string churn;
};

/** Parse a number that must be non-negative (a fault knob, a budget). */
double
nonNegative(const std::string &flag, const char *v)
{
    double x = flagDouble(flag.c_str(), v);
    if (x < 0.0)
        fatal("%s must be non-negative, got '%s'", flag.c_str(), v);
    return x;
}

/** Parse an integer that must be at least @p lo. */
int
intAtLeast(const std::string &flag, const char *v, int lo)
{
    int x = flagInt(flag.c_str(), v);
    if (x < lo)
        fatal("%s must be >= %d, got '%s'", flag.c_str(), lo, v);
    return x;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--mix") {
            opt.mix = need(i);
        } else if (a == "--policy") {
            opt.policy = need(i);
        } else if (a == "--scale") {
            opt.scale = flagDouble(a.c_str(), need(i));
        } else if (a == "--bound") {
            opt.bound = flagDouble(a.c_str(), need(i));
        } else if (a == "--cap") {
            opt.cap = flagDouble(a.c_str(), need(i));
            if (!(opt.cap > 0.0))
                fatal("--cap must be positive, got '%s'", argv[i]);
        } else if (a == "--cores") {
            opt.cores = intAtLeast(a, need(i), 1);
        } else if (a == "--jobs") {
            opt.jobs = intAtLeast(a, need(i), 0);
        } else if (a == "--ooo") {
            opt.ooo = true;
        } else if (a == "--prefetch") {
            opt.prefetch = true;
        } else if (a == "--mem-sched") {
            if (!parseMemSched(need(i), &opt.memBackend.sched))
                fatal("--mem-sched must be fcfs or frfcfs");
            opt.memBackendSet = true;
        } else if (a == "--row-policy") {
            if (!parseRowPolicy(need(i), &opt.memBackend.rowPolicy))
                fatal("--row-policy must be closed or open");
            opt.memBackendSet = true;
        } else if (a == "--dram-standard") {
            if (!parseDramStandard(need(i), &opt.memBackend.standard))
                fatal("--dram-standard must be ddr3, ddr4, or lpddr4");
            opt.memBackendSet = true;
        } else if (a == "--open-page") {
            opt.memBackend.rowPolicy = RowPolicy::Open;
            opt.memBackendSet = true;
        } else if (a == "--region-map") {
            opt.regionMap = true;
        } else if (a == "--freq-steps") {
            opt.freqSteps = flagInt(a.c_str(), need(i));
        } else if (a == "--half-voltage") {
            opt.halfVoltage = true;
        } else if (a == "--mem-power-mult") {
            opt.memPowerMult = flagDouble(a.c_str(), need(i));
        } else if (a == "--other-frac") {
            opt.otherFrac = flagDouble(a.c_str(), need(i));
        } else if (a == "--seed") {
            opt.seed = flagU64(a.c_str(), need(i));
        } else if (a == "--csv") {
            opt.csvPath = need(i);
        } else if (a == "--json") {
            opt.jsonPath = need(i);
        } else if (a == "--jsonl") {
            opt.jsonlPath = need(i);
        } else if (a == "--epochs") {
            opt.printEpochs = true;
        } else if (a == "--trace") {
            opt.trace.path = need(i);
        } else if (a == "--trace-format") {
            const char *v = need(i);
            if (!parseTraceFormat(v, &opt.trace.format))
                fatal("--trace-format must be jsonl or chrome, "
                      "got '%s'", v);
        } else if (a == "--metrics") {
            opt.metrics = true;
        } else if (a == "--timeout") {
            opt.timeoutSecs = exp::parseTimeoutSecs(need(i));
        } else if (a == "--fault-seed") {
            opt.faults.seed = flagU64(a.c_str(), need(i));
        } else if (a == "--fault-noise") {
            opt.faults.counterNoiseAmp = nonNegative(a, need(i));
        } else if (a == "--fault-noise-bias") {
            // The one signed fault knob (bias direction matters).
            opt.faults.counterNoiseBias = flagDouble(a.c_str(), need(i));
        } else if (a == "--fault-dropout") {
            opt.faults.counterDropoutProb = nonNegative(a, need(i));
        } else if (a == "--fault-stale") {
            opt.faults.counterStaleProb = nonNegative(a, need(i));
        } else if (a == "--fault-deny") {
            opt.faults.transitionDenyProb = nonNegative(a, need(i));
        } else if (a == "--fault-delay") {
            opt.faults.transitionDelayProb = nonNegative(a, need(i));
        } else if (a == "--fault-clamp") {
            opt.faults.transitionClampProb = nonNegative(a, need(i));
        } else if (a == "--fault-jitter") {
            opt.faults.epochJitterFrac = nonNegative(a, need(i));
        } else if (a == "--nodes") {
            opt.nodes = intAtLeast(a, need(i), 0);
        } else if (a == "--node-cores") {
            opt.nodeCores = intAtLeast(a, need(i), 1);
        } else if (a == "--power-cap") {
            opt.powerCap = nonNegative(a, need(i));
        } else if (a == "--cluster-epochs") {
            opt.clusterEpochs = intAtLeast(a, need(i), 1);
        } else if (a == "--arrival") {
            opt.arrival = need(i);
        } else if (a == "--lb") {
            opt.lb = need(i);
        } else if (a == "--churn") {
            opt.churn = need(i);
        } else if (a == "--list-policies") {
            exp::printPolicyRoster();
            exitCleanly();
        } else if (a == "--help" || a == "-h") {
            std::printf("see the header comment of "
                        "examples/coscale_sim.cc for options\n");
            exitCleanly();
        } else {
            fatal("unknown option '%s' (try --help)", a.c_str());
        }
    }
    return opt;
}

SystemConfig
makeConfig(const Options &opt)
{
    SystemConfig cfg = makeScaledConfig(opt.scale);
    cfg.numCores = opt.cores;
    cfg.gamma = opt.bound / 100.0;
    cfg.ooo = opt.ooo;
    cfg.llc.prefetchNextLine = opt.prefetch;
    if (opt.memBackendSet)
        applyMemBackend(cfg, opt.memBackend);
    if (opt.regionMap || opt.policy == "multiscale") {
        cfg.geom.addrMap = AddrMap::RegionPerChannel;
        cfg.power.geom = cfg.geom;
    }
    cfg.seed = opt.seed;
    if (opt.freqSteps != 10) {
        cfg.coreLadder = defaultCoreLadder(opt.freqSteps);
        cfg.memLadder =
            standardMemLadder(opt.memBackend.standard, opt.freqSteps);
    }
    if (opt.halfVoltage)
        cfg.coreLadder = halfVoltageCoreLadder(opt.freqSteps);
    cfg.power.mem.memPowerMultiplier = opt.memPowerMult;
    cfg.power.otherFrac = opt.otherFrac;
    cfg.power.numCores = opt.cores;
    return cfg;
}

void
printOutcome(const Options &opt, const SystemConfig &cfg,
             const WorkloadMix &mix, const exp::RunOutcome &out,
             CsvWriter *csv)
{
    const RunResult &result = out.result;
    const Comparison &c = out.vsBaseline;

    std::printf("%-6s %-16s | full %5.1f%% mem %5.1f%% cpu %5.1f%% | "
                "deg %4.1f/%4.1f%% | %6.2f ms %6.1f J\n",
                mix.name.c_str(), result.policyName.c_str(),
                c.fullSystemSavings * 100.0, c.memSavings * 100.0,
                c.cpuSavings * 100.0, c.avgDegradation * 100.0,
                c.worstDegradation * 100.0,
                ticksToSeconds(result.finishTick) * 1e3,
                result.totalEnergyJ());

    if (opt.printEpochs) {
        for (size_t e = 0; e < result.epochs.size(); ++e) {
            const EpochLog &log = result.epochs[e];
            double avg_core = 0.0;
            for (int idx : log.applied.coreIdx)
                avg_core += cfg.coreLadder.freq(idx) / GHz;
            avg_core /= static_cast<double>(log.applied.coreIdx.size());
            std::printf("  epoch %3zu: mem %.0f MHz, cores avg "
                        "%.2f GHz, power %.1f W\n",
                        e + 1,
                        cfg.memLadder.freq(log.applied.memIdx) / MHz,
                        avg_core, log.avgPower.totalW());
        }
    }

    if (csv) {
        csv->row()
            .cell(mix.name)
            .cell(result.policyName)
            .cell(opt.scale)
            .cell(cfg.gamma)
            .cell(c.fullSystemSavings)
            .cell(c.memSavings)
            .cell(c.cpuSavings)
            .cell(c.avgDegradation)
            .cell(c.worstDegradation)
            .cell(result.totalEnergyJ());
    }
}

/** Cluster mode: build the fleet, run it, print/emit per scope. */
int
runCluster(const Options &opt)
{
    if (opt.mix == "all")
        fatal("--mix all is a single-node sweep; cluster mode runs "
              "one mix per fleet (pick one)");

    cluster::ClusterConfig ccfg;
    ccfg.numNodes = opt.nodes;
    Options nopt = opt;
    nopt.cores = opt.nodeCores;
    ccfg.node = makeConfig(nopt);
    cluster::applyNodeSizing(ccfg.node, opt.nodeCores);
    ccfg.mix = opt.mix;
    ccfg.policy = opt.policy;
    ccfg.budgetW = opt.powerCap;
    ccfg.epochs = opt.clusterEpochs;
    ccfg.seed = opt.seed;
    ccfg.faults = opt.faults;
    ccfg.jobs = opt.jobs;
    try {
        ccfg.lb = cluster::parseLbPolicy(opt.lb);
        if (!opt.churn.empty())
            ccfg.churn = cluster::parseChurnSpec(opt.churn);
        if (!opt.arrival.empty()) {
            ccfg.arrival = cluster::parseArrivalSpec(opt.arrival);
        } else {
            double epoch_secs = ticksToSeconds(ccfg.node.epochLen);
            ccfg.arrival.ratePerSec =
                1.5 * static_cast<double>(opt.nodes) / epoch_secs;
            ccfg.arrival.sloSecs = 6.0 * epoch_secs;
        }
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }

    std::unique_ptr<TraceSink> sink;
    if (opt.trace.enabled())
        sink = openTraceSink(opt.trace);
    std::unique_ptr<MetricsRegistry> metrics;
    if (opt.metrics)
        metrics = std::make_unique<MetricsRegistry>();

    cluster::ClusterSim sim(ccfg);
    sim.attachObs(sink.get(), metrics.get());
    cluster::ClusterResult result = sim.run();
    if (sink)
        sink->finish();

    std::printf("cluster: %d nodes x %d cores, mix %s, policy %s, "
                "lb %s%s\n",
                opt.nodes, opt.nodeCores, opt.mix.c_str(),
                opt.policy.c_str(), cluster::lbPolicyName(ccfg.lb),
                opt.powerCap > 0.0 ? "" : ", uncapped");
    for (const cluster::ClusterEpochStats &e : result.epochs) {
        std::printf("  epoch %3llu: arrivals %5llu, grant "
                    "%7.1f W, power %7.1f W, done %5llu, "
                    "queued %5llu%s\n",
                    static_cast<unsigned long long>(e.epoch),
                    static_cast<unsigned long long>(e.arrivals),
                    e.grantSumW, e.powerW,
                    static_cast<unsigned long long>(e.completed),
                    static_cast<unsigned long long>(e.queued),
                    e.capExceeded ? "  <-- over budget" : "");
    }
    std::printf("total: %llu arrivals, %llu completed, %llu SLO "
                "violations, %llu queued at end\n",
                static_cast<unsigned long long>(result.totalArrivals),
                static_cast<unsigned long long>(
                    result.totalCompleted),
                static_cast<unsigned long long>(
                    result.totalSloViolations),
                static_cast<unsigned long long>(result.finalQueued));
    std::printf("power: worst %.1f W over %zu epochs",
                result.worstPowerW, result.epochs.size());
    if (opt.powerCap > 0.0) {
        std::printf(", budget %.1f W, %llu violation epochs",
                    opt.powerCap,
                    static_cast<unsigned long long>(
                        result.capViolationEpochs));
    }
    std::printf("\n");
    if (ccfg.churn.enabled()) {
        const cluster::ChurnSummary &cs = result.churn;
        std::printf(
            "churn: %llu crashes, %llu flaps, %llu hangs, %llu "
            "blackouts, %llu deaths (%llu fenced), %llu rejoins, "
            "%llu rerouted; availability %.3f\n",
            static_cast<unsigned long long>(cs.crashes),
            static_cast<unsigned long long>(cs.flaps),
            static_cast<unsigned long long>(cs.hangs),
            static_cast<unsigned long long>(cs.blackouts),
            static_cast<unsigned long long>(cs.deaths),
            static_cast<unsigned long long>(cs.fences),
            static_cast<unsigned long long>(cs.rejoins),
            static_cast<unsigned long long>(cs.reroutedRequests),
            result.availability);
    }

    if (!opt.csvPath.empty()) {
        CsvWriter csv(opt.csvPath);
        csv.header({"epoch", "arrivals", "grant_sum_w", "power_w",
                    "completed", "slo_violations", "queued",
                    "mean_latency_s", "cap_exceeded"});
        for (const cluster::ClusterEpochStats &e : result.epochs) {
            csv.row()
                .cell(static_cast<double>(e.epoch))
                .cell(static_cast<double>(e.arrivals))
                .cell(e.grantSumW)
                .cell(e.powerW)
                .cell(static_cast<double>(e.completed))
                .cell(static_cast<double>(e.sloViolations))
                .cell(static_cast<double>(e.queued))
                .cell(e.meanLatencySecs)
                .cell(e.capExceeded ? 1.0 : 0.0);
        }
        csv.endRow();
    }
    if (!opt.jsonPath.empty()) {
        std::ofstream jf(opt.jsonPath);
        if (!jf)
            fatal("cannot open '%s'", opt.jsonPath.c_str());
        cluster::writeClusterJsonReport(ccfg, result, jf);
    }
    if (metrics) {
        std::ostringstream ms;
        metrics->writeJson(ms);
        std::fprintf(stderr, "[metrics] cluster %s\n",
                     ms.str().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.nodes > 0)
        return runCluster(opt);
    SystemConfig cfg = makeConfig(opt);

    PolicyFactory factory;
    try {
        factory = exp::requirePolicyFactory(opt.policy, cfg.numCores,
                                            cfg.gamma, opt.cap);
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }

    std::vector<WorkloadMix> mixes;
    if (opt.mix == "all") {
        mixes = table1Mixes();
    } else {
        mixes.push_back(mixByName(opt.mix));
    }

    std::vector<RunRequest> requests;
    for (const auto &mix : mixes) {
        RunRequest req =
            RunRequest::forMix(cfg, mix).with(factory).withBaseline();
        if (opt.faults.enabled())
            req.withFaults(opt.faults);
        requests.push_back(std::move(req));
    }
    for (size_t i = 0; i < requests.size(); ++i) {
        if (opt.trace.enabled()) {
            TraceSpec spec = opt.trace;
            if (requests.size() > 1) {
                spec.path += '.';
                spec.path += std::to_string(i);
            }
            requests[i].withTrace(spec);
        }
        if (opt.metrics)
            requests[i].withMetrics();
    }

    exp::EngineOptions engineOpts;
    engineOpts.jobs = opt.jobs;
    engineOpts.timeoutSecs = opt.timeoutSecs;
    exp::ExperimentEngine engine(engineOpts);
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);

    std::unique_ptr<CsvWriter> csv;
    if (!opt.csvPath.empty()) {
        csv = std::make_unique<CsvWriter>(opt.csvPath);
        csv->header({"mix", "policy", "scale", "bound", "full_savings",
                     "mem_savings", "cpu_savings", "avg_degradation",
                     "worst_degradation", "energy_j"});
    }

    for (size_t i = 0; i < mixes.size(); ++i) {
        if (outcomes[i].ok)
            printOutcome(opt, cfg, mixes[i], outcomes[i], csv.get());
    }
    if (csv)
        csv->endRow();

    if (!opt.jsonPath.empty()) {
        const exp::RunOutcome *last = nullptr;
        for (const auto &out : outcomes) {
            if (out.ok)
                last = &out;
        }
        if (last) {
            std::ofstream jf(opt.jsonPath);
            if (!jf)
                fatal("cannot open '%s'", opt.jsonPath.c_str());
            writeJsonReport(last->result, &last->vsBaseline, jf);
        }
    }
    exp::appendJsonlReport(outcomes, opt.jsonlPath);

    if (opt.metrics) {
        for (const auto &out : outcomes) {
            if (!out.ok || !out.result.metrics)
                continue;
            std::ostringstream ms;
            out.result.metrics->writeJson(ms);
            std::fprintf(stderr, "[metrics] %s %s %s\n",
                         out.result.mixName.c_str(),
                         out.result.policyName.c_str(),
                         ms.str().c_str());
        }
    }

    return exp::reportFailures(outcomes) == 0 ? 0 : 1;
}
