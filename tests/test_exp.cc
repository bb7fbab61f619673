/**
 * @file
 * Tests for the parallel experiment engine: determinism (parallel
 * batches bit-identical to serial, including the emitted JSON),
 * baseline memoization accounting, failure isolation, borrowed-policy
 * rejection, worker-count resolution, and policy-name resolution
 * (including the helpful rejection of unknown names).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/bench_options.hh"
#include "exp/digest.hh"
#include "exp/engine.hh"
#include "exp/policies.hh"
#include "exp/report.hh"
#include "policy/coscale_policy.hh"
#include "policy/simple_policies.hh"
#include "sim/runner.hh"

namespace coscale {
namespace {

SystemConfig
smallConfig(double scale = 0.05)
{
    return makeScaledConfig(scale);
}

std::string
jsonOf(const RunResult &r)
{
    std::ostringstream os;
    writeJsonReport(r, nullptr, os);
    return os.str();
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.finishTick, b.finishTick);
    EXPECT_EQ(a.appCompletion, b.appCompletion);
    EXPECT_EQ(a.cpuEnergyJ, b.cpuEnergyJ);
    EXPECT_EQ(a.memEnergyJ, b.memEnergyJ);
    EXPECT_EQ(a.otherEnergyJ, b.otherEnergyJ);
    EXPECT_EQ(a.epochs.size(), b.epochs.size());
    EXPECT_EQ(a.totalInstrs, b.totalInstrs);
    EXPECT_EQ(a.measuredMpki, b.measuredMpki);
    EXPECT_EQ(a.measuredWpki, b.measuredWpki);
    // Byte-identical machine-readable reports, not just equal fields.
    EXPECT_EQ(jsonOf(a), jsonOf(b));
}

std::vector<RunRequest>
matrixRequests(const SystemConfig &cfg)
{
    std::vector<RunRequest> requests;
    for (const char *mix : {"ILP2", "MID3", "MEM1", "MIX2"}) {
        for (const char *pol : {"MemScale", "CoScale", "CPUOnly"}) {
            requests.push_back(
                RunRequest::forMix(cfg, mixByName(mix))
                    .with(exp::policyFactoryByName(pol, cfg.numCores,
                                                   cfg.gamma)));
        }
    }
    return requests;
}

TEST(ExperimentEngine, ParallelBatchBitIdenticalToSerial)
{
    SystemConfig cfg = smallConfig();
    std::vector<RunRequest> requests = matrixRequests(cfg);

    exp::EngineOptions serialOpts;
    serialOpts.jobs = 1;
    exp::ExperimentEngine serial(serialOpts);
    std::vector<exp::RunOutcome> ser = serial.run(requests);

    exp::EngineOptions parOpts;
    parOpts.jobs = 4;
    exp::ExperimentEngine parallel(parOpts);
    std::vector<exp::RunOutcome> par = parallel.run(requests);

    ASSERT_EQ(ser.size(), requests.size());
    ASSERT_EQ(par.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(ser[i].ok) << ser[i].error;
        ASSERT_TRUE(par[i].ok) << par[i].error;
        EXPECT_EQ(ser[i].index, i);
        EXPECT_EQ(par[i].index, i);
        expectIdentical(ser[i].result, par[i].result);
    }
}

TEST(ExperimentEngine, FaultedRunsBitIdenticalAcrossWorkerCounts)
{
    // Re-pin the bit-identical-under---jobs-N contract for the
    // event-driven kernel with fault injection in the loop: faulted
    // decisions hash (seed, epoch, stream), so worker interleaving
    // must not leak into the event stream either.
    SystemConfig cfg = smallConfig();
    fault::FaultPlan plan;
    plan.counterNoiseAmp = 0.05;
    plan.counterNoiseProb = 0.25;
    plan.transitionDenyProb = 0.4;

    std::vector<RunRequest> requests;
    for (const char *mix : {"MID3", "MEM1"}) {
        requests.push_back(
            RunRequest::forMix(cfg, mixByName(mix))
                .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                               cfg.gamma)));
        requests.push_back(
            RunRequest::forMix(cfg, mixByName(mix))
                .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                               cfg.gamma))
                .withFaults(plan));
    }

    exp::EngineOptions serialOpts;
    serialOpts.jobs = 1;
    exp::ExperimentEngine serial(serialOpts);
    std::vector<exp::RunOutcome> ser = serial.run(requests);

    exp::EngineOptions parOpts;
    parOpts.jobs = 4;
    exp::ExperimentEngine parallel(parOpts);
    std::vector<exp::RunOutcome> par = parallel.run(requests);

    ASSERT_EQ(ser.size(), requests.size());
    ASSERT_EQ(par.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(ser[i].ok) << ser[i].error;
        ASSERT_TRUE(par[i].ok) << par[i].error;
        expectIdentical(ser[i].result, par[i].result);
        EXPECT_EQ(ser[i].result.faults.transitionsDenied,
                  par[i].result.faults.transitionsDenied);
        EXPECT_EQ(ser[i].result.faults.noisyEpochs,
                  par[i].result.faults.noisyEpochs);
    }
    // The faulted requests must actually have injected something.
    EXPECT_GE(ser[1].result.faults.transitionsDenied
                  + ser[1].result.faults.noisyEpochs,
              1u);
}

TEST(ExperimentEngine, OutcomesStayInRequestOrder)
{
    SystemConfig cfg = smallConfig();
    std::vector<RunRequest> requests = matrixRequests(cfg);
    exp::EngineOptions opts;
    opts.jobs = 3;
    exp::ExperimentEngine engine(opts);
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok);
        EXPECT_EQ(outcomes[i].result.mixName, requests[i].label);
    }
}

TEST(BaselinePool, MemoizesByConfigAndWorkload)
{
    SystemConfig cfg = smallConfig();
    exp::BaselinePool pool;
    exp::EngineOptions opts;
    opts.jobs = 1;
    opts.pool = &pool;
    exp::ExperimentEngine engine(opts);

    auto request = [&](const char *mix) {
        return RunRequest::forMix(cfg, mixByName(mix))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma))
            .withBaseline();
    };

    exp::RunOutcome first = engine.runOne(request("MID3"));
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.size(), 1u);

    // Same config digest + workload digest -> a hit, and the same
    // memoized RunResult object.
    exp::RunOutcome second = engine.runOne(request("MID3"));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(first.baseline, second.baseline);

    // A different mix is a different key.
    exp::RunOutcome third = engine.runOne(request("ILP2"));
    ASSERT_TRUE(third.ok) << third.error;
    EXPECT_EQ(pool.misses(), 2u);
    EXPECT_EQ(pool.size(), 2u);

    // A different config is a different key even for the same mix.
    SystemConfig other = cfg;
    other.gamma = cfg.gamma / 2.0;
    exp::RunOutcome fourth = engine.runOne(
        RunRequest::forMix(other, mixByName("MID3"))
            .with(exp::policyFactoryByName("CoScale", other.numCores,
                                           other.gamma))
            .withBaseline());
    ASSERT_TRUE(fourth.ok) << fourth.error;
    EXPECT_EQ(pool.misses(), 3u);
}

TEST(BaselinePool, SharedAcrossParallelBatch)
{
    SystemConfig cfg = smallConfig();
    exp::BaselinePool pool;
    exp::EngineOptions opts;
    opts.jobs = 4;
    opts.pool = &pool;
    exp::ExperimentEngine engine(opts);

    std::vector<RunRequest> requests;
    for (const char *pol : {"MemScale", "CoScale", "CPUOnly",
                            "Uncoordinated"}) {
        requests.push_back(
            RunRequest::forMix(cfg, mixByName("MID1"))
                .with(exp::policyFactoryByName(pol, cfg.numCores,
                                               cfg.gamma))
                .withBaseline());
    }
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);
    for (const auto &out : outcomes) {
        ASSERT_TRUE(out.ok) << out.error;
        ASSERT_TRUE(out.hasBaseline);
        EXPECT_EQ(out.baseline, outcomes[0].baseline);
    }
    // One baseline computed no matter how many workers raced for it.
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 3u);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ExperimentEngine, ThrowingWorkerPoisonsOnlyItsRequest)
{
    SystemConfig cfg = smallConfig();
    std::vector<RunRequest> requests;
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("ILP2"))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma)));
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("MID2"))
            .with([]() -> std::unique_ptr<Policy> {
                throw std::runtime_error("deliberate factory failure");
            }));
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("MEM2"))
            .with(exp::policyFactoryByName("MemScale", cfg.numCores,
                                           cfg.gamma)));

    exp::EngineOptions opts;
    opts.jobs = 3;
    exp::ExperimentEngine engine(opts);
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);

    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("deliberate factory failure"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;

    // The JSONL report accounts for every request, pass or fail.
    std::ostringstream os;
    exp::writeJsonlReport(outcomes, os);
    std::string report = os.str();
    size_t lines = 0;
    for (char ch : report)
        lines += ch == '\n' ? 1 : 0;
    EXPECT_EQ(lines, outcomes.size());
    EXPECT_NE(report.find("deliberate factory failure"),
              std::string::npos);
}

TEST(ExperimentEngine, RejectsBorrowedPolicies)
{
    SystemConfig cfg = smallConfig();
    CoScalePolicy policy(cfg.numCores, cfg.gamma);
    exp::EngineOptions opts;
    opts.jobs = 1;
    exp::ExperimentEngine engine(opts);
    exp::RunOutcome out = engine.runOne(
        RunRequest::forMix(cfg, mixByName("MID3")).with(policy));
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("factory"), std::string::npos);
}

TEST(ExperimentEngine, ResolveJobsPrecedence)
{
    EXPECT_EQ(exp::resolveJobs(7), 7);

    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test; no engine running
    ASSERT_EQ(setenv("COSCALE_JOBS", "3", 1), 0);
    EXPECT_EQ(exp::resolveJobs(0), 3);
    EXPECT_EQ(exp::resolveJobs(5), 5);

    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test; no engine running
    ASSERT_EQ(unsetenv("COSCALE_JOBS"), 0);
    EXPECT_GE(exp::resolveJobs(0), 1);
}

TEST(BenchOptions, ParsesSharedFlags)
{
    const char *argv[] = {"prog",   "--scale",    "0.25", "--jobs",
                          "2",      "--jsonl",    "x.jsonl",
                          "--progress", "--timeout", "2.5"};
    exp::BenchOptions opts = exp::parseBenchArgs(10,
        const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(opts.scale, 0.25);
    EXPECT_EQ(opts.jobs, 2);
    EXPECT_EQ(opts.jsonlPath, "x.jsonl");
    EXPECT_TRUE(opts.progress);
    EXPECT_DOUBLE_EQ(opts.timeoutSecs, 2.5);

    const char *legacy[] = {"prog", "0.5"};
    exp::BenchOptions pos = exp::parseBenchArgs(2,
        const_cast<char **>(legacy), 0.1);
    EXPECT_DOUBLE_EQ(pos.scale, 0.5);

    const char *none[] = {"prog"};
    exp::BenchOptions def = exp::parseBenchArgs(1,
        const_cast<char **>(none), 0.2);
    EXPECT_DOUBLE_EQ(def.scale, 0.2);
}

TEST(BenchOptions, RejectsMalformedTimeout)
{
    // A negative or non-numeric budget must not silently disable the
    // watchdog.
    const char *negative[] = {"prog", "--timeout", "-1"};
    EXPECT_EXIT(exp::parseBenchArgs(3, const_cast<char **>(negative)),
                ::testing::ExitedWithCode(1), "--timeout must be");
    const char *garbage[] = {"prog", "--timeout", "abc"};
    EXPECT_EXIT(exp::parseBenchArgs(3, const_cast<char **>(garbage)),
                ::testing::ExitedWithCode(1), "--timeout must be");
}

TEST(BenchOptions, RejectsTrailingCharactersInNumbers)
{
    // atoi/atof would read these as 2 jobs and scale 0.5.
    const char *jobs[] = {"prog", "--jobs", "2x"};
    EXPECT_EXIT(exp::parseBenchArgs(3, const_cast<char **>(jobs)),
                ::testing::ExitedWithCode(1), "--jobs must be");
    const char *scale[] = {"prog", "--scale", "0.5x"};
    EXPECT_EXIT(exp::parseBenchArgs(3, const_cast<char **>(scale)),
                ::testing::ExitedWithCode(1), "--scale must be");
}

TEST(Digest, SensitiveToEveryRelevantKnob)
{
    SystemConfig cfg = smallConfig();
    std::uint64_t base = exp::configDigest(cfg);

    SystemConfig changed = cfg;
    changed.gamma *= 2.0;
    EXPECT_NE(exp::configDigest(changed), base);

    changed = cfg;
    changed.seed += 1;
    EXPECT_NE(exp::configDigest(changed), base);

    changed = cfg;
    changed.llc.prefetchNextLine = !changed.llc.prefetchNextLine;
    EXPECT_NE(exp::configDigest(changed), base);

    changed = cfg;
    changed.power.mem.memPowerMultiplier *= 2.0;
    EXPECT_NE(exp::configDigest(changed), base);

    EXPECT_EQ(exp::configDigest(cfg), base);

    std::vector<AppSpec> a =
        expandMix(mixByName("MID1"), cfg.numCores, cfg.instrBudget);
    std::vector<AppSpec> b =
        expandMix(mixByName("MID2"), cfg.numCores, cfg.instrBudget);
    EXPECT_NE(exp::workloadDigest(a), exp::workloadDigest(b));
    EXPECT_EQ(exp::workloadDigest(a), exp::workloadDigest(a));
}

TEST(PolicyFactories, KnowsPaperAndCliNames)
{
    SystemConfig cfg = smallConfig();
    ASSERT_EQ(exp::paperPolicyNames().size(), 6u);
    for (const std::string &name : exp::paperPolicyNames()) {
        PolicyFactory f =
            exp::policyFactoryByName(name, cfg.numCores, cfg.gamma);
        ASSERT_TRUE(static_cast<bool>(f)) << name;
        EXPECT_NE(f(), nullptr) << name;
    }
    for (const char *name : {"baseline", "reactive", "semi-alt",
                             "coscale-chipwide", "multiscale",
                             "powercap"}) {
        PolicyFactory f =
            exp::policyFactoryByName(name, cfg.numCores, cfg.gamma);
        ASSERT_TRUE(static_cast<bool>(f)) << name;
        EXPECT_NE(f(), nullptr) << name;
    }
    // Fresh instance per call, never a shared one.
    PolicyFactory f =
        exp::policyFactoryByName("CoScale", cfg.numCores, cfg.gamma);
    EXPECT_NE(f().get(), f().get());
    EXPECT_FALSE(static_cast<bool>(
        exp::policyFactoryByName("nonsense", cfg.numCores, cfg.gamma)));
}

TEST(PolicyFactories, RejectsUnknownNamesWithValidList)
{
    SystemConfig cfg = smallConfig();
    try {
        exp::requirePolicyFactory("nonsense", cfg.numCores, cfg.gamma);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        // Names the offending spelling and every valid one.
        EXPECT_NE(msg.find("nonsense"), std::string::npos) << msg;
        for (const std::string &name : exp::knownPolicyNames())
            EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
    // Known names resolve to working factories through the same path.
    PolicyFactory f =
        exp::requirePolicyFactory("coscale", cfg.numCores, cfg.gamma);
    ASSERT_TRUE(static_cast<bool>(f));
    EXPECT_NE(f(), nullptr);
}

TEST(ExperimentEngine, RecordsPerRunWallTime)
{
    SystemConfig cfg = smallConfig();
    exp::EngineOptions opts;
    opts.jobs = 1;
    exp::ExperimentEngine engine(opts);
    exp::RunOutcome out = engine.runOne(
        RunRequest::forMix(cfg, mixByName("MID3"))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma))
            .withMetrics());
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_GT(out.wallSecs, 0.0);
    // The wall time also lands in the run's metrics registry (and
    // only there — JSON reports stay deterministic).
    ASSERT_NE(out.result.metrics, nullptr);
    EXPECT_GT(out.result.metrics->gauge("engine.wall_secs").value(),
              0.0);
    EXPECT_EQ(jsonOf(out.result).find("wall"), std::string::npos);
}

TEST(ExperimentEngine, FailuresCarryRequestAndExceptionContext)
{
    SystemConfig cfg = smallConfig();
    exp::EngineOptions opts;
    opts.jobs = 1;
    exp::ExperimentEngine engine(opts);
    auto calls = std::make_shared<std::atomic<int>>(0);
    RunRequest failing =
        RunRequest::forMix(cfg, mixByName("MID2"))
            .with([calls]() -> std::unique_ptr<Policy> {
                calls->fetch_add(1);
                throw std::runtime_error("deliberate factory failure");
            });
    exp::RunOutcome out = engine.runOne(failing);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.attempts, 1);
    // Which request, which exception type, and what it said — enough
    // to triage a 200-run batch from the JSONL alone.
    EXPECT_NE(out.error.find("request 'MID2'"), std::string::npos)
        << out.error;
    EXPECT_NE(out.error.find("runtime_error"), std::string::npos)
        << out.error;
    EXPECT_NE(out.error.find("deliberate factory failure"),
              std::string::npos)
        << out.error;
    // The stderr failure digest counts it too.
    EXPECT_EQ(exp::reportFailures({out}), 1u);

    // Failures are not remembered: every resubmission of a failing
    // request runs once more and fails the same way, never refused.
    for (int i = 0; i < 3; ++i) {
        exp::RunOutcome again = engine.runOne(failing);
        EXPECT_FALSE(again.ok);
        EXPECT_EQ(again.attempts, 1);
        EXPECT_EQ(again.error, out.error);
    }
    EXPECT_EQ(calls->load(), 4);

    // And an empty batch is a clean no-op, not an edge case.
    exp::ExperimentEngine empty{exp::EngineOptions{}};
    EXPECT_TRUE(empty.run({}).empty());
}

/** Cooperative hang: each decision burns ~200 ms of host time. */
class SlowPolicy final : public Policy
{
  public:
    std::string name() const override { return "Slow"; }

    FreqConfig
    decide(const SystemProfile &profile, const EnergyModel &,
           const FreqConfig &current, Tick) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        (void)profile;
        return current;
    }

    void observeEpoch(const EpochObservation &,
                      const EnergyModel &) override
    {
    }
};

TEST(ExperimentEngine, WatchdogCancelsHungRunAndBatchCompletes)
{
    // The watchdog budget covers every request in the batch, so the
    // healthy run must be far under it and the hung one far over:
    // a scale-0.02 2-core run finishes in ~10 ms of host time and
    // ~10 epochs, while SlowPolicy burns 200 ms per epoch.
    SystemConfig cfg = smallConfig(0.02);
    cfg.numCores = 2;
    std::vector<RunRequest> requests;
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("MID2"))
            .with([]() -> std::unique_ptr<Policy> {
                return std::make_unique<SlowPolicy>();
            }));
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("ILP2"))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma)));

    exp::EngineOptions opts;
    opts.jobs = 2;
    opts.timeoutSecs = 0.5;
    exp::ExperimentEngine engine(opts);
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);

    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].timedOut);
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_NE(outcomes[0].error.find("watchdog"), std::string::npos)
        << outcomes[0].error;
    // A hung neighbor must not take the batch down with it.
    EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;

    std::ostringstream os;
    exp::writeJsonlReport(outcomes, os);
    EXPECT_NE(os.str().find("\"timed_out\":true"), std::string::npos);
}

} // namespace
} // namespace coscale
