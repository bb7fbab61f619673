/**
 * @file
 * Shared pieces of the layered benchmark: host clocks, statistics,
 * correctness-check tallies, the span recorder used by traced runs,
 * and the policy decorator that times decide() and epoch boundaries
 * from outside the simulator.
 *
 * Everything here measures host time. Simulated results come from
 * the simulator's own public counters and never depend on these
 * timers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/digest.hh"
#include "policy/policy.hh"
#include "sim/runner.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host seconds since the benchmark process started. */
double hostNow();

/** @p part / @p whole, or 0 when @p whole is not positive. */
inline double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** A double with all its significant digits ("%.17g"). */
std::string fmt(double v);

/** Quantile by linear interpolation (q in [0, 1]); 0 for no data. */
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Pass/fail tally of the benchmark's correctness checks. */
class Checks
{
  public:
    /** Record one check; a failure prints @p what to stderr. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }

  private:
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
};

/**
 * Span recorder for traced runs. A span is one call from the
 * benchmark into a layer's public function: name, layer, start, end,
 * parent span and run id. Spans are kept in memory; main() writes
 * them out and folds them into per-layer self times when the run
 * ends. A null Tracer pointer means tracing is off.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        double start = 0.0; //!< hostNow() seconds
        double end = 0.0;
        int parent = -1;    //!< index of the enclosing span, -1 = root
        int run = 0;        //!< timed repetition the span belongs to
    };

    /** Open a span on the calling thread; returns its id. */
    int begin(const std::string &name, const std::string &layer,
              int parent = -1);
    void end(int id);

    /** Run id stamped on spans opened from now on. */
    void setRun(int run);

    std::vector<Span> spans() const;

    /**
     * Wall-clock self time per layer over [t0, t1] (hostNow seconds).
     * At every instant the time is shared equally among the spans
     * that are open and have no open child, so layers running on
     * several threads at once split the wall time between them and
     * the shares sum to the covered wall time. Time inside the
     * window that no span covers is returned under "unspanned".
     */
    std::map<std::string, double> selfTimes(double t0,
                                            double t1) const;

  private:
    mutable std::mutex mu;
    std::vector<Span> recorded;
    std::map<std::uint64_t, std::vector<int>> stacks; //!< per thread
    int runId = 0;
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const std::string &name,
               const std::string &layer, int parent = -1)
        : tracer(t), id(t ? t->begin(name, layer, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer)
            tracer->end(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int spanId() const { return id; }

  private:
    Tracer *tracer;
    int id;
};

/**
 * What one decorated policy saw during its run: host timestamps of
 * every epoch boundary (observeEpoch) and the host duration of every
 * decide() call. Owned by the benchmark, one per request, so runs on
 * different engine workers never share one.
 */
struct PolicyLog
{
    std::vector<double> epochEnds; //!< hostNow() seconds
    std::vector<double> decideUs;
};

/**
 * A Policy that forwards every call to the wrapped policy and records
 * host timings into a PolicyLog. It changes no decision: the runner's
 * guards (safeDecide) run on the decorator and reach the inner policy
 * through the forwarded virtuals, and observability sinks are handed
 * on before each decision. The benchmark checks that decorated and
 * undecorated batches produce identical result digests.
 */
class TimedPolicy final : public coscale::Policy
{
  public:
    TimedPolicy(std::unique_ptr<coscale::Policy> inner, PolicyLog *log,
                Tracer *tracer, int parent_span);
    ~TimedPolicy() override;

    std::string name() const override { return inner->name(); }

    coscale::FreqConfig decide(const coscale::SystemProfile &profile,
                               const coscale::EnergyModel &em,
                               const coscale::FreqConfig &current,
                               coscale::Tick epoch_len) override;

    void
    observeEpoch(const coscale::EpochObservation &obs,
                 const coscale::EnergyModel &em) override;

    bool wantsOracleProfile() const override
    {
        return inner->wantsOracleProfile();
    }
    double slackGamma() const override { return inner->slackGamma(); }
    const coscale::SlackTracker *slackLedger() const override
    {
        return inner->slackLedger();
    }
    void setPowerCap(double w) override { inner->setPowerCap(w); }

  private:
    std::unique_ptr<coscale::Policy> inner;
    PolicyLog *log;
    Tracer *tracer;
    int runSpan;                //!< "run" span of this request, or -1
};

/**
 * Wrap @p factory so every policy it makes is a TimedPolicy logging
 * into @p log. With a tracer, the policy's lifetime (the whole run()
 * of the request) is one "sim" span parented to @p parent_span, and
 * each decide() a "policy" span under it.
 */
coscale::PolicyFactory timedFactory(coscale::PolicyFactory factory,
                                    PolicyLog *log, Tracer *tracer,
                                    int parent_span);

/** exp/digest-style digest of everything simulated in a run. */
void addRunResult(coscale::exp::Digest &d,
                  const coscale::RunResult &r);

/** Host memory high-water mark of this process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
