#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

const Clock::time_point processOrigin = Clock::now();

std::uint64_t
threadKey()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

} // namespace

double
hostNow()
{
    return secondsSince(processOrigin);
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
Checks::expect(bool ok, const std::string &what)
{
    nAttempted += 1;
    if (!ok) {
        nFailed += 1;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
}

int
Tracer::begin(const std::string &name, const std::string &layer,
              int parent)
{
    double t = hostNow();
    std::lock_guard<std::mutex> lock(mu);
    std::vector<int> &stack = stacks[threadKey()];
    Span s;
    s.name = name;
    s.layer = layer;
    s.start = t;
    s.end = t;
    s.parent = parent >= 0 ? parent : (stack.empty() ? -1 : stack.back());
    s.run = runId;
    int id = static_cast<int>(recorded.size());
    recorded.push_back(std::move(s));
    stack.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    double t = hostNow();
    std::lock_guard<std::mutex> lock(mu);
    recorded[static_cast<std::size_t>(id)].end = t;
    std::vector<int> &stack = stacks[threadKey()];
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

void
Tracer::setRun(int run)
{
    std::lock_guard<std::mutex> lock(mu);
    runId = run;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recorded;
}

std::map<std::string, double>
Tracer::selfTimes(double t0, double t1) const
{
    std::vector<Span> all = spans();
    // Sweep over span boundaries. Each boundary event opens or closes
    // one span; between events the open leaves (open spans without an
    // open child) share the elapsed time equally.
    struct Ev
    {
        double t;
        int open; // 1 = open, 0 = close (closes sort first)
        int id;
    };
    std::vector<Ev> evs;
    evs.reserve(all.size() * 2);
    for (std::size_t i = 0; i < all.size(); ++i) {
        double s = std::max(all[i].start, t0);
        double e = std::min(all[i].end, t1);
        if (e <= s)
            continue;
        evs.push_back({s, 1, static_cast<int>(i)});
        evs.push_back({e, 0, static_cast<int>(i)});
    }
    std::sort(evs.begin(), evs.end(), [](const Ev &a, const Ev &b) {
        if (a.t != b.t)
            return a.t < b.t;
        return a.open < b.open;
    });

    std::map<std::string, double> self;
    std::vector<int> openKids(all.size(), 0);
    std::vector<char> isOpen(all.size(), 0);
    std::vector<int> openList;
    double prev = t0;
    auto credit = [&](double upto) {
        double dt = upto - prev;
        if (dt <= 0.0)
            return;
        std::vector<int> leaves;
        for (int id : openList) {
            if (openKids[static_cast<std::size_t>(id)] == 0)
                leaves.push_back(id);
        }
        if (leaves.empty()) {
            self["unspanned"] += dt;
        } else {
            double share = dt / static_cast<double>(leaves.size());
            for (int id : leaves)
                self[all[static_cast<std::size_t>(id)].layer] += share;
        }
    };
    for (const Ev &ev : evs) {
        credit(ev.t);
        prev = ev.t;
        std::size_t id = static_cast<std::size_t>(ev.id);
        int parent = all[id].parent;
        // A parent clipped out of the window does not count as open.
        bool parentOpen =
            parent >= 0 && isOpen[static_cast<std::size_t>(parent)];
        if (ev.open) {
            isOpen[id] = 1;
            openList.push_back(ev.id);
            if (parentOpen)
                openKids[static_cast<std::size_t>(parent)] += 1;
        } else {
            isOpen[id] = 0;
            openList.erase(
                std::find(openList.begin(), openList.end(), ev.id));
            if (parentOpen)
                openKids[static_cast<std::size_t>(parent)] -= 1;
        }
    }
    credit(t1);
    return self;
}

TimedPolicy::TimedPolicy(std::unique_ptr<coscale::Policy> inner_,
                         PolicyLog *log_, Tracer *tracer_,
                         int parent_span)
    : inner(std::move(inner_)), log(log_), tracer(tracer_),
      runSpan(tracer_ ? tracer_->begin("run", "sim", parent_span) : -1)
{
}

TimedPolicy::~TimedPolicy()
{
    if (tracer)
        tracer->end(runSpan);
}

coscale::FreqConfig
TimedPolicy::decide(const coscale::SystemProfile &profile,
                    const coscale::EnergyModel &em,
                    const coscale::FreqConfig &current,
                    coscale::Tick epoch_len)
{
    // attachObs/setObsTick are not virtual: hand the runner's sinks on
    // so the inner policy's search counters still land in the run's
    // metrics registry.
    inner->attachObs(obsSink, obsMetrics);
    inner->setObsTick(obsTick);
    ScopedSpan span(tracer, "decide", "policy", runSpan);
    Clock::time_point t0 = Clock::now();
    coscale::FreqConfig d = inner->decide(profile, em, current, epoch_len);
    log->decideUs.push_back(secondsSince(t0) * 1e6);
    return d;
}

void
TimedPolicy::observeEpoch(const coscale::EpochObservation &obs,
                          const coscale::EnergyModel &em)
{
    inner->observeEpoch(obs, em);
    log->epochEnds.push_back(hostNow());
}

coscale::PolicyFactory
timedFactory(coscale::PolicyFactory factory, PolicyLog *log,
             Tracer *tracer, int parent_span)
{
    return [factory = std::move(factory), log, tracer, parent_span]() {
        return std::make_unique<TimedPolicy>(factory(), log, tracer,
                                             parent_span);
    };
}

void
addRunResult(coscale::exp::Digest &d, const coscale::RunResult &r)
{
    d.add(r.mixName);
    d.add(r.policyName);
    d.add(static_cast<std::uint64_t>(r.finishTick));
    for (coscale::Tick t : r.appCompletion)
        d.add(static_cast<std::uint64_t>(t));
    d.add(r.cpuEnergyJ);
    d.add(r.memEnergyJ);
    d.add(r.otherEnergyJ);
    d.add(r.totalInstrs);
    d.add(r.dramReads);
    d.add(r.dramPrefetches);
    d.add(r.dramWrites);
    d.add(static_cast<std::uint64_t>(r.epochs.size()));
    for (const coscale::EpochLog &e : r.epochs) {
        d.add(static_cast<std::uint64_t>(e.startTick));
        d.add(e.applied.memIdx);
        for (int c : e.applied.coreIdx)
            d.add(c);
        for (int w : e.applied.wayIdx)
            d.add(w);
        d.add(e.avgPower.totalW());
    }
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

} // namespace perfbench
