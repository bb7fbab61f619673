/**
 * @file
 * perfbench: the repository's layered, same-host benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out PATH]
 *
 * One process runs one workload. It warms up once (untimed, one
 * worker, undecorated: the reference digest), then repeats the
 * workload's closed batch for S seconds of host time, checks the
 * ROADMAP kernel pin and reports medians. With --trace 0 the last
 * line carries the end-to-end metrics; with --trace 1 it alternates
 * untraced and traced repetitions, folds the spans into per-layer self
 * times, runs the isolation replays and carries the per-layer metrics.
 * The last line of standard output is always one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <algorithm>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

constexpr int kMinReps = 3;

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

template <typename Map>
std::string
jsonObject(const Map &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        out += (first ? "" : ", ") + jsonStr(k) + ": ";
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     std::string>)
            out += jsonStr(v);
        else
            out += fmt(v);
        first = false;
    }
    return out + "}";
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string m = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        m += (i ? ", " : "") + jsonStr(metrics[i].name)
             + ": {\"value\": " + fmt(metrics[i].value)
             + ", \"unit\": " + jsonStr(metrics[i].unit) + "}";
    }
    m += "}";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                m.c_str());
}

void
checkDigest(Checks &checks, const Rep &rep, std::uint64_t ref,
            const std::string &what)
{
    checks.expect(rep.digest == ref,
                  what + ": simulated results differ from the reference "
                         "repetition (other worker count, undecorated)");
}

/** Values of one key across repetitions. */
template <typename F>
std::vector<double>
collect(const std::vector<Rep> &reps, F f)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(f(r));
    return v;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

/** Whole-string numeric parses; false on trailing junk or overflow. */
bool
parseInt(const char *s, long long &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(s, &end, 10);
    return end != s && *end == '\0' && errno == 0;
}

bool
parseDouble(const char *s, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && errno == 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans-out PATH]\n",
                 msg);
    return 2;
}

void
writeSpans(const std::string &path, const Tracer &tracer)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::vector<Tracer::Span> spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        out << "{\"id\": " << i << ", \"name\": " << jsonStr(s.name)
            << ", \"layer\": " << jsonStr(s.layer)
            << ", \"start_s\": " << fmt(s.start)
            << ", \"end_s\": " << fmt(s.end)
            << ", \"parent\": " << s.parent << ", \"run\": " << s.run
            << "}\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    long long seed = -1;
    double seconds = 0.0;
    int trace = -1;
    std::string spans_out;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        long long n = 0;
        if (a == "--workload")
            workload = v;
        else if (a == "--seed" && parseInt(v, n))
            seed = n;
        else if (a == "--seconds" && parseDouble(v, seconds))
            continue;
        else if (a == "--trace" && parseInt(v, n))
            trace = static_cast<int>(n);
        else if (a == "--spans-out")
            spans_out = v;
        else
            return usage(("bad flag or value: " + a + " " + v).c_str());
    }
    if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1))
        return usage("--seed, --seconds and --trace are required");

    // The engine and cluster fan-outs use at most 4 workers and half
    // of the host's processors, leaving the rest to everything else.
    // Each cluster epoch waits on its slowest worker, so on a shared
    // 4-way host every worker beyond what the other load leaves free
    // stalls the barrier: with 3 workers, phases of outside load
    // spread fleet_capped's wall time and epoch p90 by 26-45% over
    // ten seeds (with 4 workers, same-seed runs already spread 14%).
    unsigned hw = std::thread::hardware_concurrency();
    const int fanout = static_cast<int>(std::clamp(hw / 2, 1u, 4u));

    std::unique_ptr<Workload> w =
        makeWorkload(workload, static_cast<std::uint64_t>(seed));
    if (!w)
        return usage(("unknown workload '" + workload + "'").c_str());
    const int jobs = w->timedJobs(fanout);
    // The reference runs on another worker count than the timed
    // repetitions wherever the host allows two, so the digest check
    // also proves results independent of the worker count.
    const int ref_jobs = jobs > 1 ? 1 : fanout;

    Checks checks;
    std::printf("workload %s seed %lld seconds %g trace %d jobs %d "
                "ref_jobs %d\n",
                workload.c_str(), seed, seconds, trace, jobs, ref_jobs);

    // Untimed warm-up: host caches, page faults, lazy set-up. It runs
    // without the decorator, so its digest is the reference for the
    // decorated repetitions.
    const std::uint64_t ref =
        w->run(ref_jobs, nullptr, false, checks).digest;
    // Memory high-water mark of set-up plus the warm-up batch. Read
    // before the timed repetitions: on several workers their peak
    // depends on which runs happen to overlap and on per-thread
    // allocator arenas, which spread it by 14% between runs of
    // suite_mem.
    const double peak_rss_mb = peakRssMb();

    std::vector<Rep> plain, traced;
    std::vector<double> traced_total;
    Tracer tracer;
    std::vector<std::pair<double, double>> windows;
    double t_start = hostNow();
    while (hostNow() - t_start < seconds
           || plain.size() < static_cast<std::size_t>(kMinReps)
           || (trace && traced.size() < static_cast<std::size_t>(kMinReps))) {
        Rep r = w->run(jobs, nullptr, true, checks);
        checkDigest(checks, r, ref, workload);
        plain.push_back(std::move(r));
        if (trace) {
            tracer.setRun(static_cast<int>(traced.size()));
            double t0 = hostNow();
            Rep t = w->run(jobs, &tracer, true, checks);
            double t1 = hostNow();
            checkDigest(checks, t, ref, workload + " (traced)");
            windows.emplace_back(t0, t1);
            traced_total.push_back(t1 - t0);
            traced.push_back(std::move(t));
        }
    }

    // The kernel pin runs after the timed repetitions, so it moves
    // neither their timings nor the memory high-water mark.
    std::printf("kernel_pin %s\n", jsonObject(kernelPin(checks)).c_str());

    const Rep &first = plain.front();
    std::printf("fingerprint %s\n",
                jsonObject(first.fingerprint).c_str());
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(first.digest));
    std::map<std::string, double> detail = first.detail;
    std::string walls;
    for (const Rep &r : plain)
        walls += (walls.empty() ? "" : ", ") + fmt(r.wallS);
    std::printf("rep_wall_s [%s]\n", walls.c_str());
    detail["reps"] = static_cast<double>(plain.size());
    detail["epoch_samples_per_rep"] =
        static_cast<double>(first.epochMs.size());

    if (!trace) {
        std::vector<Metric> m = {
            {"wall_s", "s", median(collect(plain, [](const Rep &r) {
                 return r.wallS;
             }))},
            {"sim_minstr_per_s", "Minstr/s",
             median(collect(plain, [](const Rep &r) {
                 return r.simInstrs / r.wallS / 1e6;
             }))},
            {"setup_s", "s", median(collect(plain, [](const Rep &r) {
                 return r.setupS;
             }))},
            {"peak_rss_mb", "MB", peak_rss_mb},
            // Each repetition's quantile, then their mean. suite_mem's
            // p90 sits where its light and heavy epochs meet, so one
            // repetition's p90 lands near 18 ms or near 25 ms; a median
            // over repetitions jumps between the two (p90 spread 22%
            // over ten seeds), while the mean follows the share of each.
            {"epoch_ms_p50", "ms", mean(collect(plain, [](const Rep &r) {
                 return quantile(r.epochMs, 0.5);
             }))},
            {"epoch_ms_p90", "ms", mean(collect(plain, [](const Rep &r) {
                 return quantile(r.epochMs, 0.9);
             }))},
            {"energy_nj_per_instr", "nJ", first.njPerInstr},
        };
        std::printf("detail %s\n", jsonObject(detail).c_str());
        printResult(checks, m);
        return 0;
    }

    // --- traced run: self times, overhead, replays --------------------
    std::map<std::string, double> self;
    for (const auto &[t0, t1] : windows) {
        for (const auto &[layer, s] : tracer.selfTimes(t0, t1))
            self[layer] += s / static_cast<double>(windows.size());
    }
    double untraced = median(collect(plain, [](const Rep &r) {
        return r.setupS + r.wallS;
    }));
    // Self times are means over the traced repetitions, so the traced
    // time they are set against is the mean too. Time no span covers
    // is what the layers leave unaccounted: it stays out of the layer
    // sum and shows up in the remainder.
    double traced_mean = 0.0;
    for (double t : traced_total)
        traced_mean += t / static_cast<double>(traced_total.size());
    double overhead = traced_mean - untraced;
    double self_sum = 0.0;
    for (const auto &[layer, s] : self) {
        if (layer != "unspanned")
            self_sum += s;
    }
    std::printf("self_s %s\n", jsonObject(self).c_str());
    std::printf("accounting {\"untraced_s\": %s, \"traced_s\": %s, "
                "\"tracing_overhead_s\": %s, \"self_sum_s\": %s, "
                "\"unaccounted_s\": %s}\n",
                fmt(untraced).c_str(), fmt(traced_mean).c_str(),
                fmt(overhead).c_str(), fmt(self_sum).c_str(),
                fmt(untraced - (self_sum - overhead)).c_str());
    if (!spans_out.empty())
        writeSpans(spans_out, tracer);

    LayerReport legs = runLayerLegs(w->legSpec(), checks);
    std::map<std::string, double> lm = legs.metrics;
    const Rep &tr = traced.front();
    for (const char *k : {"engine.runs", "engine.attempts",
                          "cluster.node_epochs", "cluster.rerouted"}) {
        auto it = tr.layer.find(k);
        lm[k] = it == tr.layer.end() ? 0.0 : it->second;
    }
    if (tr.samples.count("policy.decide_us")) {
        const std::vector<double> &us = tr.samples.at("policy.decide_us");
        lm["policy.decide_us_p50"] = quantile(us, 0.5);
        lm["policy.decide_us_p90"] = quantile(us, 0.9);
        lm["policy.decides"] = tr.layer.at("policy.decides");
        lm["policy.candidates"] = tr.layer.at("policy.candidates");
    }
    if (tr.samples.count("model.power_err_pct"))
        lm["model.power_err_pct_p50"] =
            median(tr.samples.at("model.power_err_pct"));
    if (tr.layer.count("sim.events")) {
        checks.expect(tr.layer.at("sim.events") == lm["sim.events"],
                      workload + ": sim leg events differ from the run");
    }
    for (const auto &[k, v] : tr.detail)
        detail[k] = v;
    for (const auto &[k, v] : legs.detail)
        detail[k] = v;
    std::printf("detail %s\n", jsonObject(detail).c_str());

    // The sim layer's time split by the replays: each replay does the
    // sim leg's own work count, so its time over the leg's
    // System::run time is that layer's share.
    std::map<std::string, double> split;
    double leg_run = legs.replayS["sim"];
    double inner = 0.0;
    for (const char *k : {"trace", "llc", "memctrl", "eventq"}) {
        split[k] = ratio(legs.replayS[k], leg_run);
        inner += split[k];
    }
    split["core_and_dispatch"] = 1.0 - inner;
    std::printf("sim_split_frac %s\n", jsonObject(split).c_str());

    static const std::vector<std::pair<std::string, std::string>> kLayer = {
        {"sim.ns_per_event", "ns"}, {"sim.events", "count"},
        {"sim.run_ms_per_epoch_p50", "ms"}, {"sim.setup_ms", "ms"},
        {"sim.copy_ms", "ms"}, {"trace.ns_per_record", "ns"},
        {"trace.records", "count"}, {"llc.ns_per_access", "ns"},
        {"llc.ns_per_access_ways", "ns"}, {"llc.accesses", "count"},
        {"llc.hit_frac", "frac"}, {"llc.writebacks", "count"},
        {"memctrl.ns_per_req", "ns"}, {"dram.reads", "count"},
        {"dram.writes", "count"}, {"dram.row_hit_frac", "frac"},
        {"dram.queue_len_mean", "count"}, {"eventq.ns_per_op", "ns"},
        {"policy.decide_us_p50", "us"}, {"policy.decide_us_p90", "us"},
        {"policy.decides", "count"}, {"policy.candidates", "count"},
        {"model.profile_us", "us"}, {"model.power_err_pct_p50", "%"},
        {"engine.runs", "count"}, {"engine.attempts", "count"},
        {"cluster.node_epochs", "count"}, {"cluster.rerouted", "count"},
    };
    std::vector<Metric> m;
    for (const auto &[name, unit] : kLayer) {
        checks.expect(lm.count(name) == 1,
                      workload + ": per-layer metric " + name + " missing");
        m.push_back({name, unit, lm[name]});
    }
    printResult(checks, m);
    return 0;
}
