/**
 * @file
 * c4cam_bench: the C4CAM benchmark.
 *
 *   c4cam_bench --workload NAME [--seed N] [--seconds S] [--smoke]
 *               [--trace FILE] [--json-out FILE]
 *   c4cam_bench --compare A.json B.json [--bounds BENCHMARK.json]
 *
 * One workload per process, so peak_rss_mb describes that workload
 * alone. The seed (default 1) drives every generated input; the
 * library only ever sees the generated inputs. Every answer is checked
 * against an independent host reference and a wrong answer makes the
 * run exit 1.
 *
 * Untraced, a run builds the stack for two seconds and at least 21
 * times (the PlanCache is cleared first so compile is paid; setup_s is
 * the median build of the best quarter-second slot), runs 200 untimed
 * warm-up queries, then measures for --seconds (default 10) in 24
 * segments, each with all of the process's threads on one CPU (see
 * CpuRotation), and prints the end-to-end metrics of the best segment
 * (see PhaseSummary). With --trace FILE it instead
 * measures half the time untraced and then up to 2000 operations on a
 * traced stack, times each layer's public entry points (see Probes.h),
 * prints the per-layer metrics, and writes every span as one
 * c4cam-trace-v1 document to FILE. The simulated figures and the error
 * rate of the traced half must equal the untraced half exactly.
 *
 * Every metric prints as "name value unit"; the last line of standard
 * output is one JSON object {"correct", "attempted", "failed",
 * "metrics"}. --json-out FILE appends the run to the JSON array in
 * FILE (created when missing), the input of --compare.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "Compare.h"
#include "Harness.h"
#include "Probes.h"
#include "TraceSummary.h"
#include "Workload.h"
#include "core/PlanCache.h"
#include "support/CliParse.h"
#include "support/Json.h"
#include "support/Trace.h"

using namespace c4cam;
using namespace c4cam::bench;

namespace {

/** Operations the traced half records at most: enough for a p99 of
 *  the stage durations, small enough to export in memory. */
constexpr std::size_t kTracedOps = 2000;

/** Segments of a measured phase, each on one CPU (see CpuRotation): a
 *  multiple of 2, 3 and 4, so every CPU of a small host gets as many. */
constexpr double kSegments = 24.0;

/** How long set-up builds stay on one CPU: a slot. */
constexpr double kSetupRotationS = 0.25;

/** Share metrics every traced run prints (0 when a workload's
 *  operations never pass through that stage). */
const char *const kStageShares[] = {
    "core.admit",          "core.enqueue-wait",    "core.dispatch",
    "core.execute",        "core.merge",           "core.deliver",
    "core.scatter",        "core.shard-merge",     "runtime.plan-replay",
    "frontend.parse",      "passes.lower",         "runtime.plan-compile",
    "runtime.kernel-run",  "apps.run-tree"};

struct Options
{
    std::string workload;
    RunConfig config;
    double seconds = 10.0;
    bool secondsSet = false;
    std::string traceFile;
    std::string jsonOut;
};

/** What the last output line reports. */
struct Outcome
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    bool correct = true;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: c4cam_bench --workload NAME [--seed N] "
                 "[--seconds S] [--smoke] [--trace FILE] "
                 "[--json-out FILE]\n"
                 "       c4cam_bench --compare A.json B.json "
                 "[--bounds BENCHMARK.json]\n"
                 "workloads:");
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

double
errorRate(const OpStats &s)
{
    return s.attempted() > 0
               ? static_cast<double>(s.failed() + s.wrong) /
                     static_cast<double>(s.attempted())
               : 0.0;
}

std::size_t
warmUpOps(const Workload &w, bool smoke)
{
    const double queries = smoke ? 20.0 : 200.0;
    return static_cast<std::size_t>(std::ceil(queries / w.queriesPerOp()));
}

void
reportSim(const SimFigures &sim, MetricSet &m)
{
    m.set("sim_latency_ns", sim.latencyNs, "ns/query");
    m.set("sim_energy_pj", sim.energyPj, "pJ/query");
}

/** Measure for @p seconds (at most @p max_ops operations) in kSegments
 *  segments, each on one CPU. */
OpStats
measurePhase(Workload &w, double seconds, std::size_t max_ops, Spans &spans)
{
    CpuRotation rotation(seconds / kSegments);
    return w.measure(seconds, max_ops, spans);
}

/**
 * Build the program under test repeatedly, PlanCache cleared first so
 * compile is paid. @return the median build time of the slot of
 * kSetupRotationS, each on one CPU, where that median is lowest.
 */
double
measureSetup(Workload &w, bool smoke, std::size_t &builds)
{
    // Three untimed builds grow the allocator's pools first. Then build
    // for two seconds, and at least 21 times, moving to the next CPU
    // every slot, so every CPU is visited twice. The best slot's median,
    // for the reason PhaseSummary takes the best segment.
    const std::size_t untimed = smoke ? 0 : 3;
    const std::size_t min_builds = smoke ? 3 : 21;
    const double min_seconds = smoke ? 0.0 : 2.0;
    CpuRotation rotation(kSetupRotationS);
    std::vector<std::vector<double>> slots;
    builds = 0;
    const Clock::time_point begin = Clock::now();
    for (std::size_t b = 0;
         builds < min_builds ||
         secondsBetween(begin, Clock::now()) < min_seconds;
         ++b) {
        core::PlanCache::instance().clear();
        w.teardown();
        Clock::time_point start = Clock::now();
        w.build(nullptr);
        if (b < untimed)
            continue;
        auto slot = static_cast<std::size_t>(secondsBetween(begin, start) /
                                             kSetupRotationS);
        if (slots.size() <= slot)
            slots.resize(slot + 1);
        slots[slot].push_back(secondsBetween(start, Clock::now()));
        ++builds;
    }
    std::vector<double> medians;
    for (const std::vector<double> &slot : slots)
        if (!slot.empty())
            medians.push_back(median(slot));
    return *std::min_element(medians.begin(), medians.end());
}

Outcome
runUntraced(Workload &w, const Options &opt, MetricSet &m)
{
    std::size_t builds = 0;
    const double setup_s = measureSetup(w, opt.config.smoke, builds);
    std::int64_t warm_wrong = w.warmUp(warmUpOps(w, opt.config.smoke));
    Spans no_spans;
    OpStats s = measurePhase(w, opt.seconds,
                             std::numeric_limits<std::size_t>::max(),
                             no_spans);
    w.teardown();

    PhaseSummary sum = summarize(s, opt.seconds / kSegments);
    m.set("setup_s", setup_s, "s");
    m.set("bench.setup_builds", static_cast<double>(builds), "count");
    m.set("qps", sum.qps, "ops/s");
    m.set("p50_us", sum.p50Us, "us");
    m.set("p90_us", sum.p90Us, "us");
    m.set("p99_us", sum.p99Us, "us");
    m.set("error_rate", errorRate(s), "fraction");
    m.set("ops_attempted", static_cast<double>(s.attempted()), "count");
    m.set("ops_failed", static_cast<double>(s.failed()), "count");
    reportSim(s.sim, m);
    m.set("peak_rss_mb", peakRssMb(), "MB");
    m.set("bench.run_s", s.elapsedS, "s");
    m.set("bench.segments", static_cast<double>(sum.segments), "count");

    Outcome out;
    out.attempted = s.attempted();
    out.failed = s.failed();
    out.correct = warm_wrong == 0 && s.wrong == 0 && s.simMismatches == 0;
    return out;
}

Outcome
runTraced(Workload &w, const Options &opt, MetricSet &m)
{
    const std::size_t warm = warmUpOps(w, opt.config.smoke);
    const std::size_t unbounded = std::numeric_limits<std::size_t>::max();
    Spans no_spans;
    w.build(nullptr);
    std::int64_t warm_wrong = w.warmUp(warm);
    OpStats untraced = measurePhase(w, opt.seconds / 2.0, unbounded,
                                    no_spans);

    // Every span of the traced stack fits: no stage statistics from a
    // ring that overwrote part of its history.
    support::TraceCollector collector((kTracedOps + warm) * 48 + 65536);
    Spans spans(&collector);
    core::PlanCache &cache = core::PlanCache::instance();
    // Nothing may point at the collector once it is gone, error paths
    // included. (Tearing the stack down also flushes the serving
    // threads' span batches, so it comes before the summary below.)
    struct Detach
    {
        Workload &w;
        ~Detach()
        {
            core::PlanCache::instance().setTraceCollector(nullptr);
            w.teardown();
        }
    } detach{w};
    w.teardown();
    cache.clear();
    core::PlanCacheStats cache_before = cache.stats();
    cache.setTraceCollector(&collector);
    {
        ScopedSpan setup(spans, "setup");
        w.build(&collector);
    }
    warm_wrong += w.warmUp(warm);
    const double since = collector.nowUs();
    OpStats traced = measurePhase(w, opt.seconds / 2.0, kTracedOps, spans);
    core::PlanCacheStats cache_after = cache.stats();
    w.servingCounters(m);
    w.probe(spans, m);
    cache.setTraceCollector(nullptr);
    w.teardown();

    for (const StageStats &s :
         summarizeTrace(collector.snapshot(), w.rootSpanName(), since)) {
        m.set(s.metric + "_p50_us", s.p50Us, "us");
        m.set(s.metric + "_p99_us", s.p99Us, "us");
        m.set(s.metric + "_share", s.share, "fraction");
    }
    for (const char *stage : kStageShares)
        if (!m.find(std::string(stage) + "_share"))
            m.set(std::string(stage) + "_share", 0.0, "fraction");
    m.set("core.plan_cache_hits",
          static_cast<double>(cache_after.hits - cache_before.hits), "count");
    m.set("core.plan_cache_misses",
          static_cast<double>(cache_after.misses - cache_before.misses),
          "count");
    reportSimFigures(untraced.sim, m);
    reportSim(untraced.sim, m);
    m.set("error_rate", errorRate(untraced), "fraction");
    m.set("bench.traced_ops", static_cast<double>(traced.attempted()),
          "count");
    const double segment_s = opt.seconds / 2.0 / kSegments;
    const double untraced_p50 = summarize(untraced, segment_s).p50Us;
    m.set("bench.trace_overhead_pct",
          (summarize(traced, segment_s).p50Us - untraced_p50) /
              untraced_p50 * 100.0,
          "%");
    m.set("bench.trace_dropped", static_cast<double>(collector.dropped()),
          "count");

    Outcome out;
    out.attempted = untraced.attempted() + traced.attempted();
    out.failed = untraced.failed() + traced.failed();
    out.correct = warm_wrong == 0 && untraced.wrong == 0 &&
                  traced.wrong == 0;
    // Determinism guard: tracing must not change what is simulated or
    // answered.
    if (untraced.sim != traced.sim || untraced.simMismatches != 0 ||
        traced.simMismatches != 0 ||
        errorRate(untraced) != errorRate(traced)) {
        std::fprintf(stderr, "c4cam_bench: the traced run's simulated "
                             "figures or error rate differ from the "
                             "untraced run's\n");
        out.correct = false;
    }
    if (collector.dropped() != 0) {
        std::fprintf(stderr, "c4cam_bench: the trace dropped %lld spans\n",
                     static_cast<long long>(collector.dropped()));
        out.correct = false;
    }
    if (!collector.writeFile(opt.traceFile))
        throw std::runtime_error("cannot write trace file '" +
                                 opt.traceFile + "'");
    return out;
}

/** Number formatting with every digit, valid as JSON. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
appendJson(const std::string &path, const Options &opt, const Outcome &out,
           const MetricSet &m)
{
    JsonValue runs = JsonValue::makeArray();
    if (std::filesystem::exists(path))
        runs = parseJsonFile(path);
    JsonValue run = JsonValue::makeObject();
    run.set("workload", JsonValue(opt.workload));
    run.set("seed", JsonValue(static_cast<double>(opt.config.seed)));
    run.set("seconds", JsonValue(opt.seconds));
    run.set("traced", JsonValue(!opt.traceFile.empty()));
    run.set("correct", JsonValue(out.correct));
    run.set("attempted", JsonValue(static_cast<double>(out.attempted)));
    run.set("failed", JsonValue(static_cast<double>(out.failed)));
    JsonValue metrics = JsonValue::makeObject();
    for (const Metric &metric : m.all()) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("value", JsonValue(metric.value));
        entry.set("unit", JsonValue(metric.unit));
        metrics.set(metric.name, entry);
    }
    run.set("metrics", metrics);
    runs.append(run);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write --json-out file '" + path +
                                 "'");
    std::string text = runs.dump(2) + "\n";
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        throw std::runtime_error("cannot write --json-out file '" + path +
                                 "'");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> compare;
    std::string bounds = "BENCHMARK.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        long long seed = 0;
        support::FlagParse fp;
        if ((fp = support::parseIntFlag(argc, argv, i, "--seed", seed)) !=
            support::FlagParse::NoMatch) {
            if (fp == support::FlagParse::Bad)
                return usage();
            opt.config.seed = static_cast<std::uint64_t>(seed);
        } else if ((fp = support::parseDoubleFlag(
                        argc, argv, i, "--seconds", opt.seconds,
                        std::numeric_limits<double>::min(), 3600.0)) !=
                   support::FlagParse::NoMatch) {
            if (fp == support::FlagParse::Bad)
                return usage();
            opt.secondsSet = true;
        } else if (arg == "--smoke") {
            opt.config.smoke = true;
        } else if (arg == "--compare") {
            if (i + 2 >= argc)
                return usage();
            compare = {argv[i + 1], argv[i + 2]};
            i += 2;
        } else if (arg == "--workload" || arg == "--trace" ||
                   arg == "--json-out" || arg == "--bounds") {
            if (i + 1 >= argc)
                return usage();
            std::string value = argv[++i];
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--trace")
                opt.traceFile = value;
            else if (arg == "--json-out")
                opt.jsonOut = value;
            else
                bounds = value;
        } else {
            return usage();
        }
    }
    if (!compare.empty())
        return runCompare(compare[0], compare[1], bounds);
    if (opt.config.smoke && !opt.secondsSet)
        opt.seconds = 0.3;

    try {
        std::unique_ptr<Workload> w = makeWorkload(opt.workload, opt.config);
        if (!w)
            return usage();
        MetricSet m;
        Outcome out = opt.traceFile.empty() ? runUntraced(*w, opt, m)
                                            : runTraced(*w, opt, m);

        std::string json = "{\"correct\": ";
        json += out.correct ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(out.attempted);
        json += ", \"failed\": " + std::to_string(out.failed);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < m.all().size(); ++i) {
            const Metric &metric = m.all()[i];
            std::printf("%s %s %s\n", metric.name.c_str(),
                        number(metric.value).c_str(), metric.unit.c_str());
            json += (i ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
                    number(metric.value) + ", \"unit\": \"" + metric.unit +
                    "\"}";
        }
        json += "}}";
        if (!opt.jsonOut.empty())
            appendJson(opt.jsonOut, opt, out, m);
        std::printf("%s\n", json.c_str());
        if (!out.correct)
            std::fprintf(stderr, "c4cam_bench: wrong answers on %s\n",
                         opt.workload.c_str());
        return out.correct ? 0 : 1;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "c4cam_bench: error: %s\n", err.what());
        return 1;
    }
}
