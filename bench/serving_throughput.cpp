/**
 * @file
 * Serving-throughput bench: the host-performance gates of the serving
 * tier as one table of legs.
 *
 * Every leg serves a stream of single-query requests and checks every
 * result -- answers and per-query simulated PerfReport, bit for bit --
 * against serial session replay of the same workload. Four legs then
 * hold one measured figure against a fixed bound:
 *
 *   scaling           W = 1/2/4/8 caller threads on a W-replica
 *                     ServingEngine vs one serial session; 4 workers
 *                     must beat serial by > 1.5x in wall qps. Applied
 *                     only on hosts with >= 4 hardware threads.
 *   async             open-loop AsyncServingEngine qps must be >= 0.9x
 *                     the qps of 4 caller threads on
 *                     ServingEngine::serve at equal replicas (the queue
 *                     layer costs nothing); closed-loop async, where 4
 *                     submitters each wait for their answer, is
 *                     reported beside it.
 *   plan-vs-treewalk  plan replay must beat the tree-walking
 *                     interpreter >= 3x in host wall-clock. Runs a kNN
 *                     kernel on 16x16 MCAM subarrays: small subarrays
 *                     maximize lowered control ops per unit of
 *                     simulated device work, which is the host dispatch
 *                     the plan exists to cut.
 *   chaos             open-loop async serving over a retrying
 *                     ServingEngine (4 attempts) while a seeded
 *                     sim::FaultInjector fails 0 / 0.1% / 1% of
 *                     searches; availability (completed / offered)
 *                     must stay >= 99% at rates <= 0.1%. Recovery may
 *                     cost latency, never correctness: every completed
 *                     answer is checked like any other leg's.
 *   replay            report-only: a single injector re-offers each
 *                     query at its recorded "admit" offset from a
 *                     c4cam-trace-v1 document (compressed 100x) through
 *                     an AsyncServingEngine, arrivals independent of
 *                     completions, and reports offered vs achieved qps
 *                     and the enqueue-wait/execute split.
 *
 * A bound applies from the leg's sample floor up; below it the leg
 * prints SKIP and still runs its checks, so sanitizer builds run every
 * leg at a handful of queries. Timed legs run each side kReps times,
 * rotating which side goes first, and compare each side's best wall
 * time, so warm-up and a noisy neighbour during one repetition cannot
 * decide a gate. The JSON document holds one object per leg: its
 * figures, every repetition's wall time, `bound` and `pass` (plus
 * `skip` when the bound was not applied). The exit code is non-zero
 * when any leg fails a check or its bound.
 *
 *   bench_serving_throughput [--leg NAME]... [--queries N]
 *                            [--replay TRACE.json] [--json-out FILE]
 *
 * --leg runs only the named legs (default: all); --queries sets every
 * leg's stream length (default: each leg's own); --replay names the
 * trace the replay leg re-injects (default: bench/traces/bursty_1k.json).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "BenchUtils.h"
#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ServingEngine.h"
#include "sim/FaultInjector.h"
#include "support/CliParse.h"
#include "support/Json.h"
#include "support/Rng.h"

using namespace c4cam;
using Clock = std::chrono::steady_clock;

namespace {

using Batch = std::vector<rt::BufferPtr>;
using Results = std::vector<core::ExecutionResult>;

/** Replicas, async dispatchers and caller threads of every leg. */
constexpr int kWorkers = 4;
/** Timed repetitions of each side of a comparison. */
constexpr int kReps = 5;
/** The replay leg plays a recorded trace 100x faster than recorded. */
constexpr double kReplayTimeScale = 0.01;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Exact equality of every output and of the fields a served query's
 *  window must match. */
bool
sameResult(const core::ExecutionResult &a, const core::ExecutionResult &b)
{
    if (a.outputs.size() != b.outputs.size())
        return false;
    for (std::size_t i = 0; i < a.outputs.size(); ++i)
        if (a.outputs[i].asBuffer()->toVector() !=
            b.outputs[i].asBuffer()->toVector())
            return false;
    const sim::PerfReport &p = a.perf;
    const sim::PerfReport &q = b.perf;
    return p.queryLatencyNs == q.queryLatencyNs &&
           p.queryEnergyPj == q.queryEnergyPj &&
           p.cellEnergyPj == q.cellEnergyPj &&
           p.senseEnergyPj == q.senseEnergyPj &&
           p.driveEnergyPj == q.driveEnergyPj &&
           p.mergeEnergyPj == q.mergeEnergyPj && p.searches == q.searches;
}

std::vector<std::vector<float>>
randomRows(std::size_t rows, std::size_t dims, std::uint64_t seed,
           float low)
{
    Rng rng(seed);
    std::vector<std::vector<float>> stored(rows, std::vector<float>(dims));
    for (auto &row : stored)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : low;
    return stored;
}

/** Fields of a leg's JSON object: numbers, strings, repetitions. */
void
put(JsonValue &obj, const std::string &key, double value)
{
    obj.set(key, JsonValue(value));
}

void
put(JsonValue &obj, const std::string &key, const std::string &value)
{
    obj.set(key, JsonValue(value));
}

void
put(JsonValue &obj, const std::string &key, const std::vector<double> &values)
{
    JsonValue array = JsonValue::makeArray();
    for (double v : values)
        array.append(JsonValue(v));
    obj.set(key, std::move(array));
}

/**
 * A compiled kernel over fixed stored rows, plus the serial-session
 * answers every leg's results are checked against. Query q of a stream
 * asks for stored row q % rows, so one reference result per row covers
 * any stream length (a session's answer and cost do not depend on what
 * it served before). Holds a session on its own kernel: never copied
 * or moved.
 */
struct Workload
{
    Workload(const core::CompilerOptions &opts, std::string src,
             std::vector<std::vector<float>> rows)
        : options(opts), source(std::move(src)), stored(std::move(rows)),
          kernel(core::Compiler(options).compileTorchScript(source)),
          storedBuf(rt::Buffer::fromMatrix(stored)),
          reference(kernel.createSession(query(0)))
    {
    }
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    Batch
    query(std::size_t q) const
    {
        return {rt::Buffer::fromMatrix({stored[q % stored.size()]}),
                storedBuf};
    }

    std::vector<Batch>
    stream(std::size_t n) const
    {
        std::vector<Batch> batches;
        batches.reserve(n);
        for (std::size_t q = 0; q < n; ++q)
            batches.push_back(query(q));
        return batches;
    }

    /** Throw unless @p result matches serial replay of query @p q. */
    void
    check(std::size_t q, const core::ExecutionResult &result,
          const std::string &who)
    {
        const std::size_t row = q % stored.size();
        while (expected.size() <= row)
            expected.push_back(reference.runQuery(query(expected.size())));
        if (!sameResult(result, expected[row]))
            throw std::runtime_error(who + " result " + std::to_string(q) +
                                     " diverges from serial replay");
    }

    void
    check(const Results &results, const std::string &who)
    {
        for (std::size_t q = 0; q < results.size(); ++q)
            check(q, results[q], who);
    }

    core::CompilerOptions options;
    std::string source;
    std::vector<std::vector<float>> stored;
    core::CompiledKernel kernel;
    rt::BufferPtr storedBuf;
    core::ExecutionSession reference;
    Results expected; ///< serial answers, by stored row
};

enum WorkloadId
{
    kHdc, ///< dot similarity, 128 x 1024 +-1 rows on 32x32 TCAM subarrays
    kKnn, ///< euclidean kNN, 96 x 768 0/1 rows on 16x16 2-bit MCAM
    kNumWorkloads
};

std::unique_ptr<Workload>
makeWorkload(WorkloadId id)
{
    core::CompilerOptions options;
    if (id == kHdc) {
        options.spec = arch::ArchSpec::dseSetup(32, arch::OptTarget::Base);
        return std::make_unique<Workload>(
            options, apps::dotSimilaritySource(1, 128, 1024, 1),
            randomRows(128, 1024, 123, -1.0f));
    }
    options.spec = arch::ArchSpec::dseSetup(16, arch::OptTarget::Base);
    options.spec.camType = arch::CamDeviceType::Mcam;
    options.spec.bitsPerCell = 2;
    return std::make_unique<Workload>(
        options, apps::knnEuclideanSource(1, 96, 768, 1),
        randomRows(96, 768, 29, 0.0f));
}

/**
 * Serve @p batches from @p workers caller threads in a closed loop:
 * each thread takes the next index off a shared cursor and waits for
 * @p serve to return before taking another. @return the results in
 * input order; a serve that throws is rethrown here after the join.
 */
template <typename Serve>
Results
serveClosedLoop(const std::vector<Batch> &batches, int workers, Serve serve)
{
    Results results(batches.size());
    std::atomic<std::size_t> cursor{0};
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
    std::vector<std::thread> callers;
    callers.reserve(static_cast<std::size_t>(workers));
    for (std::size_t w = 0; w < errors.size(); ++w)
        callers.emplace_back([&, w] {
            try {
                for (;;) {
                    std::size_t idx = cursor.fetch_add(1);
                    if (idx >= batches.size())
                        return;
                    results[idx] = serve(batches[idx]);
                }
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    for (std::thread &caller : callers)
        caller.join();
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return results;
}

/** Results of an open-loop batch, in submission order. */
Results
collect(std::vector<std::future<core::ExecutionResult>> futures)
{
    Results results;
    results.reserve(futures.size());
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

/** One side of a timed comparison: serves the leg's stream once. */
struct Side
{
    std::string name;
    std::function<Results()> serve;
};

/**
 * The timing estimator of every timed leg: run each side kReps times,
 * rotating which side goes first, check every run against serial
 * replay (outside the timed window), and record every repetition in
 * @p json as "<side>_wall_s_reps". @return each side's best wall
 * seconds.
 */
std::vector<double>
timeSides(Workload &w, const std::vector<Side> &sides, JsonValue &json)
{
    std::vector<std::vector<double>> wall(sides.size());
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < sides.size(); ++i) {
            const std::size_t s = (static_cast<std::size_t>(rep) + i) %
                                  sides.size();
            Clock::time_point start = Clock::now();
            Results results = sides[s].serve();
            wall[s].push_back(secondsSince(start));
            w.check(results, sides[s].name);
        }
    }
    std::vector<double> best;
    for (std::size_t s = 0; s < sides.size(); ++s) {
        put(json, sides[s].name + "_wall_s_reps", wall[s]);
        best.push_back(*std::min_element(wall[s].begin(), wall[s].end()));
    }
    return best;
}

/** What a leg measured for its bound. */
struct Measured
{
    double value = 0.0;
    /** Non-empty when this host cannot apply the bound, and why. */
    std::string skip;
};

Measured
runScaling(Workload &w, std::size_t n, const std::string &,
           JsonValue &json)
{
    const std::vector<Batch> stream = w.stream(n);
    // Sessions and engines are built (programmed) outside the timed
    // runs, so every side compares steady-state serving.
    core::ExecutionSession session = w.kernel.createSession(stream[0]);
    std::vector<Side> sides = {
        {"serial", [&] { return session.runBatch(stream); }}};
    const int worker_counts[] = {1, 2, 4, 8};
    std::vector<std::unique_ptr<core::ServingEngine>> engines;
    for (int workers : worker_counts) {
        engines.push_back(w.kernel.createServingEngine(stream[0], workers));
        core::ServingEngine *engine = engines.back().get();
        auto serve = [engine](const Batch &args) {
            return engine->serve(args);
        };
        sides.push_back({"workers_" + std::to_string(workers),
                         [&stream, workers, serve] {
                             return serveClosedLoop(stream, workers, serve);
                         }});
    }
    const std::vector<double> best = timeSides(w, sides, json);

    const double serial_qps = static_cast<double>(n) / best[0];
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("Thread scaling: %zu queries, %u hardware threads\n", n, hw);
    bench::rule();
    std::printf("%-10s %14s %12s %12s %12s\n", "workers", "wall qps",
                "vs serial", "p50 (us)", "p95 (us)");
    std::printf("%-10s %14.1f %12s %12s %12s\n", "serial", serial_qps,
                "1.00x", "-", "-");
    double qps4 = 0.0;
    for (std::size_t e = 0; e < engines.size(); ++e) {
        const double qps = static_cast<double>(n) / best[e + 1];
        if (worker_counts[e] == 4)
            qps4 = qps;
        core::ServingStats stats = engines[e]->stats();
        std::printf("%-10d %14.1f %11.2fx %12.1f %12.1f\n",
                    worker_counts[e], qps, qps / serial_qps,
                    stats.p50LatencyUs, stats.p95LatencyUs);
    }
    bench::rule();

    put(json, "mode", std::string("scaling"));
    put(json, "queries", static_cast<double>(n));
    put(json, "serial_qps", serial_qps);
    put(json, "qps_4_workers", qps4);
    put(json, "hardware_threads", static_cast<double>(hw));
    Measured m{qps4 / serial_qps, {}};
    if (hw < 4)
        m.skip = std::to_string(hw) +
                 " hardware threads (< 4); the scaling bound needs a "
                 "multi-core host";
    return m;
}

Measured
runAsync(Workload &w, std::size_t n, const std::string &,
         JsonValue &json)
{
    const core::AsyncServingOptions options;
    // Serve whole fused rounds (fuseMaxK windows on every dispatcher)
    // once the stream holds one: a ragged tail such as 48 queries = 6
    // windows over 4 dispatchers leaves two dispatchers serving 16
    // queries while each sync thread serves 12, which caps the ratio
    // near 0.75x whatever the queue layer costs.
    const std::size_t round =
        static_cast<std::size_t>(options.fuseMaxK) * kWorkers;
    if (n >= round)
        n -= n % round;
    const std::vector<Batch> stream = w.stream(n);

    std::unique_ptr<core::ServingEngine> sync =
        w.kernel.createServingEngine(stream[0], kWorkers);
    std::unique_ptr<core::AsyncServingEngine> open =
        w.kernel.createAsyncServingEngine(stream[0], kWorkers, options);
    std::unique_ptr<core::AsyncServingEngine> closed =
        w.kernel.createAsyncServingEngine(stream[0], kWorkers, options);
    const std::vector<double> best = timeSides(
        w,
        {{"sync",
          [&] {
              return serveClosedLoop(stream, kWorkers,
                                     [&](const Batch &args) {
                                         return sync->serve(args);
                                     });
          }},
         // Open loop: submissions arrive as fast as the bounded queue
         // admits them; the dispatchers micro-batch whatever piles up.
         {"async_open_loop",
          [&] { return collect(open->submitBatch(stream)); }},
         // Closed loop: each submitter waits for its answer before the
         // next arrival, so offered concurrency == kWorkers.
         {"async_closed_loop",
          [&] {
              return serveClosedLoop(stream, kWorkers,
                                     [&](const Batch &args) {
                                         return closed->submit(args).get();
                                     });
          }}},
        json);

    const double nq = static_cast<double>(n);
    const double sync_qps = nq / best[0];
    const double open_qps = nq / best[1];
    const double closed_qps = nq / best[2];
    const core::AsyncServingStats open_stats = open->stats();
    const core::AsyncServingStats closed_stats = closed->stats();
    std::printf("Async serving: %zu queries, %d workers/replicas\n", n,
                kWorkers);
    bench::rule();
    std::printf("%-22s %12s %12s %14s %14s\n", "mode", "wall qps",
                "vs sync", "p50 wait (us)", "p95 exec (us)");
    std::printf("%-22s %12.1f %12s %14s %14s\n", "sync serve", sync_qps,
                "1.00x", "-", "-");
    std::printf("%-22s %12.1f %11.2fx %14.1f %14.1f\n", "async open-loop",
                open_qps, open_qps / sync_qps, open_stats.p50EnqueueWaitUs,
                open_stats.p95ExecuteUs);
    std::printf("%-22s %12.1f %11.2fx %14.1f %14.1f\n",
                "async closed-loop", closed_qps, closed_qps / sync_qps,
                closed_stats.p50EnqueueWaitUs, closed_stats.p95ExecuteUs);
    bench::rule();
    std::printf("open-loop micro-batching over %d runs: %lld fused "
                "windows covering %lld queries, %lld single dispatches\n",
                kReps, static_cast<long long>(open_stats.fusedWindows),
                static_cast<long long>(open_stats.fusedQueries),
                static_cast<long long>(open_stats.singleDispatches));

    put(json, "mode", std::string("async"));
    put(json, "queries", nq);
    put(json, "workers", static_cast<double>(kWorkers));
    put(json, "sync_qps", sync_qps);
    put(json, "async_open_loop_qps", open_qps);
    put(json, "async_closed_loop_qps", closed_qps);
    put(json, "open_loop_vs_sync", open_qps / sync_qps);
    put(json, "open_fused_windows",
        static_cast<double>(open_stats.fusedWindows));
    put(json, "open_fused_queries",
        static_cast<double>(open_stats.fusedQueries));
    put(json, "open_p50_wait_us", open_stats.p50EnqueueWaitUs);
    put(json, "open_p95_wait_us", open_stats.p95EnqueueWaitUs);
    put(json, "open_p50_exec_us", open_stats.p50ExecuteUs);
    put(json, "open_p95_exec_us", open_stats.p95ExecuteUs);
    return {open_qps / sync_qps, {}};
}

Measured
runPlanVsTreeWalk(Workload &w, std::size_t n, const std::string &,
                  JsonValue &json)
{
    core::CompilerOptions walk_options = w.options;
    walk_options.treeWalkExecution = true;
    core::CompiledKernel walk_kernel =
        core::Compiler(walk_options).compileTorchScript(w.source);
    const std::vector<Batch> stream = w.stream(n);
    core::ExecutionSession walk = walk_kernel.createSession(stream[0]);
    core::ExecutionSession plan = w.kernel.createSession(stream[0]);
    const std::vector<double> best = timeSides(
        w,
        {{"tree_walk", [&] { return walk.runBatch(stream); }},
         {"plan", [&] { return plan.runBatch(stream); }}},
        json);

    const double nq = static_cast<double>(n);
    const double speedup = best[0] / best[1];
    std::printf("Plan vs tree walk: %zu queries, kNN %zu x %zu on 16x16 "
                "subarrays\n",
                n, w.stored.size(), w.stored[0].size());
    bench::rule();
    std::printf("%-28s %16s %16s\n", "", "tree-walk", "plan replay");
    std::printf("%-28s %16.3f %16.3f\n", "host wall-clock (s)", best[0],
                best[1]);
    std::printf("%-28s %16.1f %16.1f\n", "host queries/sec", nq / best[0],
                nq / best[1]);
    bench::rule();

    put(json, "mode", std::string("plan_vs_treewalk"));
    put(json, "queries", nq);
    put(json, "tree_walk_wall_s", best[0]);
    put(json, "plan_wall_s", best[1]);
    put(json, "tree_walk_qps", nq / best[0]);
    put(json, "plan_qps", nq / best[1]);
    put(json, "plan_speedup", speedup);
    json.set("plan_aggregate", plan.aggregateReport().toJson());
    return {speedup, {}};
}

Measured
runChaos(Workload &w, std::size_t n, const std::string &,
         JsonValue &json)
{
    const std::vector<Batch> stream = w.stream(n);
    const double nq = static_cast<double>(n);
    constexpr int kAttempts = 4;
    std::printf("Chaos serving: %zu queries, %d workers/replicas, retry "
                "budget %d attempts\n",
                n, kWorkers, kAttempts);
    bench::rule();
    std::printf("%-12s %12s %14s %10s %10s %10s\n", "fault rate",
                "wall qps", "availability", "injected", "retries",
                "failed");
    put(json, "mode", std::string("chaos"));
    put(json, "queries", nq);
    put(json, "workers", static_cast<double>(kWorkers));
    put(json, "retry_attempts", static_cast<double>(kAttempts));

    // The 0 leg proves the chaos harness itself is clean. A serve runs
    // 128 searches, so at 0.1% per search an attempt fails with
    // p ~= 0.12 and a query exhausts all 4 attempts with p ~= 2e-4:
    // two orders of magnitude inside the 1% allowance. The 1% leg is
    // reported, not gated.
    const double rates[] = {0.0, 0.001, 0.01};
    double gated_availability = 1.0;
    for (std::size_t r = 0; r < std::size(rates); ++r) {
        const double rate = rates[r];
        // Seeded per leg: independent fault streams, each replayable.
        sim::FaultSpec spec;
        spec.seed = 0xC4A0500ull + r;
        spec.transientRate = rate;
        auto injector = std::make_shared<sim::FaultInjector>(spec);

        std::unique_ptr<core::AsyncServingEngine> engine =
            w.kernel.createAsyncServingEngine(stream[0], kWorkers, {});
        auto &serving = dynamic_cast<core::ServingEngine &>(engine->backend());
        core::RetryPolicy policy;
        policy.maxAttempts = kAttempts;
        policy.backoffUs = 50;
        serving.setRetryPolicy(policy);
        if (rate > 0.0)
            serving.attachFaultInjector(injector);

        std::size_t ok = 0;
        Clock::time_point start = Clock::now();
        std::vector<std::future<core::ExecutionResult>> futures =
            engine->submitBatch(stream);
        for (std::size_t q = 0; q < futures.size(); ++q) {
            core::ExecutionResult result;
            try {
                result = futures[q].get();
            } catch (const CompilerError &) {
                continue; // retry budget exhausted for this query
            }
            w.check(q, result, "recovered");
            ++ok;
        }
        const double qps = nq / secondsSince(start);
        const double availability = static_cast<double>(ok) / nq;
        const std::size_t failed = n - ok;
        const core::AsyncServingStats stats = engine->stats();
        const std::int64_t injected = injector->stats().transientsFired;
        std::printf("%-12g %12.1f %13.1f%% %10lld %10lld %10zu\n", rate,
                    qps, availability * 100.0,
                    static_cast<long long>(injected),
                    static_cast<long long>(stats.serving.retries), failed);

        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "rate_%g_", rate);
        put(json, std::string(prefix) + "qps", qps);
        put(json, std::string(prefix) + "availability", availability);
        put(json, std::string(prefix) + "injected",
            static_cast<double>(injected));
        put(json, std::string(prefix) + "retries",
            static_cast<double>(stats.serving.retries));
        put(json, std::string(prefix) + "failed",
            static_cast<double>(failed));
        if (rate <= 0.001)
            gated_availability = std::min(gated_availability, availability);
    }
    bench::rule();
    return {gated_availability, {}};
}

/** Arrival offsets (us, first arrival at 0) of the "admit" spans of the
 *  c4cam-trace-v1 document at @p path, earliest first. */
std::vector<double>
admitOffsetsUs(const std::string &path)
{
    JsonValue doc = parseJsonFile(path);
    if (doc.getString("schema", "") != "c4cam-trace-v1")
        throw std::runtime_error(path + " is not a c4cam-trace-v1 document");
    std::vector<double> arrivals;
    if (const JsonValue *spans = doc.find("spans"))
        for (const JsonValue &span : spans->asArray())
            if (span.getString("name", "") == "admit") {
                const JsonValue *start = span.find("start_us");
                if (!start)
                    throw std::runtime_error(
                        path + ": an \"admit\" span has no start_us");
                arrivals.push_back(start->asNumber());
            }
    if (arrivals.empty())
        throw std::runtime_error(path +
                                 " contains no \"admit\" spans to replay");
    std::sort(arrivals.begin(), arrivals.end());
    const double base = arrivals.front();
    for (double &t : arrivals)
        t -= base;
    return arrivals;
}

Measured
runReplay(Workload &w, std::size_t n, const std::string &trace,
          JsonValue &json)
{
    std::vector<double> offsets_us = admitOffsetsUs(trace);
    n = std::min(n, offsets_us.size());
    offsets_us.resize(n);
    for (double &t : offsets_us)
        t *= kReplayTimeScale;
    const double span_s = offsets_us.back() * 1e-6;
    const std::vector<Batch> stream = w.stream(n);

    // Open loop: the block policy makes the queue bound the only
    // backpressure, so a recorded burst that outruns the replicas
    // piles up in the admission queue as it did when recorded.
    std::unique_ptr<core::AsyncServingEngine> engine =
        w.kernel.createAsyncServingEngine(stream[0], kWorkers, {});
    std::vector<std::future<core::ExecutionResult>> futures;
    futures.reserve(n);
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(
                        static_cast<std::int64_t>(offsets_us[i])));
        futures.push_back(engine->submit(stream[i]));
    }
    const double inject_s = secondsSince(start);
    const Results results = collect(std::move(futures));
    const double wall_s = secondsSince(start);
    engine->drain();
    const core::AsyncServingStats stats = engine->stats();
    w.check(results, "replayed");

    const double offered_qps =
        span_s > 0.0 ? static_cast<double>(n) / span_s : 0.0;
    const double achieved_qps = static_cast<double>(n) / wall_s;
    std::printf("Trace replay: %zu arrivals from %s over %.3f s (time "
                "scale %g), %d workers\n",
                n, trace.c_str(), span_s, kReplayTimeScale, kWorkers);
    bench::rule();
    std::printf("%-26s %14.1f\n", "offered qps (trace)", offered_qps);
    std::printf("%-26s %14.1f\n", "achieved qps", achieved_qps);
    std::printf("%-26s %14.3f\n", "injection wall (s)", inject_s);
    std::printf("%-26s %14.3f\n", "completion wall (s)", wall_s);
    std::printf("%-26s %8.1f / %8.1f\n", "enqueue-wait p50/p95 (us)",
                stats.p50EnqueueWaitUs, stats.p95EnqueueWaitUs);
    std::printf("%-26s %8.1f / %8.1f\n", "execute p50/p95 (us)",
                stats.p50ExecuteUs, stats.p95ExecuteUs);
    bench::rule();
    std::printf("micro-batching under replayed bursts: %lld fused "
                "windows covering %lld queries, %lld single dispatches\n",
                static_cast<long long>(stats.fusedWindows),
                static_cast<long long>(stats.fusedQueries),
                static_cast<long long>(stats.singleDispatches));

    put(json, "mode", std::string("replay"));
    put(json, "trace", trace);
    put(json, "queries", static_cast<double>(n));
    put(json, "time_scale", kReplayTimeScale);
    put(json, "trace_span_s", span_s);
    put(json, "offered_qps", offered_qps);
    put(json, "achieved_qps", achieved_qps);
    put(json, "completion_wall_s", wall_s);
    put(json, "p50_enqueue_wait_us", stats.p50EnqueueWaitUs);
    put(json, "p95_enqueue_wait_us", stats.p95EnqueueWaitUs);
    put(json, "p50_execute_us", stats.p50ExecuteUs);
    put(json, "p95_execute_us", stats.p95ExecuteUs);
    put(json, "fused_windows", static_cast<double>(stats.fusedWindows));
    put(json, "fused_queries", static_cast<double>(stats.fusedQueries));
    put(json, "single_dispatches",
        static_cast<double>(stats.singleDispatches));
    return {};
}

/** One row of the bench: a leg, its stream and its bound. */
struct Leg
{
    const char *name;
    WorkloadId workload;
    std::size_t defaultQueries;
    /** Below this many queries the bound is reported as SKIP. */
    std::size_t sampleFloor;
    /** What Measured::value is; nullptr for a report-only leg. */
    const char *figure;
    bool strict; ///< the value must exceed the bound, not just reach it
    double bound;
    Measured (*run)(Workload &, std::size_t queries,
                    const std::string &trace, JsonValue &json);
};

// Open-loop dispatchers take up to fuseMaxK = 8 queries a window, so
// one dispatcher can finish a window after the sync threads' last
// single query. On a shared 4-vCPU host that tail cost the median
// best-of-5 run ~7% at 96 queries, ~3.5% at 384 and ~1-2% at the async
// leg's 768. An availability bound of 99% cannot tell one failed
// query from none below 100 queries, hence the chaos floor.
const Leg kLegs[] = {
    {"scaling", kHdc, 96, 32, "4-worker qps / serial qps", true, 1.5,
     runScaling},
    {"async", kHdc, 768, 32, "open-loop async qps / sync qps", false, 0.9,
     runAsync},
    {"plan-vs-treewalk", kKnn, 96, 32, "plan replay qps / tree-walk qps",
     false, 3.0, runPlanVsTreeWalk},
    {"chaos", kHdc, 200, 100, "availability at fault rates <= 0.1%", false,
     0.99, runChaos},
    {"replay", kHdc, 256, 0, nullptr, false, 0.0, runReplay},
};

} // namespace

int
main(int argc, char **argv)
{
    long long queries = 0; // 0: each leg's default
    std::vector<std::string> only;
    std::string trace = C4CAM_BENCH_REPLAY_TRACE;
    bench::JsonOut jout;
    auto usage = [] {
        std::fprintf(stderr,
                     "usage: bench_serving_throughput [--leg NAME]... "
                     "[--queries N] [--replay TRACE.json] "
                     "[--json-out FILE]\n"
                     "legs:");
        for (const Leg &leg : kLegs)
            std::fprintf(stderr, " %s", leg.name);
        std::fprintf(stderr, "\n");
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        if (jout.tryParseArg(argc, argv, i))
            continue;
        support::FlagParse fp =
            support::parseIntFlag(argc, argv, i, "--queries", queries, 1);
        if (fp == support::FlagParse::Ok)
            continue;
        if (fp == support::FlagParse::Bad) {
            std::fprintf(stderr, "--queries: bad value: %s\n",
                         i < argc ? argv[i] : "(missing)");
            return usage();
        }
        if (std::strcmp(argv[i], "--leg") == 0 && i + 1 < argc) {
            const char *name = argv[++i];
            if (std::none_of(std::begin(kLegs), std::end(kLegs),
                             [&](const Leg &leg) {
                                 return std::strcmp(leg.name, name) == 0;
                             })) {
                std::fprintf(stderr, "--leg: unknown leg: %s\n", name);
                return usage();
            }
            only.push_back(name);
        } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
            trace = argv[++i];
        } else {
            return usage();
        }
    }

    std::unique_ptr<Workload> workloads[kNumWorkloads];
    int run = 0;
    int failed = 0;
    for (const Leg &leg : kLegs) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), leg.name) == only.end())
            continue;
        ++run;
        const std::size_t n = queries > 0
                                  ? static_cast<std::size_t>(queries)
                                  : leg.defaultQueries;
        std::printf("\n[%s] %zu queries\n", leg.name, n);
        JsonValue json = JsonValue::makeObject();
        bool pass = false;
        Measured m;
        try {
            std::unique_ptr<Workload> &w = workloads[leg.workload];
            if (!w)
                w = makeWorkload(leg.workload);
            m = leg.run(*w, n, trace, json);
            pass = true;
        } catch (const std::exception &err) {
            std::printf("[%s] FAIL: %s\n", leg.name, err.what());
        }
        if (pass) {
            std::printf("[%s] every result bit-identical to serial "
                        "replay: OK\n",
                        leg.name);
            if (leg.figure && m.skip.empty() && n < leg.sampleFloor)
                m.skip = std::to_string(n) + " queries is below the " +
                         std::to_string(leg.sampleFloor) +
                         "-query sample floor";
            if (!leg.figure) {
                std::printf("[%s] report-only, no bound\n", leg.name);
            } else {
                if (m.skip.empty())
                    pass = leg.strict ? m.value > leg.bound
                                      : m.value >= leg.bound;
                else
                    json.set("skip", JsonValue(m.skip));
                std::printf("[%s] %s %.3g (bound %s %g): %s%s\n", leg.name,
                            leg.figure, m.value, leg.strict ? ">" : ">=",
                            leg.bound,
                            !m.skip.empty() ? "SKIP, " : pass ? "OK" : "FAIL",
                            m.skip.c_str());
            }
        }
        json.set("bound", leg.figure ? JsonValue(leg.bound) : JsonValue());
        json.set("pass", JsonValue(pass));
        jout.set(leg.name, std::move(json));
        failed += pass ? 0 : 1;
    }
    std::printf("\nserving bench: legs run %d, failed %d\n", run, failed);
    return jout.write() && failed == 0 ? 0 : 1;
}
