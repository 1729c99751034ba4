/**
 * @file
 * Serving-throughput bench: persistent sessions vs per-query runs.
 *
 * The paper's execution model (§III-D) pays the subarray-programming
 * setup once and then serves queries at search latency. This bench
 * quantifies what that buys a serving deployment: it serves the same
 * query stream (a) naively, one CompiledKernel::run() per query --
 * re-allocating and re-programming the device every time -- and (b)
 * through one ExecutionSession created once.
 *
 * Reported: simulated queries/sec (the paper's metric; deterministic)
 * and host wall-clock queries/sec (the simulator does strictly less
 * work per served query in session mode). The bench exits non-zero if
 * the session path is not at least 5x faster in simulated throughput
 * or if any result/cost invariant breaks, so CI can smoke-run it.
 *
 * --scaling switches to the thread-scaling mode: the same query
 * stream is served by W = 1/2/4/8 caller threads calling
 * ServingEngine::serve in a closed loop on a core::ServingEngine with
 * W programmed device replicas, and a host-qps table is printed. Every threaded run must stay bit-identical to the
 * serial session (answers and per-query cost reports); on hosts with
 * >= 4 hardware threads the bench additionally exits non-zero when
 * the 4-worker engine does not beat the serial session by > 1.5x in
 * wall-clock queries/sec.
 *
 * --plan-vs-treewalk switches to the execution-back-end gate: the
 * same stream is served through a tree-walking session and a
 * plan-replaying session (a dispatch-heavy kNN kernel, see the mode
 * for why). The bench exits non-zero unless (a) plan replay is >= 3x
 * faster in host wall-clock, (b) every per-query simulated PerfReport
 * is bit-identical between the two back ends, and (c) fused-batch
 * (ExecutionSession::runFusedBatch) totals equal the sum of the
 * corresponding serial query windows exactly.
 *
 * --async switches to the async-front-end gate: the same stream is
 * served (a) by W caller threads calling ServingEngine::serve on W
 * replicas in a closed loop (the sync baseline: no queue, no
 * dispatchers), (b) open-loop through an AsyncServingEngine -- every
 * query submitted as fast as the bounded queue admits, arrivals
 * independent of completions, backpressure from the queue bound --
 * and (c) closed-loop -- W submitters that each wait for their
 * query's completion before sending the next, so concurrency equals
 * W by construction. The bench exits non-zero unless (1) every async
 * result (both arrival modes) is bit-identical to serial session
 * replay in answers and per-query simulated PerfReports, and (2)
 * open-loop async qps is no worse than 0.9x the sync qps at equal
 * worker count (the 10% guard absorbs scheduler noise on
 * loaded CI runners; the contract is "the queue layer costs
 * nothing"). The qps gate applies from 32 queries up -- tiny
 * sanitizer smoke runs keep the bit-identity checks but skip the
 * noise-dominated timing comparison.
 *
 * --replay TRACE.json switches to trace-driven open-loop replay: the
 * recorded "admit" span timestamps of a c4cam-trace-v1 document (from
 * `c4cam-run --trace-out` or the checked-in bench/traces fixtures)
 * become the arrival schedule. A single injector thread re-offers
 * each query at its recorded (optionally --time-scale-compressed)
 * offset through an AsyncServingEngine, arrivals independent of
 * completions -- so a recorded burst hits the admission queue as a
 * burst, not as a smoothed closed loop. Reports offered vs achieved
 * qps and the per-stage latency split, checks every replayed answer
 * and per-query PerfReport against serial session replay, and writes
 * BENCH_replay.json via --json-out. --trace-out FILE re-records the
 * replay itself for trace-diffing runs.
 *
 * --chaos switches to the availability-under-faults leg: the same
 * stream is served open-loop through an AsyncServingEngine whose
 * ServingEngine backend carries a bounded-backoff retry policy
 * (4 attempts) while a seeded sim::FaultInjector fails a fraction of
 * searches transiently at entry. Fault rates 0 / 0.1% / 1% are swept
 * (or {0, R} with --fault-rate R); per rate the bench reports wall
 * qps, availability (completed / offered), backend retries and
 * injected faults. Every query that completes must be bit-identical
 * to the fault-free serial reference -- recovery may cost latency,
 * never correctness -- and the bench exits non-zero when availability
 * at rates <= 0.1% drops below 99% (the CI chaos gate). Faults are a
 * pure function of the spec seed, so a failing leg replays exactly.
 *
 * --fused-model switches to the fused-model gate: the same stream is
 * served as K=8 fused batches under both sim::FusionModel regimes and
 * compared against a serial session. ExactSerial fused totals must
 * equal the serial sum bit for bit; TrueFused totals (drive/precharge
 * charged once per pass) must come in strictly below it while the
 * outputs stay bit-identical and the per-search sense/merge
 * components are unchanged. Energy-per-query for all three paths is
 * written to BENCH_fused.json (the CI perf gate archives it).
 *
 * --shards M switches to the sharded-serving sweep: the same query
 * stream is served through core::ShardedEngine at 1, 2, 4, ... up to
 * M shards (replicasPerShard = --workers, closed-loop submitters), a
 * qps table is printed, and every sharded run must stay bit-identical
 * to the serial session in BOTH outputs -- merged top-k values and
 * global indices. Per-query PerfReports are shard aggregations by
 * design (latency = max over shards), so the report check here is the
 * invariant that holds: per-shard latency never exceeds the
 * single-device latency. No qps gate: M small simulated devices vs
 * one big one is an accounting statement, not a host-speed contract.
 *
 * All modes accept --json-out FILE for machine-readable results
 * (CI archives BENCH_serving.json, BENCH_async.json, BENCH_replay.json,
 * BENCH_sharded.json, BENCH_chaos.json and BENCH_fused.json from the
 * release perf job).
 *
 *   bench_serving_throughput [--queries N] [--scaling]
 *                            [--plan-vs-treewalk] [--async]
 *                            [--fused-model] [--shards M]
 *                            [--chaos] [--fault-rate X]
 *                            [--replay TRACE.json] [--time-scale S]
 *                            [--trace-out FILE]
 *                            [--workers W] [--json-out FILE]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "BenchUtils.h"
#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ServingEngine.h"
#include "core/ShardedEngine.h"
#include "sim/FaultInjector.h"
#include "support/CliParse.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Trace.h"

using namespace c4cam;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Exact equality of the fields a served query's window must match. */
bool
sameQueryCost(const sim::PerfReport &a, const sim::PerfReport &b)
{
    return a.queryLatencyNs == b.queryLatencyNs &&
           a.queryEnergyPj == b.queryEnergyPj &&
           a.cellEnergyPj == b.cellEnergyPj &&
           a.senseEnergyPj == b.senseEnergyPj &&
           a.driveEnergyPj == b.driveEnergyPj &&
           a.mergeEnergyPj == b.mergeEnergyPj &&
           a.searches == b.searches;
}

/**
 * Serve @p batches from @p workers caller threads in a closed loop:
 * each thread takes the next index off a shared cursor and waits for
 * @p serve to return before taking another. @return the results in
 * input order.
 */
template <typename Serve>
std::vector<core::ExecutionResult>
serveClosedLoop(const std::vector<std::vector<rt::BufferPtr>> &batches,
                int workers, Serve serve)
{
    std::vector<core::ExecutionResult> results(batches.size());
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> callers;
    callers.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        callers.emplace_back([&] {
            for (;;) {
                std::size_t idx = cursor.fetch_add(1);
                if (idx >= batches.size())
                    return;
                results[idx] = serve(batches[idx]);
            }
        });
    for (std::thread &caller : callers)
        caller.join();
    return results;
}

/**
 * Execution-back-end gate: plan replay vs tree walk. @return process
 * exit code.
 *
 * Uses its own workload -- a cam-mapped euclidean kNN on 16x16
 * subarrays -- because the gate measures *host dispatch*: small
 * subarrays maximize lowered control ops per unit of simulated device
 * work, which is exactly the serving regime the plan optimizes (the
 * simulated accounting is identical either way; the check below
 * enforces that bit for bit).
 */
int
runPlanVsTreeWalk(long num_queries, bench::JsonOut &jout)
{
    const std::int64_t rows = 96;
    const std::int64_t dims = 768;
    arch::ArchSpec spec = arch::ArchSpec::dseSetup(16, arch::OptTarget::Base);
    spec.camType = arch::CamDeviceType::Mcam;
    spec.bitsPerCell = 2;
    const std::string source = apps::knnEuclideanSource(1, rows, dims, 1);

    core::CompilerOptions plan_options;
    plan_options.spec = spec;
    core::CompilerOptions walk_options = plan_options;
    walk_options.treeWalkExecution = true;

    core::Compiler plan_compiler(plan_options);
    core::CompiledKernel plan_kernel =
        plan_compiler.compileTorchScript(source);
    core::Compiler walk_compiler(walk_options);
    core::CompiledKernel walk_kernel =
        walk_compiler.compileTorchScript(source);

    Rng rng(29);
    std::vector<std::vector<float>> stored(
        static_cast<std::size_t>(rows),
        std::vector<float>(static_cast<std::size_t>(dims)));
    for (auto &row : stored)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : 0.0f;
    rt::BufferPtr stored_buf = rt::Buffer::fromMatrix(stored);

    std::vector<std::vector<rt::BufferPtr>> batches;
    batches.reserve(static_cast<std::size_t>(num_queries));
    for (long q = 0; q < num_queries; ++q)
        batches.push_back(
            {rt::Buffer::fromMatrix(
                 {stored[static_cast<std::size_t>(q) % stored.size()]}),
             stored_buf});

    // Warm-up runs stay outside the timed windows (first-touch
    // allocations, page faults); the gate compares steady state.
    core::ExecutionSession walk_session =
        walk_kernel.createSession(batches[0]);
    walk_session.runQuery(batches[0]);
    Clock::time_point start = Clock::now();
    std::vector<core::ExecutionResult> walk_results =
        walk_session.runBatch(batches);
    double walk_s = secondsSince(start);

    core::ExecutionSession plan_session =
        plan_kernel.createSession(batches[0]);
    plan_session.runQuery(batches[0]);
    start = Clock::now();
    std::vector<core::ExecutionResult> plan_results =
        plan_session.runBatch(batches);
    double plan_s = secondsSince(start);

    double n = static_cast<double>(num_queries);
    double speedup = plan_s > 0.0 ? walk_s / plan_s : 0.0;
    std::printf("Plan vs tree walk: %ld queries, kNN %lld x %lld on "
                "16x16 subarrays\n",
                num_queries, static_cast<long long>(rows),
                static_cast<long long>(dims));
    bench::rule();
    std::printf("%-28s %16s %16s\n", "", "tree-walk", "plan replay");
    std::printf("%-28s %16.3f %16.3f\n", "host wall-clock (s)", walk_s,
                plan_s);
    std::printf("%-28s %16.1f %16.1f\n", "host queries/sec", n / walk_s,
                n / plan_s);
    bench::rule();
    std::printf("plan replay speedup: %.2fx (gate: >= 3x)\n", speedup);

    // (b) bit-identical per-query simulated reports and answers.
    for (std::size_t q = 0; q < batches.size(); ++q) {
        if (plan_results[q].outputs[1].asBuffer()->toVector() !=
                walk_results[q].outputs[1].asBuffer()->toVector() ||
            !sameQueryCost(plan_results[q].perf, walk_results[q].perf)) {
            std::fprintf(stderr,
                         "FAIL: plan-replay query %zu diverges from the "
                         "tree walk\n",
                         q);
            return 1;
        }
    }
    std::printf("per-query reports bit-identical across back ends: OK\n");

    // (c) fused batching: totals must equal the sum of the serial
    // windows exactly, for K=4 chunks over a fresh session.
    core::ExecutionSession fused_session =
        plan_kernel.createSession(batches[0]);
    const std::size_t fused_k = 4;
    std::size_t fused_chunks = 0;
    for (std::size_t begin = 0; begin + fused_k <= batches.size();
         begin += fused_k) {
        ++fused_chunks;
        std::vector<std::vector<rt::BufferPtr>> chunk(
            batches.begin() + static_cast<std::ptrdiff_t>(begin),
            batches.begin() + static_cast<std::ptrdiff_t>(begin + fused_k));
        core::FusedBatchResult fused = fused_session.runFusedBatch(chunk);
        double lat = 0.0;
        double energy = 0.0;
        double drive = 0.0;
        std::int64_t searches = 0;
        for (std::size_t i = 0; i < fused_k; ++i) {
            const sim::PerfReport &serial =
                plan_results[begin + i].perf;
            lat += serial.queryLatencyNs;
            energy += serial.queryEnergyPj;
            drive += serial.driveEnergyPj;
            searches += serial.searches;
            if (!sameQueryCost(fused.results[i].perf, serial)) {
                std::fprintf(stderr,
                             "FAIL: fused query %zu diverges from its "
                             "serial window\n",
                             begin + i);
                return 1;
            }
        }
        if (fused.fused.total.latencyNs != lat ||
            fused.fused.total.energyPj != energy ||
            fused.fused.driveEnergyPj != drive ||
            fused.fused.searches != searches) {
            std::fprintf(stderr,
                         "FAIL: fused window totals != sum of serial "
                         "query windows (chunk at %zu)\n",
                         begin);
            return 1;
        }
    }
    if (fused_chunks == 0) {
        // Keep the self-checking contract honest: never print OK for
        // a check that could not run.
        std::fprintf(stderr,
                     "FAIL: --queries %ld is below the fused batch "
                     "width %zu; the fused check needs at least one "
                     "full chunk\n",
                     num_queries, fused_k);
        return 1;
    }
    std::printf("fused-batch totals equal the sum of serial windows: "
                "OK (%zu chunks of %zu)\n",
                fused_chunks, fused_k);

    jout.set("mode", std::string("plan_vs_treewalk"));
    jout.set("queries", n);
    jout.set("tree_walk_wall_s", walk_s);
    jout.set("plan_wall_s", plan_s);
    jout.set("tree_walk_qps", n / walk_s);
    jout.set("plan_qps", n / plan_s);
    jout.set("plan_speedup", speedup);
    jout.setReport("plan_aggregate",
                   plan_session.aggregateReport());

    if (speedup < 3.0) {
        std::fprintf(stderr,
                     "FAIL: plan replay speedup %.2fx is below the 3x "
                     "gate\n",
                     speedup);
        return 1;
    }
    return jout.write() ? 0 : 1;
}

/**
 * Fused-model gate: the same stream served as K=8 fused batches under
 * both sim::FusionModel regimes against the serial session reference.
 *
 * ExactSerial fused windows must match the serial sum bit for bit
 * (accounting re-attribution, no physics change); TrueFused windows
 * must come in strictly below it -- the precharge/drive of each
 * subarray is charged once per pass -- while outputs stay
 * bit-identical and the per-search sense/merge components are
 * unchanged. The energy-per-query figures land in BENCH_fused.json;
 * the CI perf gate archives them. @return process exit code.
 */
int
runFusedModel(const core::CompilerOptions &options,
              const std::string &source, core::CompiledKernel &kernel,
              const rt::BufferPtr &stored_buf,
              const std::vector<rt::BufferPtr> &queries, bench::JsonOut &jout)
{
    constexpr std::size_t kFusedK = 8;
    std::vector<std::vector<rt::BufferPtr>> batches;
    batches.reserve(queries.size());
    for (const rt::BufferPtr &query : queries)
        batches.push_back({query, stored_buf});
    if (batches.size() < kFusedK) {
        std::fprintf(stderr,
                     "FAIL: --fused-model needs at least %zu queries "
                     "for one K=%zu fused window, got %zu\n",
                     kFusedK, kFusedK, batches.size());
        return 1;
    }

    // Serial reference: one query window per query, full cost each.
    core::ExecutionSession serial_session = kernel.createSession(batches[0]);
    std::vector<core::ExecutionResult> serial =
        serial_session.runBatch(batches);

    core::CompilerOptions true_options = options;
    true_options.fusionModel = sim::FusionModel::TrueFused;
    core::Compiler true_compiler(true_options);
    core::CompiledKernel true_kernel =
        true_compiler.compileTorchScript(source);

    core::ExecutionSession exact_session =
        kernel.createSession(batches[0]);
    core::ExecutionSession true_session =
        true_kernel.createSession(batches[0]);

    double serial_lat = 0.0, serial_energy = 0.0, serial_drive = 0.0;
    double exact_lat = 0.0, exact_energy = 0.0;
    double true_lat = 0.0, true_energy = 0.0, true_drive = 0.0;
    std::size_t chunks = 0;
    std::size_t covered = 0;
    for (std::size_t begin = 0; begin + kFusedK <= batches.size();
         begin += kFusedK) {
        ++chunks;
        covered += kFusedK;
        std::vector<std::vector<rt::BufferPtr>> chunk(
            batches.begin() + static_cast<std::ptrdiff_t>(begin),
            batches.begin() + static_cast<std::ptrdiff_t>(begin + kFusedK));

        // Per-chunk serial sums (the comparison baseline).
        double lat = 0.0, energy = 0.0, drive = 0.0, cell = 0.0;
        double sense = 0.0, merge = 0.0;
        std::int64_t searches = 0;
        for (std::size_t i = 0; i < kFusedK; ++i) {
            const sim::PerfReport &q = serial[begin + i].perf;
            lat += q.queryLatencyNs;
            energy += q.queryEnergyPj;
            drive += q.driveEnergyPj;
            cell += q.cellEnergyPj;
            sense += q.senseEnergyPj;
            merge += q.mergeEnergyPj;
            searches += q.searches;
        }
        serial_lat += lat;
        serial_energy += energy;
        serial_drive += drive;

        // ExactSerial fused window: bit-identical to the serial sum.
        core::FusedBatchResult exact = exact_session.runFusedBatch(chunk);
        if (exact.fused.total.latencyNs != lat ||
            exact.fused.total.energyPj != energy ||
            exact.fused.driveEnergyPj != drive ||
            exact.fused.searches != searches) {
            std::fprintf(stderr,
                         "FAIL: exact-serial fused totals != serial sum "
                         "(chunk at %zu)\n",
                         begin);
            return 1;
        }
        exact_lat += exact.fused.total.latencyNs;
        exact_energy += exact.fused.total.energyPj;

        // TrueFused window: outputs identical, totals strictly below,
        // per-search sense/merge components unchanged.
        core::FusedBatchResult fused = true_session.runFusedBatch(chunk);
        for (std::size_t i = 0; i < kFusedK; ++i) {
            const core::ExecutionResult &ref = serial[begin + i];
            if (fused.results[i].outputs[1].asBuffer()->toVector() !=
                    ref.outputs[1].asBuffer()->toVector() ||
                exact.results[i].outputs[1].asBuffer()->toVector() !=
                    ref.outputs[1].asBuffer()->toVector()) {
                std::fprintf(stderr,
                             "FAIL: fused query %zu output diverges "
                             "from serial serving\n",
                             begin + i);
                return 1;
            }
            if (!sameQueryCost(exact.results[i].perf, ref.perf)) {
                std::fprintf(stderr,
                             "FAIL: exact-serial fused query %zu report "
                             "diverges from its serial window\n",
                             begin + i);
                return 1;
            }
        }
        if (!(fused.fused.total.energyPj < energy) ||
            !(fused.fused.total.latencyNs < lat) ||
            !(fused.fused.driveEnergyPj < drive) ||
            !(fused.fused.cellEnergyPj < cell)) {
            std::fprintf(stderr,
                         "FAIL: true-fused totals are not strictly "
                         "below the serial sum (chunk at %zu)\n",
                         begin);
            return 1;
        }
        if (fused.fused.senseEnergyPj != sense ||
            fused.fused.mergeEnergyPj != merge ||
            fused.fused.searches != searches) {
            std::fprintf(stderr,
                         "FAIL: true-fused sense/merge/search components "
                         "changed (chunk at %zu); the model may only "
                         "drop drive/precharge cost\n",
                         begin);
            return 1;
        }
        if (fused.fusedReport.fusedBatchK !=
            static_cast<std::int64_t>(kFusedK)) {
            std::fprintf(stderr,
                         "FAIL: true-fused report claims K=%lld, served "
                         "%zu\n",
                         static_cast<long long>(
                             fused.fusedReport.fusedBatchK),
                         kFusedK);
            return 1;
        }
        true_lat += fused.fused.total.latencyNs;
        true_energy += fused.fused.total.energyPj;
        true_drive += fused.fused.driveEnergyPj;
    }

    const double n = static_cast<double>(covered);
    const double energy_savings = 1.0 - true_energy / serial_energy;
    const double latency_savings = 1.0 - true_lat / serial_lat;
    std::printf("Fused-model gate: %zu chunks of K=%zu (%zu of %zu "
                "queries)\n",
                chunks, kFusedK, covered, batches.size());
    bench::rule();
    std::printf("%-26s %14s %14s %14s\n", "", "serial",
                "fused (exact)", "fused (true)");
    std::printf("%-26s %14.3f %14.3f %14.3f\n", "energy/query (pJ)",
                serial_energy / n, exact_energy / n, true_energy / n);
    std::printf("%-26s %14.3f %14.3f %14.3f\n", "latency/query (ns)",
                serial_lat / n, exact_lat / n, true_lat / n);
    std::printf("%-26s %14.3f %14s %14.3f\n", "drive energy/query (pJ)",
                serial_drive / n, "=serial", true_drive / n);
    bench::rule();
    std::printf("exact-serial fused == serial sum (bit-identical): OK\n");
    std::printf("true-fused energy %.1f%% below serial, latency %.1f%% "
                "below (gate: strictly below)\n",
                energy_savings * 100.0, latency_savings * 100.0);
    std::printf("outputs bit-identical to serial serving (both "
                "models): OK\n");

    jout.set("mode", std::string("fused_model"));
    jout.set("queries", n);
    jout.set("fused_k", double(kFusedK));
    jout.set("serial_energy_per_query_pj", serial_energy / n);
    jout.set("exact_fused_energy_per_query_pj", exact_energy / n);
    jout.set("true_fused_energy_per_query_pj", true_energy / n);
    jout.set("serial_latency_per_query_ns", serial_lat / n);
    jout.set("true_fused_latency_per_query_ns", true_lat / n);
    jout.set("serial_drive_energy_per_query_pj", serial_drive / n);
    jout.set("true_fused_drive_energy_per_query_pj", true_drive / n);
    jout.set("energy_savings", energy_savings);
    jout.set("latency_savings", latency_savings);
    return jout.write() ? 0 : 1;
}

/**
 * Thread-scaling mode. @return process exit code.
 */
int
runScaling(core::CompiledKernel &kernel, const rt::BufferPtr &stored_buf,
           const std::vector<rt::BufferPtr> &queries,
           bench::JsonOut &jout)
{
    std::vector<std::vector<rt::BufferPtr>> batches;
    batches.reserve(queries.size());
    for (const rt::BufferPtr &query : queries)
        batches.push_back({query, stored_buf});

    // Serial reference: one persistent session, same stream. The
    // clock covers the serving loop only -- session creation (setup
    // interpretation) stays outside, exactly like engine construction
    // and replica cloning stay outside the engine's timed window, so
    // the speedup column compares steady-state serving throughput.
    core::ExecutionSession session =
        kernel.createSession({queries[0], stored_buf});
    Clock::time_point start = Clock::now();
    std::vector<core::ExecutionResult> serial = session.runBatch(batches);
    double serial_s = secondsSince(start);
    double serial_qps = static_cast<double>(queries.size()) / serial_s;

    unsigned hw = std::thread::hardware_concurrency();
    std::printf("Thread scaling: %zu queries, %u hardware threads\n",
                queries.size(), hw);
    bench::rule();
    std::printf("%-10s %14s %12s %12s %12s\n", "workers", "wall qps",
                "vs serial", "p50 (us)", "p95 (us)");
    std::printf("%-10s %14.1f %12s %12s %12s\n", "serial", serial_qps,
                "1.00x", "-", "-");

    double qps4 = 0.0;
    for (int workers : {1, 2, 4, 8}) {
        auto engine =
            kernel.createServingEngine({queries[0], stored_buf}, workers);
        start = Clock::now();
        std::vector<core::ExecutionResult> threaded = serveClosedLoop(
            batches, workers,
            [&](const std::vector<rt::BufferPtr> &args) {
                return engine->serve(args);
            });
        double batch_s = secondsSince(start);
        double qps = static_cast<double>(queries.size()) / batch_s;
        core::ServingStats stats = engine->stats();
        if (workers == 4)
            qps4 = qps;
        std::printf("%-10d %14.1f %11.2fx %12.1f %12.1f\n", workers, qps,
                    qps / serial_qps, stats.p50LatencyUs,
                    stats.p95LatencyUs);

        // Bit-identical serving invariant: answers and per-query cost
        // reports match the serial session exactly, per query.
        for (std::size_t q = 0; q < batches.size(); ++q) {
            if (threaded[q].outputs[1].asBuffer()->toVector() !=
                    serial[q].outputs[1].asBuffer()->toVector() ||
                !sameQueryCost(threaded[q].perf, serial[q].perf)) {
                std::fprintf(stderr,
                             "FAIL: %d-worker result %zu diverges from "
                             "the serial session\n",
                             workers, q);
                return 1;
            }
        }
        sim::PerfReport aggregate = engine->stats().aggregate;
        if (aggregate.setupLatencyNs !=
            session.aggregateReport().setupLatencyNs) {
            std::fprintf(stderr,
                         "FAIL: %d-worker engine pays setup differently "
                         "from the serial session\n",
                         workers);
            return 1;
        }
    }
    bench::rule();

    jout.set("mode", std::string("scaling"));
    jout.set("queries", double(queries.size()));
    jout.set("serial_qps", serial_qps);
    jout.set("qps_4_workers", qps4);
    jout.set("hardware_threads", double(hw));

    if (hw >= 4) {
        if (qps4 <= 1.5 * serial_qps) {
            std::fprintf(stderr,
                         "FAIL: 4-worker qps %.1f is not > 1.5x serial "
                         "qps %.1f\n",
                         qps4, serial_qps);
            return 1;
        }
        std::printf("4-worker speedup %.2fx > 1.5x serial: OK\n",
                    qps4 / serial_qps);
    } else {
        std::printf("SKIP: %u hardware threads (< 4); scaling gate "
                    "needs a multi-core host, correctness checks ran\n",
                    hw);
    }
    return jout.write() ? 0 : 1;
}

/**
 * Async-front-end gate: open-loop and closed-loop arrival modes vs
 * the synchronous baseline (W caller threads on ServingEngine::serve).
 * @return process exit code.
 */
int
runAsync(core::CompiledKernel &kernel, const rt::BufferPtr &stored_buf,
         const std::vector<rt::BufferPtr> &queries, int workers,
         bench::JsonOut &jout)
{
    std::vector<std::vector<rt::BufferPtr>> batches;
    batches.reserve(queries.size());
    for (const rt::BufferPtr &query : queries)
        batches.push_back({query, stored_buf});
    const double n = static_cast<double>(queries.size());

    // Serial reference for the bit-identity contract.
    core::ExecutionSession session =
        kernel.createSession({queries[0], stored_buf});
    std::vector<core::ExecutionResult> serial = session.runBatch(batches);

    auto check_identical =
        [&](const std::vector<core::ExecutionResult> &results,
            const char *mode) {
            for (std::size_t q = 0; q < batches.size(); ++q) {
                if (results[q].outputs[1].asBuffer()->toVector() !=
                        serial[q].outputs[1].asBuffer()->toVector() ||
                    !sameQueryCost(results[q].perf, serial[q].perf)) {
                    std::fprintf(stderr,
                                 "FAIL: %s result %zu diverges from "
                                 "serial session replay\n",
                                 mode, q);
                    return false;
                }
            }
            return true;
        };

    // Sync baseline: the same replicas, each driven by its own caller
    // thread -- the closed-loop async leg below minus the queue.
    double sync_qps = 0.0;
    {
        auto engine =
            kernel.createServingEngine({queries[0], stored_buf}, workers);
        Clock::time_point start = Clock::now();
        std::vector<core::ExecutionResult> results = serveClosedLoop(
            batches, workers,
            [&](const std::vector<rt::BufferPtr> &args) {
                return engine->serve(args);
            });
        double wall_s = secondsSince(start);
        sync_qps = n / wall_s;
        if (!check_identical(results, "sync serve"))
            return 1;
    }

    // Open loop: submissions arrive as fast as the bounded queue
    // admits them; the dispatchers micro-batch whatever piles up.
    double open_qps = 0.0;
    core::AsyncServingStats open_stats;
    {
        core::AsyncServingOptions options;
        options.queueCapacity = 64;
        auto engine = kernel.createAsyncServingEngine(
            {queries[0], stored_buf}, workers, options);
        Clock::time_point start = Clock::now();
        std::vector<std::future<core::ExecutionResult>> futures =
            engine->submitBatch(batches);
        std::vector<core::ExecutionResult> results;
        results.reserve(futures.size());
        for (auto &future : futures)
            results.push_back(future.get());
        double wall_s = secondsSince(start);
        open_qps = n / wall_s;
        open_stats = engine->stats();
        if (!check_identical(results, "open-loop async"))
            return 1;
    }

    // Closed loop: W submitters, each waits for its completion before
    // the next arrival, so offered concurrency == W by construction.
    double closed_qps = 0.0;
    core::AsyncServingStats closed_stats;
    {
        core::AsyncServingOptions options;
        options.queueCapacity = 64;
        auto engine = kernel.createAsyncServingEngine(
            {queries[0], stored_buf}, workers, options);
        Clock::time_point start = Clock::now();
        std::vector<core::ExecutionResult> results = serveClosedLoop(
            batches, workers,
            [&](const std::vector<rt::BufferPtr> &args) {
                return engine->submit(args).get();
            });
        double wall_s = secondsSince(start);
        closed_qps = n / wall_s;
        closed_stats = engine->stats();
        if (!check_identical(results, "closed-loop async"))
            return 1;
    }

    std::printf("Async serving: %zu queries, %d workers/replicas\n",
                queries.size(), workers);
    bench::rule();
    std::printf("%-22s %12s %12s %14s %14s\n", "mode", "wall qps",
                "vs sync", "p50 wait (us)", "p95 exec (us)");
    std::printf("%-22s %12.1f %12s %14s %14s\n", "sync serve",
                sync_qps, "1.00x", "-", "-");
    std::printf("%-22s %12.1f %11.2fx %14.1f %14.1f\n", "async open-loop",
                open_qps, open_qps / sync_qps,
                open_stats.p50EnqueueWaitUs, open_stats.p95ExecuteUs);
    std::printf("%-22s %12.1f %11.2fx %14.1f %14.1f\n",
                "async closed-loop", closed_qps, closed_qps / sync_qps,
                closed_stats.p50EnqueueWaitUs,
                closed_stats.p95ExecuteUs);
    bench::rule();
    std::printf("open-loop micro-batching: %lld fused windows covering "
                "%lld queries, %lld single dispatches\n",
                static_cast<long long>(open_stats.fusedWindows),
                static_cast<long long>(open_stats.fusedQueries),
                static_cast<long long>(open_stats.singleDispatches));
    std::printf("per-query reports bit-identical to serial replay "
                "(all modes): OK\n");

    jout.set("mode", std::string("async"));
    jout.set("queries", n);
    jout.set("workers", double(workers));
    jout.set("sync_qps", sync_qps);
    jout.set("async_open_loop_qps", open_qps);
    jout.set("async_closed_loop_qps", closed_qps);
    jout.set("open_loop_vs_sync", open_qps / sync_qps);
    jout.set("open_fused_windows", double(open_stats.fusedWindows));
    jout.set("open_fused_queries", double(open_stats.fusedQueries));
    jout.set("open_p50_wait_us", open_stats.p50EnqueueWaitUs);
    jout.set("open_p95_wait_us", open_stats.p95EnqueueWaitUs);
    jout.set("open_p50_exec_us", open_stats.p50ExecuteUs);
    jout.set("open_p95_exec_us", open_stats.p95ExecuteUs);

    // The qps gate needs enough queries to average out scheduler
    // noise; tiny sanitizer smoke runs (correctness-only) skip it,
    // like the 5x session gate skips below 64 queries.
    if (queries.size() >= 32) {
        if (open_qps < 0.9 * sync_qps) {
            std::fprintf(stderr,
                         "FAIL: open-loop async qps %.1f fell below "
                         "0.9x the sync qps %.1f at %d workers\n",
                         open_qps, sync_qps, workers);
            return 1;
        }
        std::printf("open-loop async qps %.2fx sync (gate: >= 0.9x): "
                    "OK\n",
                    open_qps / sync_qps);
    } else {
        std::printf("SKIP: %zu queries (< 32) is below the qps-gate "
                    "sample floor; bit-identity checks ran\n",
                    queries.size());
    }
    return jout.write() ? 0 : 1;
}

/**
 * Chaos leg: availability and throughput under seeded transient fault
 * injection. The async front end serves the stream over a
 * ServingEngine carrying a bounded-backoff retry policy while a
 * sim::FaultInjector fails a fraction of searches at entry; every
 * query that completes must stay bit-identical to the fault-free
 * serial reference (recovery may cost latency, never correctness).
 * Sweeps @p rates and self-gates availability >= 99% at rates
 * <= 0.1% -- the bound the CI perf job enforces on BENCH_chaos.json.
 * @return process exit code.
 */
int
runChaos(core::CompiledKernel &kernel, const rt::BufferPtr &stored_buf,
         const std::vector<rt::BufferPtr> &queries, int workers,
         const std::vector<double> &rates, bench::JsonOut &jout)
{
    std::vector<std::vector<rt::BufferPtr>> batches;
    batches.reserve(queries.size());
    for (const rt::BufferPtr &query : queries)
        batches.push_back({query, stored_buf});
    const double n = static_cast<double>(queries.size());

    // Fault-free serial reference for the bit-identity contract.
    core::ExecutionSession session =
        kernel.createSession({queries[0], stored_buf});
    std::vector<core::ExecutionResult> serial = session.runBatch(batches);

    constexpr int kAttempts = 4;
    std::printf("Chaos serving: %zu queries, %d workers/replicas, "
                "retry budget %d attempts\n",
                queries.size(), workers, kAttempts);
    bench::rule();
    std::printf("%-12s %12s %14s %10s %10s %10s\n", "fault rate",
                "wall qps", "availability", "injected", "retries",
                "failed");

    jout.set("mode", std::string("chaos"));
    jout.set("queries", n);
    jout.set("workers", double(workers));
    jout.set("retry_attempts", double(kAttempts));

    bool gate_ok = true;
    for (std::size_t r = 0; r < rates.size(); ++r) {
        const double rate = rates[r];
        // One deterministic injector per leg: seed varies by leg index
        // so the legs draw independent fault streams, yet a failing
        // leg replays exactly from its printed rate + position.
        sim::FaultSpec spec;
        spec.seed = 0xC4A0500ull + r;
        spec.transientRate = rate;
        auto injector = std::make_shared<sim::FaultInjector>(spec);

        core::AsyncServingOptions options;
        options.queueCapacity = 64;
        auto engine = kernel.createAsyncServingEngine(
            {queries[0], stored_buf}, workers, options);
        auto *serving =
            dynamic_cast<core::ServingEngine *>(&engine->backend());
        if (!serving) {
            std::fprintf(stderr,
                         "FAIL: async backend is not a ServingEngine\n");
            return 1;
        }
        core::RetryPolicy policy;
        policy.maxAttempts = kAttempts;
        policy.backoffUs = 50;
        serving->setRetryPolicy(policy);
        if (rate > 0.0)
            serving->attachFaultInjector(injector);

        std::size_t ok = 0;
        std::size_t failed = 0;
        Clock::time_point start = Clock::now();
        std::vector<std::future<core::ExecutionResult>> futures =
            engine->submitBatch(batches);
        for (std::size_t q = 0; q < futures.size(); ++q) {
            try {
                core::ExecutionResult result = futures[q].get();
                if (result.outputs[1].asBuffer()->toVector() !=
                        serial[q].outputs[1].asBuffer()->toVector() ||
                    !sameQueryCost(result.perf, serial[q].perf)) {
                    std::fprintf(stderr,
                                 "FAIL: recovered result %zu diverges "
                                 "from the fault-free serial replay at "
                                 "fault rate %g\n",
                                 q, rate);
                    return 1;
                }
                ++ok;
            } catch (const CompilerError &) {
                ++failed; // retry budget exhausted for this query
            }
        }
        double wall_s = secondsSince(start);
        double qps = n / wall_s;
        double availability = static_cast<double>(ok) / n;
        core::AsyncServingStats stats = engine->stats();
        std::int64_t injected = injector->stats().transientsFired;

        std::printf("%-12g %12.1f %13.1f%% %10lld %10lld %10zu\n", rate,
                    qps, availability * 100.0,
                    static_cast<long long>(injected),
                    static_cast<long long>(stats.serving.retries),
                    failed);

        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "rate_%g_", rate);
        jout.set(std::string(prefix) + "qps", qps);
        jout.set(std::string(prefix) + "availability", availability);
        jout.set(std::string(prefix) + "injected", double(injected));
        jout.set(std::string(prefix) + "retries",
                 double(stats.serving.retries));
        jout.set(std::string(prefix) + "failed", double(failed));

        // The CI chaos gate: at modest fault rates the retry budget
        // must absorb essentially everything. A serve touches ~128
        // searches (one per stored row), so at 0.1% per search an
        // attempt fails with p ~= 0.12 and a query exhausts all 4
        // attempts with p ~= 2e-4 -- two orders of magnitude inside
        // the 1% failure allowance, so the gate is not flaky.
        if (rate <= 0.001 && availability < 0.99) {
            std::fprintf(stderr,
                         "FAIL: availability %.2f%% at fault rate %g "
                         "fell below the 99%% gate\n",
                         availability * 100.0, rate);
            gate_ok = false;
        }
    }
    bench::rule();
    if (!gate_ok)
        return 1;
    std::printf("completed results bit-identical to the fault-free "
                "serial replay (all rates): OK\n");
    return jout.write() ? 0 : 1;
}

/**
 * Sharded-serving sweep: the stream served through core::ShardedEngine
 * at 1, 2, 4, ... up to @p max_shards shards, closed-loop at
 * @p workers submitters (replicasPerShard == workers, so offered
 * concurrency has a replica to land on in every shard). @return
 * process exit code.
 */
int
runSharded(const core::CompilerOptions &options, const std::string &source,
           core::CompiledKernel &kernel, const rt::BufferPtr &stored_buf,
           const std::vector<rt::BufferPtr> &queries, int max_shards,
           int workers, bench::JsonOut &jout)
{
    std::vector<std::vector<rt::BufferPtr>> batches;
    batches.reserve(queries.size());
    for (const rt::BufferPtr &query : queries)
        batches.push_back({query, stored_buf});
    const double n = static_cast<double>(queries.size());

    // Serial single-device reference: the bit-identity baseline and
    // the qps denominator.
    core::ExecutionSession session =
        kernel.createSession({queries[0], stored_buf});
    Clock::time_point start = Clock::now();
    std::vector<core::ExecutionResult> serial = session.runBatch(batches);
    double serial_qps = n / secondsSince(start);

    // 1, 2, 4, ... capped at max_shards (always swept last so the
    // exact M the caller asked for is measured even off the power-of-2
    // grid).
    std::vector<int> sweep;
    for (int s = 1; s < max_shards; s *= 2)
        sweep.push_back(s);
    sweep.push_back(max_shards);

    std::printf("Sharded serving: %zu queries, %d closed-loop "
                "submitters, replicasPerShard = %d\n",
                queries.size(), workers, workers);
    bench::rule();
    std::printf("%-10s %14s %12s %12s %12s\n", "shards", "wall qps",
                "vs serial", "p50 (us)", "p95 (us)");
    std::printf("%-10s %14.1f %12s %12s %12s\n", "serial", serial_qps,
                "1.00x", "-", "-");

    jout.set("mode", std::string("sharded"));
    jout.set("queries", n);
    jout.set("workers", double(workers));
    jout.set("max_shards", double(max_shards));
    jout.set("serial_qps", serial_qps);

    for (int shards : sweep) {
        core::ShardedEngineOptions sharding;
        sharding.shards = shards;
        sharding.replicasPerShard = workers;
        std::unique_ptr<core::ShardedEngine> engine;
        try {
            engine = std::make_unique<core::ShardedEngine>(
                options, source, batches[0], sharding);
        } catch (const CompilerError &err) {
            std::fprintf(stderr,
                         "FAIL: cannot build the %d-shard engine: %s\n",
                         shards, err.what());
            return 1;
        }

        start = Clock::now();
        std::vector<core::ExecutionResult> results = serveClosedLoop(
            batches, workers,
            [&](const std::vector<rt::BufferPtr> &args) {
                return engine->serve(args);
            });
        double qps = n / secondsSince(start);
        core::ServingStats stats = engine->stats();
        std::printf("%-10d %14.1f %11.2fx %12.1f %12.1f\n", shards, qps,
                    qps / serial_qps, stats.p50LatencyUs,
                    stats.p95LatencyUs);

        // The contract the shard split must never bend: merged top-k
        // values AND global indices bit-identical to the single big
        // device, per query.
        for (std::size_t q = 0; q < batches.size(); ++q) {
            if (results[q].outputs[0].asBuffer()->toVector() !=
                    serial[q].outputs[0].asBuffer()->toVector() ||
                results[q].outputs[1].asBuffer()->toVector() !=
                    serial[q].outputs[1].asBuffer()->toVector()) {
                std::fprintf(stderr,
                             "FAIL: %d-shard result %zu diverges from "
                             "the single-device session\n",
                             shards, q);
                return 1;
            }
            // Aggregated latency is the max over shards; each shard
            // searches fewer rows than the whole device, so the
            // sharded query can never be simulated-slower.
            if (results[q].perf.queryLatencyNs >
                serial[q].perf.queryLatencyNs) {
                std::fprintf(stderr,
                             "FAIL: %d-shard query %zu is simulated-"
                             "slower than the single device\n",
                             shards, q);
                return 1;
            }
        }

        jout.set("qps_shards_" + std::to_string(shards), qps);
        jout.set("speedup_shards_" + std::to_string(shards),
                 qps / serial_qps);
        if (shards == max_shards)
            jout.setReport("sharded_aggregate", stats.aggregate);
    }
    bench::rule();
    std::printf("merged outputs bit-identical to the single device "
                "(all shard counts): OK\n");
    return jout.write() ? 0 : 1;
}

/**
 * Trace-driven open-loop replay: re-inject the "admit" arrival
 * timestamps recorded in @p replay_path (a c4cam-trace-v1 document)
 * through an AsyncServingEngine. @return process exit code.
 */
int
runReplay(core::CompiledKernel &kernel, const rt::BufferPtr &stored_buf,
          const std::vector<std::vector<float>> &stored,
          const std::string &replay_path, double time_scale,
          long query_cap, int workers, const std::string &trace_out,
          bench::JsonOut &jout)
{
    // Arrival schedule: the start_us of every "admit" span, in record
    // order. Only the offsets matter -- the first arrival anchors t=0.
    std::vector<double> arrivals_us;
    try {
        JsonValue doc = parseJsonFile(replay_path);
        if (doc.getString("schema", "") != "c4cam-trace-v1") {
            std::fprintf(stderr,
                         "--replay: %s is not a c4cam-trace-v1 "
                         "document\n",
                         replay_path.c_str());
            return 1;
        }
        const JsonValue *spans = doc.find("spans");
        if (spans) {
            for (const JsonValue &span : spans->asArray())
                if (span.getString("name", "") == "admit")
                    arrivals_us.push_back(
                        span.find("start_us")->asNumber());
        }
    } catch (const CompilerError &err) {
        std::fprintf(stderr, "--replay: cannot read %s: %s\n",
                     replay_path.c_str(), err.what());
        return 1;
    }
    if (arrivals_us.empty()) {
        std::fprintf(stderr,
                     "--replay: %s contains no \"admit\" spans to "
                     "replay\n",
                     replay_path.c_str());
        return 1;
    }
    std::sort(arrivals_us.begin(), arrivals_us.end());
    if (query_cap > 0 &&
        arrivals_us.size() > static_cast<std::size_t>(query_cap))
        arrivals_us.resize(static_cast<std::size_t>(query_cap));
    const std::size_t n = arrivals_us.size();
    const double base_us = arrivals_us.front();
    std::vector<double> offsets_us(n);
    for (std::size_t i = 0; i < n; ++i)
        offsets_us[i] = (arrivals_us[i] - base_us) * time_scale;
    const double span_s = offsets_us.back() * 1e-6;

    // One query buffer per arrival (stored rows cycled); the serial
    // reference is computed once per distinct row.
    const std::size_t rows = stored.size();
    std::vector<std::vector<rt::BufferPtr>> batches;
    batches.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        batches.push_back(
            {rt::Buffer::fromMatrix({stored[i % rows]}), stored_buf});
    core::ExecutionSession session = kernel.createSession(batches[0]);
    std::vector<core::ExecutionResult> row_ref(std::min(rows, n));
    for (std::size_t r = 0; r < row_ref.size(); ++r)
        row_ref[r] = session.runQuery(batches[r]);

    std::unique_ptr<support::TraceCollector> collector;
    if (!trace_out.empty())
        collector = std::make_unique<support::TraceCollector>();

    // Open loop: a single injector offers query i at its recorded
    // offset, regardless of completions. The block policy makes the
    // queue bound the only backpressure, so a recorded burst that
    // outruns the replicas piles up in the admission queue exactly
    // like it did when the trace was taken.
    core::AsyncServingOptions options;
    options.queueCapacity = 64;
    options.trace = collector.get();
    auto engine =
        kernel.createAsyncServingEngine(batches[0], workers, options);
    std::vector<std::future<core::ExecutionResult>> futures;
    futures.reserve(n);
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(
                        static_cast<std::int64_t>(offsets_us[i])));
        futures.push_back(engine->submit(batches[i]));
    }
    double inject_s = secondsSince(start);
    std::vector<core::ExecutionResult> results;
    results.reserve(n);
    for (auto &future : futures)
        results.push_back(future.get());
    double wall_s = secondsSince(start);
    engine->drain();
    core::AsyncServingStats stats = engine->stats();

    for (std::size_t i = 0; i < n; ++i) {
        const core::ExecutionResult &ref = row_ref[i % rows];
        if (results[i].outputs[1].asBuffer()->toVector() !=
                ref.outputs[1].asBuffer()->toVector() ||
            !sameQueryCost(results[i].perf, ref.perf)) {
            std::fprintf(stderr,
                         "FAIL: replayed query %zu diverges from "
                         "serial session replay\n",
                         i);
            return 1;
        }
    }

    const double offered_qps =
        span_s > 0.0 ? static_cast<double>(n) / span_s : 0.0;
    const double achieved_qps = static_cast<double>(n) / wall_s;
    std::printf("Trace replay: %zu arrivals from %s over %.3f s "
                "(time scale %g), %d workers\n",
                n, replay_path.c_str(), span_s, time_scale, workers);
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
                "windows covering %lld queries, %lld single "
                "dispatches\n",
                static_cast<long long>(stats.fusedWindows),
                static_cast<long long>(stats.fusedQueries),
                static_cast<long long>(stats.singleDispatches));
    std::printf("per-query reports bit-identical to serial replay: "
                "OK\n");

    if (collector && !collector->writeFile(trace_out)) {
        std::fprintf(stderr, "cannot write --trace-out file '%s'\n",
                     trace_out.c_str());
        return 1;
    }
    if (collector)
        std::printf("replay trace: %zu spans -> %s\n", collector->size(),
                    trace_out.c_str());

    jout.set("mode", std::string("replay"));
    jout.set("trace", replay_path);
    jout.set("queries", double(n));
    jout.set("time_scale", time_scale);
    jout.set("trace_span_s", span_s);
    jout.set("offered_qps", offered_qps);
    jout.set("achieved_qps", achieved_qps);
    jout.set("completion_wall_s", wall_s);
    jout.set("p50_enqueue_wait_us", stats.p50EnqueueWaitUs);
    jout.set("p95_enqueue_wait_us", stats.p95EnqueueWaitUs);
    jout.set("p50_execute_us", stats.p50ExecuteUs);
    jout.set("p95_execute_us", stats.p95ExecuteUs);
    jout.set("fused_windows", double(stats.fusedWindows));
    jout.set("fused_queries", double(stats.fusedQueries));
    jout.set("single_dispatches", double(stats.singleDispatches));
    return jout.write() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    long long num_queries = 64;
    bool queries_set = false;
    long long workers = 4;
    long long shards = 0;
    bool shards_set = false;
    bool scaling = false;
    bool plan_vs_treewalk = false;
    bool async = false;
    bool chaos = false;
    bool fused_model = false;
    double fault_rate = 0.0;
    bool fault_rate_set = false;
    std::string replay_path;
    double time_scale = 1.0;
    bool time_scale_set = false;
    std::string trace_out;
    bench::JsonOut jout;
    auto usage = [] {
        std::fprintf(stderr,
                     "usage: bench_serving_throughput [--queries N] "
                     "[--scaling] [--plan-vs-treewalk] [--async] "
                     "[--fused-model] "
                     "[--shards M] [--chaos] [--fault-rate X] "
                     "[--replay TRACE.json] [--time-scale S] "
                     "[--trace-out FILE] [--workers W] "
                     "[--json-out FILE]\n");
        return 2;
    };
    auto bad_flag = [&usage](const char *flag, const char *value) {
        std::fprintf(stderr, "%s: bad value: %s\n", flag,
                     value ? value : "(missing)");
        return usage();
    };
    for (int i = 1; i < argc; ++i) {
        if (jout.tryParseArg(argc, argv, i))
            continue;
        support::FlagParse fp;
        if ((fp = support::parseIntFlag(argc, argv, i, "--queries",
                                        num_queries, 1)) !=
            support::FlagParse::NoMatch) {
            if (fp == support::FlagParse::Bad)
                return bad_flag("--queries",
                                i < argc ? argv[i] : nullptr);
            queries_set = true;
        } else if ((fp = support::parseIntFlag(argc, argv, i,
                                               "--workers", workers, 1,
                                               256)) !=
                   support::FlagParse::NoMatch) {
            if (fp == support::FlagParse::Bad)
                return bad_flag("--workers",
                                i < argc ? argv[i] : nullptr);
        } else if ((fp = support::parseIntFlag(argc, argv, i,
                                               "--shards", shards, 1,
                                               1024)) !=
                   support::FlagParse::NoMatch) {
            if (fp == support::FlagParse::Bad)
                return bad_flag("--shards",
                                i < argc ? argv[i] : nullptr);
            shards_set = true;
        } else if ((fp = support::parseDoubleFlag(argc, argv, i,
                                                  "--fault-rate",
                                                  fault_rate, 0.0, 1.0)) !=
                   support::FlagParse::NoMatch) {
            if (fp == support::FlagParse::Bad)
                return bad_flag("--fault-rate",
                                i < argc ? argv[i] : nullptr);
            fault_rate_set = true;
        } else if ((fp = support::parseDoubleFlag(
                        argc, argv, i, "--time-scale", time_scale,
                        std::numeric_limits<double>::min())) !=
                   support::FlagParse::NoMatch) {
            if (fp == support::FlagParse::Bad)
                return bad_flag("--time-scale",
                                i < argc ? argv[i] : nullptr);
            time_scale_set = true;
        } else if (std::strcmp(argv[i], "--scaling") == 0) {
            scaling = true;
        } else if (std::strcmp(argv[i], "--async") == 0) {
            async = true;
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            chaos = true;
        } else if (std::strcmp(argv[i], "--fused-model") == 0) {
            fused_model = true;
        } else if (std::strcmp(argv[i], "--plan-vs-treewalk") == 0) {
            plan_vs_treewalk = true;
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            if (i + 1 >= argc)
                return usage();
            replay_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            if (i + 1 >= argc)
                return usage();
            trace_out = argv[++i];
        } else {
            return usage();
        }
    }
    if (!replay_path.empty() &&
        (scaling || plan_vs_treewalk || async || shards_set || chaos ||
         fused_model)) {
        std::fprintf(stderr,
                     "--replay is its own mode; drop --scaling/"
                     "--plan-vs-treewalk/--async/--shards/--chaos/"
                     "--fused-model\n");
        return usage();
    }
    if (shards_set &&
        (scaling || plan_vs_treewalk || async || chaos || fused_model)) {
        std::fprintf(stderr,
                     "--shards is its own mode; drop --scaling/"
                     "--plan-vs-treewalk/--async/--chaos/"
                     "--fused-model\n");
        return usage();
    }
    if (chaos && (scaling || plan_vs_treewalk || async || fused_model)) {
        std::fprintf(stderr,
                     "--chaos is its own mode; drop --scaling/"
                     "--plan-vs-treewalk/--async/--fused-model\n");
        return usage();
    }
    if (fused_model && (scaling || plan_vs_treewalk || async)) {
        std::fprintf(stderr,
                     "--fused-model is its own mode; drop --scaling/"
                     "--plan-vs-treewalk/--async\n");
        return usage();
    }
    if (fault_rate_set && !chaos) {
        std::fprintf(stderr, "--fault-rate requires --chaos\n");
        return usage();
    }
    if (replay_path.empty() && (time_scale_set || !trace_out.empty())) {
        std::fprintf(stderr, "--time-scale/--trace-out require "
                             "--replay\n");
        return usage();
    }
    if (plan_vs_treewalk)
        return runPlanVsTreeWalk(static_cast<long>(num_queries), jout);

    // A small HDC-style workload: 128 stored vectors of 1024 bits,
    // one query per serving request.
    const std::int64_t rows = 128;
    const std::int64_t dims = 1024;
    arch::ArchSpec spec = arch::ArchSpec::dseSetup(32, arch::OptTarget::Base);

    core::CompilerOptions options;
    options.spec = spec;
    core::Compiler compiler(options);
    const std::string source = apps::dotSimilaritySource(1, rows, dims, 1);
    core::CompiledKernel kernel = compiler.compileTorchScript(source);

    Rng rng(123);
    std::vector<std::vector<float>> stored(
        static_cast<std::size_t>(rows),
        std::vector<float>(static_cast<std::size_t>(dims)));
    for (auto &row : stored)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : -1.0f;
    rt::BufferPtr stored_buf = rt::Buffer::fromMatrix(stored);

    if (!replay_path.empty())
        return runReplay(kernel, stored_buf, stored, replay_path,
                         time_scale,
                         queries_set ? static_cast<long>(num_queries) : 0,
                         static_cast<int>(workers), trace_out, jout);

    std::vector<rt::BufferPtr> queries;
    queries.reserve(static_cast<std::size_t>(num_queries));
    for (long long q = 0; q < num_queries; ++q)
        queries.push_back(rt::Buffer::fromMatrix(
            {stored[static_cast<std::size_t>(q) % stored.size()]}));

    if (shards_set)
        return runSharded(options, source, kernel, stored_buf, queries,
                          static_cast<int>(shards),
                          static_cast<int>(workers), jout);
    if (fused_model)
        return runFusedModel(options, source, kernel, stored_buf,
                             queries, jout);
    if (chaos) {
        // 0 is always swept first: the fault-free leg both anchors the
        // qps column and proves the chaos harness itself is clean.
        std::vector<double> rates =
            fault_rate_set ? std::vector<double>{0.0, fault_rate}
                           : std::vector<double>{0.0, 0.001, 0.01};
        return runChaos(kernel, stored_buf, queries,
                        static_cast<int>(workers), rates, jout);
    }
    if (scaling)
        return runScaling(kernel, stored_buf, queries, jout);
    if (async)
        return runAsync(kernel, stored_buf, queries,
                        static_cast<int>(workers), jout);

    // (a) naive serving: one kernel.run() per query (setup every time).
    double naive_sim_ns = 0.0;
    std::vector<std::int64_t> naive_answers;
    Clock::time_point start = Clock::now();
    for (const rt::BufferPtr &query : queries) {
        core::ExecutionResult r = kernel.run({query, stored_buf});
        naive_sim_ns += r.perf.setupLatencyNs + r.perf.queryLatencyNs;
        naive_answers.push_back(r.outputs[1].asBuffer()->atInt({0, 0}));
    }
    double naive_wall_s = secondsSince(start);

    // Reference for the per-query cost invariant, taken outside the
    // timed serving windows.
    core::ExecutionResult single = kernel.run({queries[0], stored_buf});

    // (b) persistent session: setup once, then query-phase only.
    start = Clock::now();
    core::ExecutionSession session =
        kernel.createSession({queries[0], stored_buf});
    std::vector<std::int64_t> session_answers;
    double per_query_mismatch = 0.0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        core::ExecutionResult r = session.runQuery({queries[q], stored_buf});
        session_answers.push_back(r.outputs[1].asBuffer()->atInt({0, 0}));
        // Invariant: a served query costs exactly what single-shot
        // reports for its query phase (setup excluded).
        if (q == 0)
            per_query_mismatch =
                std::abs(r.perf.queryLatencyNs -
                         single.perf.queryLatencyNs) +
                std::abs(r.perf.queryEnergyPj - single.perf.queryEnergyPj);
    }
    sim::PerfReport total = session.aggregateReport();
    double session_sim_ns = total.setupLatencyNs + total.queryLatencyNs;
    double session_wall_s = secondsSince(start);

    double n = static_cast<double>(num_queries);
    double naive_qps = n / (naive_sim_ns * 1e-9);
    double session_qps = n / (session_sim_ns * 1e-9);
    double sim_speedup = naive_qps > 0.0 ? session_qps / naive_qps : 0.0;
    double wall_speedup =
        session_wall_s > 0.0 ? naive_wall_s / session_wall_s : 0.0;

    std::printf("Serving throughput: %lld queries, %lld x %lld stored\n",
                num_queries, static_cast<long long>(rows),
                static_cast<long long>(dims));
    bench::rule();
    std::printf("%-28s %16s %16s\n", "", "per-query run()", "session");
    std::printf("%-28s %16.1f %16.1f\n", "simulated total (us)",
                naive_sim_ns * 1e-3, session_sim_ns * 1e-3);
    std::printf("%-28s %16.0f %16.0f\n", "simulated queries/sec",
                naive_qps, session_qps);
    std::printf("%-28s %16.3f %16.3f\n", "host wall-clock (s)",
                naive_wall_s, session_wall_s);
    bench::rule();
    std::printf("setup %.1f us once, then %.3f us/query "
                "(amortized %.3f us/query)\n",
                total.setupLatencyNs * 1e-3,
                total.avgQueryLatencyNs() * 1e-3,
                total.amortizedLatencyNs() * 1e-3);
    std::printf("simulated speedup: %.1fx, wall-clock speedup: %.1fx\n",
                sim_speedup, wall_speedup);

    if (naive_answers != session_answers) {
        std::fprintf(stderr,
                     "FAIL: session answers diverge from per-query runs\n");
        return 1;
    }
    if (per_query_mismatch != 0.0) {
        std::fprintf(stderr,
                     "FAIL: per-query cost differs from single-shot by "
                     "%g\n",
                     per_query_mismatch);
        return 1;
    }
    if (num_queries >= 64 && sim_speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: expected >= 5x simulated speedup, got %.2fx\n",
                     sim_speedup);
        return 1;
    }

    jout.set("mode", std::string("serving"));
    jout.set("queries", n);
    jout.set("naive_sim_qps", naive_qps);
    jout.set("session_sim_qps", session_qps);
    jout.set("sim_speedup", sim_speedup);
    jout.set("naive_wall_s", naive_wall_s);
    jout.set("session_wall_s", session_wall_s);
    jout.set("wall_speedup", wall_speedup);
    jout.setReport("session_aggregate", total);
    return jout.write() ? 0 : 1;
}
