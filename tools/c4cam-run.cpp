/**
 * @file
 * c4cam-run: compile a TorchScript kernel and execute it on the CAM
 * simulator with synthetic data.
 *
 *   c4cam-run kernel.py --arch spec.json [--queries-equal-rows]
 *                       [--seed N] [--print-ir] [--batch N] [--json]
 *                       [--threads N]
 *
 * Generates deterministic +-1 inputs for each tensor parameter, runs
 * the compiled kernel, prints the outputs and the performance report.
 * With --queries-equal-rows, query i is a copy of stored row
 * (2*i mod N) so the expected top-1 indices are obvious.
 *
 * With --batch N the kernel is served through one
 * ExecutionSession: the device is programmed once (setup phase) and N
 * query batches are executed against it, reporting per-query and
 * amortized figures (paper §III-D setup/search split).
 *
 * With --batch N --async the batch is served through the asynchronous
 * front-end (core::AsyncServingEngine) over --threads T programmed
 * device replicas: submissions flow through a bounded queue
 * (--queue-depth, default 64) with an overflow policy (--policy
 * block|reject|drop-oldest, default block) into dispatcher threads
 * that micro-batch up to --fuse-k queries (default 8) into fused
 * device windows when the queue runs deep. Reports host qps, the
 * enqueue-wait vs execute latency split and the admission/fusion
 * counters. Per-query simulated cost stays identical to the serial
 * session.
 *
 * With --batch N --threads T (T > 1) but no --async the batch takes
 * the same async path with the default queue and micro-batching off
 * (--fuse-k 1): every query is served alone on one of the T replicas
 * (or, with --shards, of the T replicas per shard), so a transient
 * fault is retried inside that query's serve instead of aborting a
 * fused window.
 *
 * With --batch N --trace-out FILE the run additionally records
 * per-query lifecycle spans (support::TraceCollector) through
 * whichever serving path was chosen -- serial session, sharded
 * engine, or async front-end -- and writes the trace document (Chrome
 * trace_event + compact "spans" array) to FILE. Tracing never
 * perturbs outputs or PerfReports.
 *
 * With --batch N --shards M the stored tensor is partitioned across M
 * programmed CAM shards (core::ShardedEngine): each query scatters to
 * every shard and the per-shard top-k lists are merged exactly on the
 * host, bit-identical to one big device. With --async or --threads T
 * (T > 1) the sharded backend, T replicas per shard, is served
 * through the async front-end; otherwise one query at a time.
 *
 * Fault tolerance: --fault-spec FILE attaches a seeded
 * sim::FaultInjector (JSON spec: scripted transient faults, permanent
 * device kills, latency spikes) to every device of the chosen serving
 * path; --fault-rate X adds a uniform transient rate. --retries N
 * bounds per-query re-attempts on transient faults (serving paths
 * only), --deadline-us N sheds queries whose enqueue wait blew the
 * deadline (--async only), and --allow-degraded lets a sharded run
 * answer from surviving shards when a shard is quarantined (results
 * are then marked partial with a coverage fraction). A recovery
 * counter line (and a "recovery" object under "async" in --json)
 * reports retries / deadline sheds / quarantines / degraded serves.
 *
 * Plan introspection: --dump-plan[=FILE] disassembles the bytecode
 * of the kernel's compiled ExecutionPlan, the exact instruction
 * streams every query replays. Every run reports the process-wide
 * PlanCache counters (text line and "plan_cache" object in --json);
 * with --trace-out, compiles and cache hits additionally appear as
 * plan-compile/plan-cache-hit spans.
 */

#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/ArchSpec.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/PlanCache.h"
#include "core/RetryPolicy.h"
#include "core/ServingEngine.h"
#include "core/ShardedEngine.h"
#include "dialects/BuiltinDialect.h"
#include "runtime/ExecutionPlan.h"
#include "sim/FaultInjector.h"
#include "support/CliParse.h"
#include "support/Error.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Trace.h"

using namespace c4cam;

namespace {

int
usage()
{
    std::cerr << "usage: c4cam-run <kernel.py|-> [--arch spec.json]"
              << " [--seed N] [--queries-equal-rows] [--print-ir]"
              << " [--host-only] [--batch N] [--json] [--threads N]"
              << " [--tree-walk] [--shards M] [--async]"
              << " [--queue-depth N]"
              << " [--policy block|reject|drop-oldest] [--fuse-k N]"
              << " [--trace-out FILE] [--dump-plan[=FILE]]"
              << " [--fusion-model]"
              << " [--fault-spec FILE] [--fault-rate X] [--retries N]"
              << " [--deadline-us N] [--allow-degraded]\n";
    return 2;
}

/** Make query row q a copy of stored row ((offset + 2*q) mod N). */
void
fillQueriesFromStored(const rt::BufferPtr &queries,
                      const rt::BufferPtr &stored, std::int64_t offset)
{
    std::int64_t n = stored->shape()[0];
    for (std::int64_t q = 0; q < queries->shape()[0]; ++q)
        for (std::int64_t c = 0; c < queries->shape()[1]; ++c)
            queries->set({q, c}, stored->at({(offset + 2 * q) % n, c}));
}

void
printOutputs(const std::vector<rt::RtValue> &outputs)
{
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const rt::RtValue &out = outputs[i];
        if (out.isBuffer())
            std::cout << "output[" << i << "] = " << out.asBuffer()->str()
                      << "\n";
        else if (out.isInt())
            std::cout << "output[" << i << "] = " << out.asInt() << "\n";
        else
            std::cout << "output[" << i << "] = " << out.asFloat() << "\n";
    }
}

/** Process-wide PlanCache counters as a --json sub-object. */
JsonValue
planCacheJson()
{
    core::PlanCacheStats pc = core::PlanCache::instance().stats();
    JsonValue o = JsonValue::makeObject();
    o.set("hits", JsonValue(double(pc.hits)));
    o.set("misses", JsonValue(double(pc.misses)));
    o.set("evictions", JsonValue(double(pc.evictions)));
    o.set("entries", JsonValue(double(pc.entries)));
    return o;
}

void
printPlanCache()
{
    core::PlanCacheStats pc = core::PlanCache::instance().stats();
    std::cout << "plan cache: " << pc.hits << " hits, " << pc.misses
              << " misses, " << pc.evictions << " evictions, "
              << pc.entries << " resident\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input_path;
    std::string arch_path;
    std::uint64_t seed = 42;
    bool queries_equal_rows = false;
    bool print_ir = false;
    bool host_only = false;
    bool json = false;
    bool tree_walk = false;
    bool true_fused = false;
    bool dump_plan = false;
    std::string dump_plan_path;
    bool use_async = false;
    bool async_flags_seen = false; // --queue-depth/--policy/--fuse-k
    long long batch = 0;
    long long threads = 1;
    long long shards = 1;
    bool shards_seen = false;
    long long queue_depth = 64;
    long long fuse_k = 8;
    std::string trace_path;
    core::AsyncServingOptions async_options;
    std::string fault_spec_path;
    double fault_rate = 0.0;
    bool fault_rate_seen = false;
    long long retries = 1;
    bool retries_seen = false;
    long long deadline_us = 0;
    bool allow_degraded = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--arch") {
            if (++i >= argc)
                return usage();
            arch_path = argv[i];
        } else if (arg == "--seed") {
            long long value = 0;
            if (++i >= argc || !support::parseInt(argv[i], value))
                return usage();
            seed = static_cast<std::uint64_t>(value);
        } else if (arg == "--batch") {
            if (++i >= argc || !support::parseInt(argv[i], batch, 1))
                return usage();
        } else if (arg == "--threads") {
            if (++i >= argc ||
                !support::parseInt(argv[i], threads, 1, 1024))
                return usage();
        } else if (arg == "--shards") {
            shards_seen = true;
            if (++i >= argc ||
                !support::parseInt(argv[i], shards, 1, 1024))
                return usage();
        } else if (arg == "--async") {
            use_async = true;
        } else if (arg == "--queue-depth") {
            async_flags_seen = true;
            if (++i >= argc ||
                !support::parseInt(argv[i], queue_depth, 1, 1'000'000))
                return usage();
        } else if (arg == "--fuse-k") {
            async_flags_seen = true;
            if (++i >= argc ||
                !support::parseInt(argv[i], fuse_k, 1, 1024))
                return usage();
        } else if (arg == "--policy") {
            async_flags_seen = true;
            if (++i >= argc)
                return usage();
            auto policy = support::parseOverflowPolicy(argv[i]);
            if (!policy)
                return usage();
            async_options.policy = *policy;
        } else if (arg == "--trace-out") {
            if (++i >= argc)
                return usage();
            trace_path = argv[i];
        } else if (arg == "--fault-spec") {
            if (++i >= argc)
                return usage();
            fault_spec_path = argv[i];
        } else if (arg == "--fault-rate") {
            fault_rate_seen = true;
            if (++i >= argc ||
                !support::parseDouble(argv[i], fault_rate, 0.0, 1.0))
                return usage();
        } else if (arg == "--retries") {
            retries_seen = true;
            if (++i >= argc ||
                !support::parseInt(argv[i], retries, 1, 100))
                return usage();
        } else if (arg == "--deadline-us") {
            if (++i >= argc ||
                !support::parseInt(argv[i], deadline_us, 1))
                return usage();
        } else if (arg == "--allow-degraded") {
            allow_degraded = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--queries-equal-rows") {
            queries_equal_rows = true;
        } else if (arg == "--print-ir") {
            print_ir = true;
        } else if (arg == "--host-only") {
            host_only = true;
        } else if (arg == "--tree-walk") {
            // Differential-testing escape hatch: execute through the
            // tree-walking interpreter instead of the compiled
            // execution plan (results must be bit-identical).
            tree_walk = true;
        } else if (arg == "--fusion-model") {
            // True fused-search device model: fused windows charge the
            // precharge/drive once per pass instead of re-attributing
            // the exact serial sum (sim::FusionModel::TrueFused).
            true_fused = true;
        } else if (arg == "--dump-plan") {
            dump_plan = true;
        } else if (arg.rfind("--dump-plan=", 0) == 0) {
            dump_plan = true;
            dump_plan_path = arg.substr(std::string("--dump-plan=").size());
            if (dump_plan_path.empty())
                return usage();
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else if (input_path.empty()) {
            input_path = arg;
        } else {
            return usage();
        }
    }
    if (input_path.empty())
        return usage();
    if (threads > 1 && batch <= 0) {
        // Parallel serving only exists for batched serving; silently
        // running the single-shot path would mislead a benchmark.
        std::cerr << "c4cam-run: --threads requires --batch\n";
        return usage();
    }
    if (use_async && batch <= 0) {
        std::cerr << "c4cam-run: --async requires --batch\n";
        return usage();
    }
    if (shards_seen && batch <= 0) {
        // Sharding is a serving-path feature; the single-shot path
        // has no setup/query split to scatter.
        std::cerr << "c4cam-run: --shards requires --batch\n";
        return usage();
    }
    if (!trace_path.empty() && batch <= 0) {
        // Span tracing instruments the serving layers; the single-shot
        // path has no lifecycle to trace.
        std::cerr << "c4cam-run: --trace-out requires --batch\n";
        return usage();
    }
    if (async_flags_seen && !use_async) {
        // Silently taking the synchronous path would let the user
        // draw conclusions about a policy that never ran.
        std::cerr << "c4cam-run: --queue-depth/--policy/--fuse-k "
                     "require --async\n";
        return usage();
    }
    if ((!fault_spec_path.empty() || fault_rate_seen || retries_seen) &&
        batch <= 0) {
        // Fault injection hooks the serving paths; the single-shot
        // path builds its session's device out of reach.
        std::cerr << "c4cam-run: --fault-spec/--fault-rate/--retries "
                     "require --batch\n";
        return usage();
    }
    if (deadline_us > 0 && !use_async) {
        // Deadlines are an admission-queue feature; a synchronous
        // serve has no enqueue wait to bound.
        std::cerr << "c4cam-run: --deadline-us requires --async\n";
        return usage();
    }
    if (allow_degraded && !shards_seen) {
        // Degraded top-k only means something when there are shards
        // to survive on.
        std::cerr << "c4cam-run: --allow-degraded requires --shards\n";
        return usage();
    }

    try {
        std::string source;
        if (input_path == "-") {
            std::ostringstream oss;
            oss << std::cin.rdbuf();
            source = oss.str();
        } else {
            std::ifstream in(input_path);
            C4CAM_CHECK(in.good(), "cannot open '" << input_path << "'");
            std::ostringstream oss;
            oss << in.rdbuf();
            source = oss.str();
        }

        core::CompilerOptions options;
        if (!arch_path.empty())
            options.spec = arch::ArchSpec::fromFile(arch_path);
        options.hostOnly = host_only;
        options.treeWalkExecution = tree_walk;
        options.fusionModel = true_fused ? sim::FusionModel::TrueFused
                                         : sim::FusionModel::ExactSerial;

        // One collector spans compile AND serving, whichever path
        // serves it; created before the kernel so the initial
        // plan-compile (or plan-cache-hit) span lands in the document
        // alongside the query lifecycle spans. The guard detaches the
        // process-wide hook on every exit path.
        std::unique_ptr<support::TraceCollector> collector;
        if (!trace_path.empty())
            collector = std::make_unique<support::TraceCollector>();
        core::PlanCache::instance().setTraceCollector(collector.get());
        struct PlanCacheTraceDetach
        {
            ~PlanCacheTraceDetach()
            {
                core::PlanCache::instance().setTraceCollector(nullptr);
            }
        } plan_cache_trace_detach;
        auto write_trace = [&]() -> bool {
            if (!collector)
                return true;
            if (!collector->writeFile(trace_path)) {
                std::cerr << "c4cam-run: cannot write --trace-out file '"
                          << trace_path << "'\n";
                return false;
            }
            if (!json)
                std::cout << "trace: " << collector->size()
                          << " spans -> " << trace_path << " ("
                          << collector->dropped() << " dropped)\n";
            return true;
        };

        core::Compiler compiler(options);
        core::CompiledKernel kernel = compiler.compileTorchScript(source);

        if (dump_plan) {
            auto plan = kernel.executionPlan();
            C4CAM_CHECK(plan, "--dump-plan: --tree-walk compiles no "
                        "plan");
            std::string text = plan->disassemble();
            if (dump_plan_path.empty()) {
                std::cout << text;
            } else {
                std::ofstream out(dump_plan_path);
                C4CAM_CHECK(out.good(), "cannot write --dump-plan file '"
                            << dump_plan_path << "'");
                out << text;
            }
        }
        if (print_ir)
            std::cout << std::as_const(kernel).module().str() << "\n";

        // Synthesize +-1 inputs matching the function signature.
        ir::Operation *func =
            std::as_const(kernel).module().lookupFunction(
                kernel.entryPoint());
        ir::Block *body = dialects::funcBody(func);
        std::vector<rt::BufferPtr> args;
        Rng rng(seed);
        for (std::size_t i = 0; i < body->numArguments(); ++i) {
            ir::Type t = body->argument(i)->type();
            C4CAM_CHECK(t.isTensor() && t.rank() == 2,
                        "c4cam-run synthesizes rank-2 tensor args only");
            auto buf = rt::Buffer::alloc(rt::DType::F32, t.shape());
            for (std::int64_t r = 0; r < t.shape()[0]; ++r)
                for (std::int64_t c = 0; c < t.shape()[1]; ++c)
                    buf->set({r, c}, rng.nextBool() ? 1.0 : -1.0);
            args.push_back(buf);
        }
        if (queries_equal_rows && args.size() >= 2)
            fillQueriesFromStored(args[0], args[1], 0);

        if (batch > 0) {
            // Session serving: program the device once, then serve
            // `batch` query batches. Each batch gets its own query
            // buffer (fresh content so serving is not a no-op, and no
            // aliasing across concurrent workers);
            // --queries-equal-rows keeps answers obvious. Batches are
            // generated lazily so memory stays O(in-flight queries),
            // never O(batch).
            C4CAM_CHECK(!args.empty(),
                        "--batch requires a kernel with at least one "
                        "tensor parameter (the query)");
            auto make_batch_args = [&](long long b) {
                std::vector<rt::BufferPtr> batch_args = args;
                auto queries = rt::Buffer::alloc(rt::DType::F32,
                                                 args[0]->shape());
                if (queries_equal_rows && args.size() >= 2) {
                    fillQueriesFromStored(queries, args[1], b);
                } else {
                    for (std::int64_t q = 0; q < queries->shape()[0]; ++q)
                        for (std::int64_t c = 0; c < queries->shape()[1];
                             ++c)
                            queries->set({q, c},
                                         rng.nextBool() ? 1.0 : -1.0);
                }
                batch_args[0] = queries;
                return batch_args;
            };

            // Chaos / fault-tolerance knobs, shared by every serving
            // path. One seeded injector instance is attached to every
            // device (master + clones, all shards), so a run is
            // reproducible from the spec's seed alone.
            std::shared_ptr<sim::FaultInjector> injector;
            if (!fault_spec_path.empty() || fault_rate_seen) {
                sim::FaultSpec spec;
                if (!fault_spec_path.empty())
                    spec = sim::FaultSpec::fromFile(fault_spec_path);
                if (fault_rate_seen)
                    spec.transientRate = fault_rate;
                injector = std::make_shared<sim::FaultInjector>(spec);
            }
            core::RetryPolicy retry_policy;
            retry_policy.maxAttempts = static_cast<int>(retries);
            retry_policy.backoffUs = 100;
            const bool chaos =
                injector || deadline_us > 0 || allow_degraded;

            core::ExecutionResult first;
            long long first_index = 0;
            sim::PerfReport total;
            if (use_async || threads > 1) {
                // Async front-end: bounded submission queue with the
                // chosen overflow policy feeding `threads` replicas;
                // under the default block policy the queue bound IS
                // the submission backpressure, so all batches can be
                // submitted eagerly. Plain --threads serves every
                // query alone, so a transient fault is recovered (and
                // counted) by serve()'s retry loop instead of aborting
                // a fused window whose members are then re-served.
                async_options.queueCapacity =
                    static_cast<std::size_t>(queue_depth);
                async_options.fuseMaxK =
                    use_async ? static_cast<int>(fuse_k) : 1;
                async_options.trace = collector.get();
                async_options.deadlineUs = deadline_us;
                std::unique_ptr<core::QueryBackend> backend;
                if (shards_seen) {
                    // Sharded backend behind the async front-end:
                    // same queue/fusion semantics, every dispatch
                    // scatter-gathers across the shards.
                    core::ShardedEngineOptions sharding;
                    sharding.shards = static_cast<int>(shards);
                    sharding.replicasPerShard =
                        static_cast<int>(threads);
                    sharding.retryPolicy = retry_policy;
                    sharding.faultInjector = injector;
                    sharding.allowDegraded = allow_degraded;
                    backend = std::make_unique<core::ShardedEngine>(
                        options, source, args, sharding);
                } else {
                    auto replicas = kernel.createServingEngine(
                        args, static_cast<int>(threads));
                    replicas->setRetryPolicy(retry_policy);
                    if (injector)
                        replicas->attachFaultInjector(injector);
                    backend = std::move(replicas);
                }
                auto engine = std::make_unique<core::AsyncServingEngine>(
                    std::move(backend), async_options);
                std::deque<std::future<core::ExecutionResult>> inflight;
                long long ok = 0;
                long long front_index = 0; // batch index of the front
                auto harvest_front = [&] {
                    try {
                        core::ExecutionResult done =
                            inflight.front().get();
                        if (ok++ == 0) {
                            // Under load-shedding policies batch 0
                            // itself may have been refused; remember
                            // whose outputs we are about to print.
                            first = std::move(done);
                            first_index = front_index;
                        }
                    } catch (const core::AdmissionError &) {
                        // Only admission refusals (reject policy /
                        // drop-oldest) are expected losses -- the
                        // stats summary reports them. A query that
                        // failed DURING execution rethrows as a plain
                        // CompilerError and aborts the run.
                    }
                    ++front_index;
                    inflight.pop_front();
                };
                for (long long b = 0; b < batch; ++b) {
                    inflight.push_back(
                        engine->submit(make_batch_args(b)));
                    // Keep the harvest loop bounded so rejected-policy
                    // runs do not accumulate `batch` failed futures.
                    if (inflight.size() > 4 * static_cast<std::size_t>(
                                                  queue_depth))
                        harvest_front();
                }
                while (!inflight.empty())
                    harvest_front();
                engine->drain();
                core::AsyncServingStats stats = engine->stats();
                total = stats.serving.aggregate;
                if (!json) {
                    std::cout
                        << "async serving: "
                        << engine->backend().concurrency()
                        << " backend lanes, queue depth "
                        << stats.queueCapacity << " (policy "
                        << support::toString(async_options.policy)
                        << "), " << stats.serving.qps
                        << " queries/sec host throughput\n"
                        << "latency split: enqueue-wait p50 "
                        << stats.p50EnqueueWaitUs << " us, p95 "
                        << stats.p95EnqueueWaitUs << " us; execute p50 "
                        << stats.p50ExecuteUs << " us, p95 "
                        << stats.p95ExecuteUs << " us\n"
                        << "admission: " << stats.submitted
                        << " submitted, " << stats.completed
                        << " completed, " << stats.rejected
                        << " rejected, " << stats.dropped
                        << " dropped; micro-batching: "
                        << stats.fusedWindows << " fused windows ("
                        << stats.fusedQueries << " queries), "
                        << stats.singleDispatches
                        << " single dispatches\n";
                    if (chaos)
                        std::cout << "recovery: "
                                  << stats.serving.retries
                                  << " retries, " << stats.deadlineSheds
                                  << " deadline sheds, "
                                  << stats.fallbackRetries
                                  << " fallback re-serves, "
                                  << stats.serving.quarantines
                                  << " quarantines, "
                                  << stats.serving.degradedServes
                                  << " degraded serves\n";
                    if (!host_only)
                        std::cout << "setup: "
                                  << engine->backend().setupReport()
                                         .str()
                                  << "\n";
                }
                if (ok == 0) {
                    std::cerr << "c4cam-run: every submission was "
                                 "refused (policy "
                              << support::toString(async_options.policy)
                              << ")\n";
                    return 1;
                }
                if (json) {
                    // Machine consumers monitoring load shedding need
                    // the admission/fusion counters, not just the
                    // simulated aggregate the text mode also prints.
                    JsonValue j = total.toJson();
                    JsonValue a = JsonValue::makeObject();
                    a.set("replicas",
                          JsonValue(double(
                              engine->backend().concurrency())));
                    a.set("queue_capacity",
                          JsonValue(double(stats.queueCapacity)));
                    a.set("policy",
                          JsonValue(std::string(
                              support::toString(async_options.policy))));
                    a.set("submitted",
                          JsonValue(double(stats.submitted)));
                    a.set("completed",
                          JsonValue(double(stats.completed)));
                    a.set("rejected", JsonValue(double(stats.rejected)));
                    a.set("dropped", JsonValue(double(stats.dropped)));
                    a.set("fused_windows",
                          JsonValue(double(stats.fusedWindows)));
                    a.set("fused_queries",
                          JsonValue(double(stats.fusedQueries)));
                    a.set("single_dispatches",
                          JsonValue(double(stats.singleDispatches)));
                    a.set("qps", JsonValue(stats.serving.qps));
                    a.set("p50_enqueue_wait_us",
                          JsonValue(stats.p50EnqueueWaitUs));
                    a.set("p95_enqueue_wait_us",
                          JsonValue(stats.p95EnqueueWaitUs));
                    a.set("p50_execute_us",
                          JsonValue(stats.p50ExecuteUs));
                    a.set("p95_execute_us",
                          JsonValue(stats.p95ExecuteUs));
                    if (chaos) {
                        JsonValue r = JsonValue::makeObject();
                        r.set("retries",
                              JsonValue(double(stats.serving.retries)));
                        r.set("deadline_sheds",
                              JsonValue(double(stats.deadlineSheds)));
                        r.set("fallback_retries",
                              JsonValue(double(stats.fallbackRetries)));
                        r.set("quarantines",
                              JsonValue(
                                  double(stats.serving.quarantines)));
                        r.set("degraded_serves",
                              JsonValue(
                                  double(stats.serving.degradedServes)));
                        a.set("recovery", std::move(r));
                    }
                    j.set("async", std::move(a));
                    j.set("plan_cache", planCacheJson());
                    std::cout << j.dump(2) << "\n";
                    return write_trace() ? 0 : 1;
                }
            } else if (shards_seen) {
                // Scatter-gather serving across `shards` programmed
                // CAM shards, one query at a time; outputs (incl.
                // global indices) are bit-identical to one big device.
                core::ShardedEngineOptions sharding;
                sharding.shards = static_cast<int>(shards);
                sharding.retryPolicy = retry_policy;
                sharding.faultInjector = injector;
                sharding.allowDegraded = allow_degraded;
                core::ShardedEngine engine(options, source, args,
                                           sharding);
                if (collector)
                    engine.enableTracing(collector.get());
                for (long long b = 0; b < batch; ++b) {
                    core::ExecutionResult result =
                        engine.serve(make_batch_args(b));
                    if (b == 0)
                        first = std::move(result);
                }
                core::ServingStats stats = engine.stats();
                total = stats.aggregate;
                if (!json) {
                    std::cout << "sharded serving: "
                              << engine.numShards() << " shards (top-"
                              << engine.topK() << " merge), "
                              << stats.qps
                              << " queries/sec host throughput, p50 "
                              << stats.p50LatencyUs << " us, p95 "
                              << stats.p95LatencyUs << " us\n";
                    if (chaos)
                        std::cout << "recovery: " << stats.retries
                                  << " retries, " << stats.quarantines
                                  << " quarantines, "
                                  << stats.degradedServes
                                  << " degraded serves\n";
                    if (!host_only)
                        std::cout << "setup: "
                                  << engine.setupReport().str() << "\n";
                }
            } else {
                // Serial path: one reused session, one batch at a time.
                // Faults fire here too (reproducing an injected fault
                // serially is the debugging workflow), but there is no
                // retry layer: the first fault aborts the run.
                core::ExecutionSession session = kernel.createSession(args);
                if (injector && session.device())
                    session.device()->attachFaultInjector(injector);
                if (collector)
                    session.enableTracing(collector.get());
                for (long long b = 0; b < batch; ++b) {
                    core::ExecutionResult result =
                        session.runQuery(make_batch_args(b));
                    if (b == 0)
                        first = std::move(result);
                }
                total = session.aggregateReport();
                if (!json && !host_only)
                    std::cout << "setup: " << session.setupReport().str()
                              << "\n";
            }
            if (!write_trace())
                return 1;
            if (json) {
                JsonValue j = total.toJson();
                j.set("plan_cache", planCacheJson());
                std::cout << j.dump(2) << "\n";
                return 0;
            }
            std::cout << "batch " << first_index << " outputs:\n";
            printOutputs(first.outputs);
            std::cout << "aggregate: " << total.str() << "\n";
            std::cout << "amortized: " << total.amortizedLatencyNs()
                      << " ns/query, " << total.amortizedEnergyPj()
                      << " pJ/query over " << total.queriesServed
                      << " queries\n";
            printPlanCache();
            return 0;
        }

        core::ExecutionResult result = kernel.run(args);

        if (json) {
            JsonValue j = result.perf.toJson();
            j.set("plan_cache", planCacheJson());
            std::cout << j.dump(2) << "\n";
            return 0;
        }
        printOutputs(result.outputs);
        if (!host_only) {
            std::cout << "perf: " << result.perf.str() << "\n";
            const auto &plan = kernel.plan();
            std::cout << "mapping: " << plan.logicalTiles << " tiles -> "
                      << plan.physicalSubarrays << " subarrays, "
                      << plan.banks << " banks, "
                      << plan.batchesPerSubarray
                      << " batches/subarray\n";
        }
        printPlanCache();
        return 0;
    } catch (const CompilerError &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    } catch (const InternalError &err) {
        std::cerr << "internal error: " << err.what() << "\n";
        return 3;
    }
}
