/**
 * @file
 * Chaos differential tests: serving under injected faults must recover
 * to EXACTLY the fault-free answer or fail with the right type --
 * never a silently different result.
 *
 * The load-bearing property is the retry bit-identity contract:
 * transient faults fire at search entry, before any window state
 * mutates, so a retried query's outputs AND simulated PerfReport are
 * byte-for-byte what a fault-free run produces. Recovery costs host
 * wall-clock, never correctness. On top of that: permanent faults
 * quarantine their shard (circuit breaker), degraded serving answers
 * from the survivors with results explicitly marked partial, and
 * per-query deadlines shed with a typed error before any device work.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ServingEngine.h"
#include "core/ShardedEngine.h"
#include "sim/FaultInjector.h"
#include "sim/Timing.h"
#include "support/Error.h"
#include "support/Rng.h"

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;

namespace {

std::vector<std::vector<float>>
randomRows(std::int64_t n, std::int64_t d, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<float>> rows(
        static_cast<std::size_t>(n),
        std::vector<float>(static_cast<std::size_t>(d)));
    for (auto &row : rows)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : -1.0f;
    return rows;
}

struct Workload
{
    core::CompilerOptions options;
    std::string source;
    core::CompiledKernel kernel;
    rt::BufferPtr storedBuf;
    std::vector<std::vector<rt::BufferPtr>> batches;
};

Workload
makeWorkload(std::int64_t rows, std::int64_t dims, int k, int queries,
             std::uint64_t seed)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    std::string source = apps::dotSimilaritySource(1, rows, dims, k);
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(source);
    auto stored = randomRows(rows, dims, seed);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> batches;
    for (int i = 0; i < queries; ++i)
        batches.push_back(
            {rt::Buffer::fromMatrix(
                 {stored[static_cast<std::size_t>(i) % stored.size()]}),
             stored_buf});
    return {std::move(options), std::move(source), std::move(kernel),
            std::move(stored_buf), std::move(batches)};
}

/** The differential itself: outputs and the simulated cost report,
 *  byte for byte. */
void
expectBitIdentical(const core::ExecutionResult &faulty,
                   const core::ExecutionResult &reference)
{
    ASSERT_EQ(faulty.outputs.size(), reference.outputs.size());
    for (std::size_t i = 0; i < faulty.outputs.size(); ++i)
        EXPECT_EQ(faulty.outputs[i].asBuffer()->toVector(),
                  reference.outputs[i].asBuffer()->toVector());
    EXPECT_EQ(faulty.perf.queryLatencyNs, reference.perf.queryLatencyNs);
    EXPECT_EQ(faulty.perf.queryEnergyPj, reference.perf.queryEnergyPj);
    EXPECT_EQ(faulty.perf.searches, reference.perf.searches);
    EXPECT_EQ(faulty.perf.coverage, reference.perf.coverage);
    EXPECT_EQ(faulty.partial, reference.partial);
}

} // namespace

TEST(ChaosDifferential, TransientRetryIsBitIdenticalToFaultFreeServing)
{
    Workload w = makeWorkload(8, 64, 1, 8, 311);
    core::ExecutionSession session = w.kernel.createSession(w.batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(w.batches);

    // One replica (deterministic device-0 search ordinals), two
    // scripted transients: the very first search, and ordinal 5 --
    // which lands either in a later query or inside the retry of an
    // earlier one; both must recover within the 3-attempt budget.
    sim::FaultSpec spec;
    sim::FaultRule rule;
    rule.kind = sim::FaultRule::Kind::Transient;
    rule.device = 0;
    rule.atSearch = 1;
    spec.rules.push_back(rule);
    rule.atSearch = 5;
    spec.rules.push_back(rule);
    auto injector = std::make_shared<sim::FaultInjector>(spec);

    auto engine = w.kernel.createServingEngine(w.batches[0], 1);
    core::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffUs = 0;
    engine->setRetryPolicy(policy);
    engine->attachFaultInjector(injector);

    // Serial serve() loop on the one replica: device-0 search ordinals
    // follow stream order.
    std::vector<core::ExecutionResult> results;
    for (const auto &batch : w.batches)
        results.push_back(engine->serve(batch));
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t q = 0; q < results.size(); ++q)
        expectBitIdentical(results[q], serial[q]);

    // Both scripted faults fired and cost exactly one re-serve each.
    EXPECT_EQ(injector->stats().transientsFired, 2);
    core::ServingStats stats = engine->stats();
    EXPECT_EQ(stats.retries, 2);
    EXPECT_EQ(stats.queriesServed,
              static_cast<std::int64_t>(w.batches.size()));
    EXPECT_EQ(engine->retriesAttempted(), 2);
}

TEST(ChaosDifferential, PermanentFaultIsNeverRetried)
{
    Workload w = makeWorkload(8, 64, 1, 2, 313);
    sim::FaultSpec spec;
    sim::FaultRule rule;
    rule.kind = sim::FaultRule::Kind::Kill;
    rule.device = 0;
    rule.afterSearch = 0; // dead from the first search
    spec.rules.push_back(rule);
    auto injector = std::make_shared<sim::FaultInjector>(spec);

    auto engine = w.kernel.createServingEngine(w.batches[0], 1);
    core::RetryPolicy policy;
    policy.maxAttempts = 5;
    engine->setRetryPolicy(policy);
    engine->attachFaultInjector(injector);

    EXPECT_THROW(engine->serve(w.batches[0]), ExecutionError);
    // A dead device is not retried: one attempt, zero retries, and the
    // injector saw exactly one search despite the 5-attempt budget.
    EXPECT_EQ(engine->stats().retries, 0);
    EXPECT_EQ(injector->stats().searchesObserved, 1);
    EXPECT_EQ(injector->stats().killsFired, 1);
}

TEST(ChaosDifferential, AsyncShardedTransientChaosCompletesBitIdentical)
{
    // The acceptance shape: ShardedEngine (M=4) behind the async front
    // end, seeded random transient faults, every query completes via
    // retries and every output is bit-identical to the single-device
    // serial run (perf compared against a fault-free sharded engine --
    // shard aggregation is intentionally not the big device's report).
    Workload w = makeWorkload(8, 64, 1, 64, 317);
    core::ExecutionSession session = w.kernel.createSession(w.batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(w.batches);

    core::ShardedEngineOptions clean;
    clean.shards = 4;
    core::ShardedEngine reference(w.options, w.source, w.batches[0],
                                  clean);
    std::vector<core::ExecutionResult> sharded_ref;
    for (const auto &batch : w.batches)
        sharded_ref.push_back(reference.serve(batch));

    sim::FaultSpec spec;
    spec.seed = 424242;
    spec.transientRate = 0.05;
    auto injector = std::make_shared<sim::FaultInjector>(spec);

    core::ShardedEngineOptions sharding;
    sharding.shards = 4;
    sharding.retryPolicy.maxAttempts = 8;
    sharding.retryPolicy.backoffUs = 0;
    sharding.faultInjector = injector;
    auto engine = std::make_unique<core::ShardedEngine>(
        w.options, w.source, w.batches[0], sharding);
    core::ShardedEngine *sharded = engine.get();
    core::AsyncServingEngine async(std::move(engine));

    auto futures = async.submitBatch(w.batches);
    for (std::size_t q = 0; q < futures.size(); ++q) {
        core::ExecutionResult r = futures[q].get(); // nothing may throw
        expectBitIdentical(r, sharded_ref[q]);
        EXPECT_EQ(r.outputs[1].asBuffer()->toVector(),
                  serial[q].outputs[1].asBuffer()->toVector());
        EXPECT_FALSE(r.partial);
    }
    async.drain();

    // At 5% per search the run saw real faults (P[none] ~ 0.95^500),
    // and recovery left no shard quarantined or query degraded.
    EXPECT_GT(injector->stats().transientsFired, 0);
    core::ServingStats stats = sharded->stats();
    EXPECT_EQ(stats.quarantines, 0);
    EXPECT_EQ(stats.degradedServes, 0);
    core::AsyncServingStats astats = async.stats();
    EXPECT_EQ(astats.completed,
              static_cast<std::int64_t>(w.batches.size()));
    EXPECT_EQ(astats.failed, 0);
    // Every fired transient was absorbed by a shard-level retry or by
    // the fused-window fallback path; both are visible in stats.
    EXPECT_GT(stats.retries + astats.fallbackRetries, 0);
}

TEST(ChaosDifferential, KilledShardQuarantinesAndServesDegradedTopK)
{
    const std::int64_t rows = 8;
    Workload w = makeWorkload(rows, 64, 1, 10, 331);
    core::ExecutionSession session = w.kernel.createSession(w.batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(w.batches);

    // Probe how many searches one serve costs per shard device, so the
    // kill can be scripted to let exactly two serves succeed first.
    std::int64_t searches_per_shard = 0;
    {
        auto probe = std::make_shared<sim::FaultInjector>(sim::FaultSpec{});
        core::ShardedEngineOptions opts;
        opts.shards = 4;
        opts.faultInjector = probe;
        core::ShardedEngine engine(w.options, w.source, w.batches[0],
                                   opts);
        engine.serve(w.batches[0]);
        std::int64_t total = probe->stats().searchesObserved;
        ASSERT_GT(total, 0);
        ASSERT_EQ(total % 4, 0) << "equal slices must search equally";
        searches_per_shard = total / 4;
    }

    // Device 0 is shard 0's replica (registration is creation-ordered:
    // shards in slice order): it survives two serves, then dies.
    sim::FaultSpec spec;
    sim::FaultRule rule;
    rule.kind = sim::FaultRule::Kind::Kill;
    rule.device = 0;
    rule.afterSearch = 2 * searches_per_shard;
    spec.rules.push_back(rule);
    auto injector = std::make_shared<sim::FaultInjector>(spec);

    core::ShardedEngineOptions sharding;
    sharding.shards = 4;
    sharding.allowDegraded = true;
    sharding.quarantineThreshold = 1;
    sharding.cooldownMs = 60'000; // no probe during this test
    sharding.faultInjector = injector;
    core::ShardedEngine engine(w.options, w.source, w.batches[0],
                               sharding);

    for (std::size_t q = 0; q < w.batches.size(); ++q) {
        core::ExecutionResult r = engine.serve(w.batches[q]);
        if (q < 2) {
            // Before the kill: full-coverage serving, bit-identical
            // outputs.
            EXPECT_FALSE(r.partial) << "query " << q;
            EXPECT_EQ(r.perf.coverage, 1.0);
            EXPECT_EQ(r.outputs[1].asBuffer()->toVector(),
                      serial[q].outputs[1].asBuffer()->toVector());
        } else {
            // From the serve that observed the death on: answers come
            // from the three survivors, explicitly marked partial with
            // the covered row fraction, and never point into the dead
            // shard's slice (rows [0, 2) of the 4-way split).
            EXPECT_TRUE(r.partial) << "query " << q;
            EXPECT_EQ(r.perf.coverage, 0.75);
            std::int64_t top = r.outputs[1].asBuffer()->atInt({0, 0});
            EXPECT_GE(top, 2) << "query " << q;
        }
    }

    EXPECT_TRUE(engine.shardHealth(0).quarantined);
    EXPECT_FALSE(engine.shardHealth(1).quarantined);
    core::ServingStats stats = engine.stats();
    EXPECT_EQ(stats.quarantines, 1);
    EXPECT_EQ(stats.degradedServes,
              static_cast<std::int64_t>(w.batches.size()) - 2);
    EXPECT_EQ(stats.queriesServed,
              static_cast<std::int64_t>(w.batches.size()));
}

TEST(ChaosDifferential, QuarantineFailsFastWithoutAllowDegraded)
{
    Workload w = makeWorkload(8, 64, 1, 2, 337);
    sim::FaultSpec spec;
    sim::FaultRule rule;
    rule.kind = sim::FaultRule::Kind::Kill;
    rule.device = 0;
    rule.afterSearch = 0;
    spec.rules.push_back(rule);
    auto injector = std::make_shared<sim::FaultInjector>(spec);

    core::ShardedEngineOptions sharding;
    sharding.shards = 4;
    sharding.allowDegraded = false;
    sharding.quarantineThreshold = 1;
    sharding.cooldownMs = 60'000;
    sharding.faultInjector = injector;
    core::ShardedEngine engine(w.options, w.source, w.batches[0],
                               sharding);

    // The serve that observes the death fails with the permanent
    // error; later serves fail FAST on the open breaker -- no device
    // work against quarantined hardware.
    EXPECT_THROW(engine.serve(w.batches[0]), ExecutionError);
    std::int64_t searches_after =
        injector->stats().searchesObserved;
    EXPECT_THROW(engine.serve(w.batches[1]), ExecutionError);
    EXPECT_EQ(injector->stats().searchesObserved, searches_after)
        << "a fail-fast serve must not touch any device";
    EXPECT_EQ(engine.stats().quarantines, 1);
    EXPECT_TRUE(engine.shardHealth(0).quarantined);
}

TEST(ChaosDifferential, DeadlineShedsAreTypedCountedAndOverridable)
{
    Workload w = makeWorkload(8, 64, 1, 16, 347);
    core::AsyncServingOptions options;
    options.queueCapacity = 64;
    options.dispatchers = 1;
    options.fuseMaxK = 1;     // one query per dispatch: a backlog forms
    options.deadlineUs = 1;   // ~any enqueue wait blows this
    auto engine =
        w.kernel.createAsyncServingEngine(w.batches[0], 1, options);

    std::vector<std::future<core::ExecutionResult>> futures;
    for (const auto &batch : w.batches)
        futures.push_back(engine->submit(batch));
    // A negative per-query deadline opts OUT of the engine default:
    // this query must complete no matter how long it queued.
    std::future<core::ExecutionResult> unbounded =
        engine->submit(w.batches[0], /*deadline_us=*/-1);

    std::int64_t ok = 0;
    std::int64_t shed = 0;
    for (auto &future : futures) {
        try {
            future.get();
            ++ok;
        } catch (const core::DeadlineExceeded &) {
            ++shed; // the typed shed -- catchable as AdmissionError too
        }
    }
    core::ExecutionResult r = unbounded.get();
    EXPECT_EQ(r.outputs[1].asBuffer()->atInt({0, 0}), 0);

    // Behind a single slow dispatcher at a 1 us deadline the backlog
    // cannot all make it; every shed is typed and counted, and the
    // accounting still conserves: every future resolved exactly once.
    EXPECT_GT(shed, 0);
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.deadlineSheds, shed);
    EXPECT_EQ(stats.serving.deadlineSheds, shed) << "stats mirror";
    EXPECT_EQ(stats.failed, shed);
    EXPECT_EQ(stats.completed,
              static_cast<std::int64_t>(w.batches.size()) + 1);
    EXPECT_EQ(ok + shed, static_cast<std::int64_t>(w.batches.size()));
    // Shed queries never reached a device.
    EXPECT_EQ(stats.serving.queriesServed, ok + 1);
}
