/**
 * @file
 * Sharded scatter-gather serving: the bit-identity contract.
 *
 * A ShardedEngine over M devices must be observationally identical to
 * one big device in its OUTPUTS -- merged top-k values and global
 * indices -- for every M, on the plain, fused and async paths,
 * including the adversarial case of duplicate stored rows straddling
 * a shard boundary (the tie-break the merge comparator exists for).
 * Accounting is the deterministic shard aggregation (max latency,
 * summed energy), and tracing tiles each query's root span with a
 * scatter + shard-merge pair.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ShardedEngine.h"
#include "sim/Timing.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "support/Trace.h"

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

void
expectBuffersEqual(const rt::RtValue &a, const rt::RtValue &b)
{
    ASSERT_TRUE(a.isBuffer());
    ASSERT_TRUE(b.isBuffer());
    EXPECT_EQ(a.asBuffer()->shape(), b.asBuffer()->shape());
    EXPECT_EQ(a.asBuffer()->toVector(), b.asBuffer()->toVector());
}

void
expectOutputsIdentical(const core::ExecutionResult &sharded,
                       const core::ExecutionResult &serial)
{
    ASSERT_EQ(sharded.outputs.size(), serial.outputs.size());
    for (std::size_t i = 0; i < sharded.outputs.size(); ++i)
        expectBuffersEqual(sharded.outputs[i], serial.outputs[i]);
}

struct Workload
{
    core::CompilerOptions options;
    std::string source;
    core::CompiledKernel kernel;
    rt::BufferPtr storedBuf;
    std::vector<std::vector<rt::BufferPtr>> batches;
};

/** Dot-similarity serving workload with distinct query batches. */
Workload
makeWorkload(std::int64_t rows, std::int64_t dims, int k, int queries,
             std::uint64_t seed, bool tree_walk = false)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.treeWalkExecution = tree_walk;
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

} // namespace

TEST(ShardPlan, SplitsContiguouslyWithDeterministicRemainder)
{
    core::ShardPlan plan = core::ShardPlan::compute(10, 3, 1);
    EXPECT_EQ(plan.totalRows, 10);
    ASSERT_EQ(plan.slices.size(), 3u);
    // 10 = 4 + 3 + 3: the first totalRows % shards slices carry the
    // extra row, and the slices tile [0, totalRows) in order.
    EXPECT_EQ(plan.slices[0].begin, 0);
    EXPECT_EQ(plan.slices[0].rows, 4);
    EXPECT_EQ(plan.slices[1].begin, 4);
    EXPECT_EQ(plan.slices[1].rows, 3);
    EXPECT_EQ(plan.slices[2].begin, 7);
    EXPECT_EQ(plan.slices[2].rows, 3);

    core::ShardPlan even = core::ShardPlan::compute(8, 4, 2);
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(even.slices[s].begin, static_cast<std::int64_t>(2 * s));
        EXPECT_EQ(even.slices[s].rows, 2);
    }
}

TEST(ShardPlan, RefusesToStarveAShardBelowK)
{
    // A shard smaller than k cannot answer top-k locally; the plan
    // must reject the split instead of producing a short k-list.
    EXPECT_THROW(core::ShardPlan::compute(8, 4, 3), CompilerError);
    EXPECT_THROW(core::ShardPlan::compute(4, 8, 1), CompilerError);
    EXPECT_NO_THROW(core::ShardPlan::compute(8, 4, 2));
}

TEST(ShardedEngine, EveryShardCountMatchesTheSingleDeviceBitForBit)
{
    Workload w = makeWorkload(12, 64, 2, 18, 71);
    core::ExecutionSession session = w.kernel.createSession(w.batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(w.batches);

    for (int shards : {1, 2, 3, 4}) {
        core::ShardedEngineOptions sharding;
        sharding.shards = shards;
        core::ShardedEngine engine(w.options, w.source, w.batches[0],
                                   sharding);
        EXPECT_EQ(engine.numShards(), shards);
        EXPECT_EQ(engine.topK(), 2);
        for (std::size_t q = 0; q < w.batches.size(); ++q) {
            core::ExecutionResult r = engine.serve(w.batches[q]);
            expectOutputsIdentical(r, serial[q]);
            // Accounting is the shard aggregation, not the big
            // device's report: latency is the max over shards, and a
            // shard searches fewer rows, so it can never be slower.
            EXPECT_LE(r.perf.queryLatencyNs, serial[q].perf.queryLatencyNs)
                << shards << " shards, query " << q;
            EXPECT_GT(r.perf.searches, 0);
        }
        EXPECT_EQ(engine.queriesServed(),
                  static_cast<std::int64_t>(w.batches.size()));
        core::ServingStats stats = engine.stats();
        EXPECT_EQ(stats.queriesServed,
                  static_cast<std::int64_t>(w.batches.size()));
        EXPECT_GT(stats.p50LatencyUs, 0.0);
    }
}

TEST(ShardedEngine, DuplicateRowsAcrossTheShardBoundaryKeepStableOrder)
{
    // Rows 3 and 4 are byte-identical and land on DIFFERENT shards of
    // a 2-way split (slices [0,4) and [4,8)). A query equal to that
    // row makes both shards produce the same best value; the merge
    // must order the tie toward the lower GLOBAL index, exactly like
    // the single device's stable sort.
    const std::int64_t rows = 8;
    const std::int64_t dims = 32;
    auto stored = randomRows(rows, dims, 73);
    stored[4] = stored[3];

    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    std::string source = apps::dotSimilaritySource(1, rows, dims, 2);
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(source);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<rt::BufferPtr> args = {
        rt::Buffer::fromMatrix({stored[3]}), stored_buf};

    core::ExecutionSession session = kernel.createSession(args);
    core::ExecutionResult serial = session.runQuery(args);

    core::ShardedEngineOptions sharding;
    sharding.shards = 2;
    core::ShardedEngine engine(options, source, args, sharding);
    core::ExecutionResult sharded = engine.serve(args);
    expectOutputsIdentical(sharded, serial);

    // And the order is the one the contract promises: the duplicate
    // pair fills the top-2, lower global index first.
    EXPECT_EQ(sharded.outputs[1].asBuffer()->atInt({0, 0}), 3);
    EXPECT_EQ(sharded.outputs[1].asBuffer()->atInt({0, 1}), 4);
}

TEST(ShardedEngine, FusedChunksMatchSerialReplay)
{
    Workload w = makeWorkload(12, 64, 2, 8, 79);
    core::ExecutionSession session = w.kernel.createSession(w.batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(w.batches);

    core::ShardedEngineOptions sharding;
    sharding.shards = 3;
    core::ShardedEngine engine(w.options, w.source, w.batches[0],
                               sharding);
    std::vector<core::ExecutionResult> fused =
        engine.serveFusedChunk(w.batches);
    ASSERT_EQ(fused.size(), w.batches.size());
    for (std::size_t q = 0; q < w.batches.size(); ++q)
        expectOutputsIdentical(fused[q], serial[q]);
}

TEST(ShardedEngine, ServesThroughTheAsyncFrontEnd)
{
    Workload w = makeWorkload(12, 64, 2, 16, 83);
    core::ExecutionSession session = w.kernel.createSession(w.batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(w.batches);

    core::ShardedEngineOptions sharding;
    sharding.shards = 2;
    sharding.replicasPerShard = 2;
    core::AsyncServingEngine engine(
        std::make_unique<core::ShardedEngine>(w.options, w.source,
                                              w.batches[0], sharding));
    EXPECT_EQ(engine.backend().concurrency(), 2);
    auto futures = engine.submitBatch(w.batches);
    for (std::size_t q = 0; q < futures.size(); ++q)
        expectOutputsIdentical(futures[q].get(), serial[q]);
    engine.drain();
    EXPECT_EQ(engine.stats().completed,
              static_cast<std::int64_t>(w.batches.size()));
}

TEST(ShardedEngine, TreeWalkBackEndShardsIdentically)
{
    // The shard layer sits above the execution back end: tree-walking
    // shard engines must merge to the same outputs as the plan-based
    // single device.
    Workload plan = makeWorkload(10, 32, 2, 6, 89);
    core::ExecutionSession session =
        plan.kernel.createSession(plan.batches[0]);
    std::vector<core::ExecutionResult> serial =
        session.runBatch(plan.batches);

    Workload walk = makeWorkload(10, 32, 2, 6, 89, /*tree_walk=*/true);
    core::ShardedEngineOptions sharding;
    sharding.shards = 2;
    core::ShardedEngine engine(walk.options, walk.source,
                               walk.batches[0], sharding);
    for (std::size_t q = 0; q < plan.batches.size(); ++q)
        expectOutputsIdentical(engine.serve(walk.batches[q]), serial[q]);
}

TEST(ShardedEngine, ValidatesTheUnshardedSignature)
{
    Workload w = makeWorkload(12, 64, 2, 1, 97);
    core::ShardedEngineOptions sharding;
    sharding.shards = 2;
    core::ShardedEngine engine(w.options, w.source, w.batches[0],
                               sharding);
    // Callers keep the single-big-device calling convention: the full
    // stored tensor, not a slice.
    EXPECT_THROW(engine.validateQuery({w.batches[0][0]}), CompilerError);
    EXPECT_THROW(engine.serve({w.batches[0][0]}), CompilerError);
    auto bad_stored = rt::Buffer::fromMatrix(randomRows(6, 64, 97));
    EXPECT_THROW(engine.serve({w.batches[0][0], bad_stored}),
                 CompilerError);
    // Still serves after rejected calls.
    EXPECT_NO_THROW(engine.serve(w.batches[0]));
}

TEST(ShardedEngine, RejectsSplitsTheStoredAxisCannotCarry)
{
    Workload w = makeWorkload(8, 32, 2, 1, 101);
    core::ShardedEngineOptions sharding;
    sharding.shards = 5; // 8 rows / 5 shards -> a shard below k=2
    EXPECT_THROW(core::ShardedEngine(w.options, w.source, w.batches[0],
                                     sharding),
                 CompilerError);
}

TEST(ShardedEngine, ScatterAndMergeSpansTileTheRootQuerySpan)
{
    Workload w = makeWorkload(12, 64, 2, 2, 103);
    core::ShardedEngineOptions sharding;
    sharding.shards = 2;
    core::ShardedEngine engine(w.options, w.source, w.batches[0],
                               sharding);
    support::TraceCollector collector;
    engine.enableTracing(&collector);
    engine.serve(w.batches[0]);
    engine.serve(w.batches[1]);

    std::vector<support::TraceEvent> events = collector.snapshot();
    std::vector<const support::TraceEvent *> roots;
    for (const auto &ev : events)
        if (std::string(ev.name) == "query")
            roots.push_back(&ev);
    ASSERT_EQ(roots.size(), 2u);

    for (const support::TraceEvent *root : roots) {
        const support::TraceEvent *scatter = nullptr;
        const support::TraceEvent *merge = nullptr;
        for (const auto &ev : events) {
            if (ev.parentSpanId != root->spanId)
                continue;
            if (std::string(ev.name) == "scatter")
                scatter = &ev;
            else if (std::string(ev.name) == "shard-merge")
                merge = &ev;
        }
        ASSERT_NE(scatter, nullptr);
        ASSERT_NE(merge, nullptr);
        // All three intervals come from shared clock reads, so the
        // telescoping is EXACT in-process (the JSON round-trip epsilon
        // only exists for serialized traces).
        EXPECT_EQ(scatter->startUs, root->startUs);
        EXPECT_EQ(merge->startUs, scatter->startUs + scatter->durUs);
        EXPECT_EQ(root->startUs + root->durUs,
                  merge->startUs + merge->durUs);
        // The shards' own execute/merge spans parent under scatter --
        // one pair per shard.
        int shard_children = 0;
        for (const auto &ev : events)
            if (ev.parentSpanId == scatter->spanId) {
                ++shard_children;
                EXPECT_LE(ev.startUs + ev.durUs,
                          merge->startUs + 1e-9);
            }
        EXPECT_EQ(shard_children, 2 * 2); // execute + merge, 2 shards
    }
}

TEST(ShardedEngine, AggregatedReportsFollowTheMaxSumRule)
{
    sim::PerfReport a;
    a.queriesServed = 1;
    a.setupLatencyNs = 100.0;
    a.queryLatencyNs = 10.0;
    a.queryEnergyPj = 3.0;
    a.searches = 4;
    a.writes = 2;
    a.subarraysUsed = 5;
    sim::PerfReport b = a;
    b.setupLatencyNs = 80.0;
    b.queryLatencyNs = 25.0;
    b.queryEnergyPj = 7.0;
    b.searches = 6;

    sim::PerfReport agg = sim::aggregateShardReports({a, b});
    // Shards run in parallel: latency is the slowest shard...
    EXPECT_DOUBLE_EQ(agg.setupLatencyNs, 100.0);
    EXPECT_DOUBLE_EQ(agg.queryLatencyNs, 25.0);
    // ...while work done is the sum of all shards.
    EXPECT_DOUBLE_EQ(agg.queryEnergyPj, 10.0);
    EXPECT_EQ(agg.searches, 10);
    EXPECT_EQ(agg.writes, 4);
    EXPECT_EQ(agg.subarraysUsed, 10);
    // Query counters describe the one logical stream, not M copies.
    EXPECT_EQ(agg.queriesServed, 1);
    // Empty shard lists aggregate to a zero report, not UB.
    EXPECT_EQ(sim::aggregateShardReports({}).queriesServed, 0);
}
