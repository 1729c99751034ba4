/**
 * @file
 * Process-wide PlanCache behavior across every compile consumer.
 *
 * The cache's contract: one plan compile per distinct kernel shape,
 * no matter how many sessions, serving replicas, shards or DSE
 * candidates ask for it -- and never a stale plan after a mutable
 * module() access. Counters are process-global, so every expectation
 * here is a delta around the action under test.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/DseExplorer.h"
#include "core/ExecutionSession.h"
#include "core/PlanCache.h"
#include "core/ServingEngine.h"
#include "core/ShardedEngine.h"
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

core::CompilerOptions
baseOptions()
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    return options;
}

} // namespace

TEST(PlanCache, EqualSliceShardsCompileOnce)
{
    // 16 rows over 4 shards = four identical 4-row shard kernels: the
    // re-instanced modules print identically, so the shard compiles
    // collapse to ONE plan compile and three cache hits. The engine
    // also compiles the full-size reference kernel; prewarming that
    // shape first keeps the deltas about the shards alone.
    const std::int64_t rows = 16;
    const std::int64_t dims = 96;
    core::CompilerOptions options = baseOptions();
    std::string source = apps::dotSimilaritySource(1, rows, dims, 1);
    auto stored = randomRows(rows, dims, 311);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<rt::BufferPtr> args = {
        rt::Buffer::fromMatrix({stored[5]}), stored_buf};

    core::Compiler compiler(options);
    core::CompiledKernel reference = compiler.compileTorchScript(source);
    core::ExecutionSession session = reference.createSession(args);
    core::ExecutionResult serial = session.runQuery(args);

    core::PlanCacheStats before = core::PlanCache::instance().stats();
    core::ShardedEngineOptions sharding;
    sharding.shards = 4;
    core::ShardedEngine engine(options, source, args, sharding);
    core::PlanCacheStats after = core::PlanCache::instance().stats();

    // reference shape: 1 hit (prewarmed above); shard shape: 1 miss +
    // 3 hits.
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 4u);

    core::ExecutionResult sharded = engine.serve(args);
    ASSERT_EQ(sharded.outputs.size(), serial.outputs.size());
    for (std::size_t i = 0; i < serial.outputs.size(); ++i)
        EXPECT_EQ(sharded.outputs[i].asBuffer()->toVector(),
                  serial.outputs[i].asBuffer()->toVector());

    core::ServingStats stats = engine.stats();
    EXPECT_GE(stats.planCache.hits, after.hits);
    EXPECT_GE(stats.planCache.entries, 1u);
}

TEST(PlanCache, RacingCompilesOfOneShapePerformOneCompilation)
{
    // getOrCompile compiles under the cache mutex: N racing kernel
    // builds of a shape never seen before must produce exactly one
    // miss; the other N-1 block briefly and share the winner's plan.
    const std::string source = apps::dotSimilaritySource(1, 8, 160, 1);
    core::PlanCacheStats before = core::PlanCache::instance().stats();

    constexpr int kThreads = 8;
    std::vector<std::future<std::shared_ptr<const rt::ExecutionPlan>>>
        futures;
    futures.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        futures.push_back(std::async(std::launch::async, [&source]() {
            core::Compiler compiler(baseOptions());
            core::CompiledKernel kernel =
                compiler.compileTorchScript(source);
            return kernel.executionPlan();
        }));
    std::vector<std::shared_ptr<const rt::ExecutionPlan>> plans;
    for (auto &f : futures)
        plans.push_back(f.get());

    core::PlanCacheStats after = core::PlanCache::instance().stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits,
              static_cast<std::uint64_t>(kThreads - 1));
    for (const auto &plan : plans) {
        ASSERT_NE(plan, nullptr);
        // One compile means one object: every kernel shares it.
        EXPECT_EQ(plan, plans.front());
    }
}

TEST(PlanCache, LruEvictsLeastRecentlyUsedShape)
{
    core::PlanCache &cache = core::PlanCache::instance();
    const std::size_t restore = cache.capacity();
    cache.setCapacity(2);

    core::PlanCacheStats before = cache.stats();
    for (std::int64_t dims : {112, 144, 176}) {
        core::Compiler compiler(baseOptions());
        compiler.compileTorchScript(
            apps::dotSimilaritySource(1, 8, dims, 1));
    }
    core::PlanCacheStats after = cache.stats();
    EXPECT_EQ(after.misses - before.misses, 3u);
    EXPECT_GE(after.evictions - before.evictions, 1u);
    EXPECT_LE(after.entries, 2u);

    cache.setCapacity(restore);
}

TEST(PlanCache, DseSweepCompilesEachCandidateOnce)
{
    // Distinct ArchSpecs lower to distinct modules (mapping structure
    // is in the IR), so the first sweep misses once per candidate; an
    // identical second sweep is all hits, zero compiles.
    const std::string source = apps::dotSimilaritySource(2, 8, 192, 1);
    Rng rng(99);
    auto stored = rt::Buffer::alloc(rt::DType::F32, {8, 192});
    auto queries = rt::Buffer::alloc(rt::DType::F32, {2, 192});
    for (std::int64_t r = 0; r < 8; ++r)
        for (std::int64_t c = 0; c < 192; ++c)
            stored->set({r, c}, rng.nextBool() ? 1.0 : -1.0);
    for (std::int64_t r = 0; r < 2; ++r)
        for (std::int64_t c = 0; c < 192; ++c)
            queries->set({r, c}, stored->at({r * 3, c}));
    std::vector<rt::BufferPtr> args = {queries, stored};
    std::vector<ArchSpec> candidates = {
        ArchSpec::dseSetup(16, OptTarget::Base),
        ArchSpec::dseSetup(32, OptTarget::Power),
        ArchSpec::dseSetup(64, OptTarget::Latency),
    };

    core::DseExplorer explorer;
    core::PlanCacheStats before = core::PlanCache::instance().stats();
    core::DseResult first = explorer.explore(source, candidates, args);
    core::PlanCacheStats mid = core::PlanCache::instance().stats();
    EXPECT_EQ(mid.misses - before.misses, candidates.size());

    core::DseResult second = explorer.explore(source, candidates, args);
    core::PlanCacheStats after = core::PlanCache::instance().stats();
    EXPECT_EQ(after.misses - mid.misses, 0u);
    EXPECT_GE(after.hits - mid.hits, candidates.size());

    ASSERT_EQ(first.points.size(), second.points.size());
    for (std::size_t i = 0; i < first.points.size(); ++i)
        EXPECT_EQ(first.points[i].latencyNs(), second.points[i].latencyNs());
}

TEST(PlanCache, MutableModuleAccessInvalidatesTheEntry)
{
    // The retune workflow: run, hand out the mutable module (a retune
    // pass may rewrite it), run again. The second run must recompile
    // from the current module -- a miss, not a stale hit -- and with
    // the module untouched the outputs stay identical.
    const std::int64_t rows = 8;
    const std::int64_t dims = 224;
    std::string source = apps::dotSimilaritySource(1, rows, dims, 1);
    auto stored = randomRows(rows, dims, 413);
    std::vector<rt::BufferPtr> args = {
        rt::Buffer::fromMatrix({stored[2]}),
        rt::Buffer::fromMatrix(stored)};

    core::Compiler compiler(baseOptions());
    core::CompiledKernel kernel = compiler.compileTorchScript(source);
    core::ExecutionResult first = kernel.run(args);

    core::PlanCacheStats before = core::PlanCache::instance().stats();
    kernel.module(); // mutable access: drops the cached plan
    std::shared_ptr<const rt::ExecutionPlan> recompiled =
        kernel.executionPlan();
    ASSERT_NE(recompiled, nullptr);
    core::PlanCacheStats after = core::PlanCache::instance().stats();
    EXPECT_EQ(after.misses - before.misses, 1u);

    core::ExecutionResult second = kernel.run(args);
    ASSERT_EQ(first.outputs.size(), second.outputs.size());
    for (std::size_t i = 0; i < first.outputs.size(); ++i)
        EXPECT_EQ(first.outputs[i].asBuffer()->toVector(),
                  second.outputs[i].asBuffer()->toVector());
    EXPECT_EQ(first.perf.queryLatencyNs, second.perf.queryLatencyNs);
}

TEST(PlanCache, ServingStatsExposeTheSharedCounters)
{
    const std::int64_t rows = 8;
    const std::int64_t dims = 208;
    std::string source = apps::dotSimilaritySource(1, rows, dims, 1);
    auto stored = randomRows(rows, dims, 517);
    std::vector<rt::BufferPtr> args = {
        rt::Buffer::fromMatrix({stored[1]}),
        rt::Buffer::fromMatrix(stored)};

    core::Compiler compiler(baseOptions());
    core::CompiledKernel kernel = compiler.compileTorchScript(source);
    std::unique_ptr<core::ServingEngine> engine =
        kernel.createServingEngine(args, 2);
    engine->serve(args);

    core::ServingStats stats = engine->stats();
    core::PlanCacheStats global = core::PlanCache::instance().stats();
    // stats() snapshots the process-wide counters; taken back-to-back
    // with no concurrent compiles they agree exactly.
    EXPECT_EQ(stats.planCache.misses, global.misses);
    EXPECT_GE(global.misses, 1u);
    EXPECT_GE(global.entries, 1u);
    EXPECT_EQ(stats.planCache.entries, global.entries);
}
