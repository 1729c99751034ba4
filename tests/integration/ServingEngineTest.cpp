/**
 * @file
 * Parallel serving engine: concurrency-determinism invariants.
 *
 * Locks the serving contract: N caller threads x M queries through
 * ServingEngine::serve (or the AsyncServingEngine in front of it)
 * produce per-query outputs and cost reports bit-identical to a serial
 * ExecutionSession replay of the same stream, on both the device path
 * and the host-only fallback; the aggregate pays setup exactly once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ServingEngine.h"
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

core::CompiledKernel
compileDotKernel(const ArchSpec &spec, std::int64_t queries,
                 std::int64_t rows, std::int64_t dims, int k = 1)
{
    core::CompilerOptions options;
    options.spec = spec;
    core::Compiler compiler(options);
    return compiler.compileTorchScript(
        apps::dotSimilaritySource(queries, rows, dims, k));
}

void
expectBuffersEqual(const rt::RtValue &a, const rt::RtValue &b)
{
    ASSERT_TRUE(a.isBuffer());
    ASSERT_TRUE(b.isBuffer());
    EXPECT_EQ(a.asBuffer()->shape(), b.asBuffer()->shape());
    EXPECT_EQ(a.asBuffer()->toVector(), b.asBuffer()->toVector());
}

/** Field-by-field exact comparison of two perf reports. */
void
expectReportsIdentical(const sim::PerfReport &a, const sim::PerfReport &b)
{
    EXPECT_EQ(a.setupLatencyNs, b.setupLatencyNs);
    EXPECT_EQ(a.setupEnergyPj, b.setupEnergyPj);
    EXPECT_EQ(a.queryLatencyNs, b.queryLatencyNs);
    EXPECT_EQ(a.queryEnergyPj, b.queryEnergyPj);
    EXPECT_EQ(a.cellEnergyPj, b.cellEnergyPj);
    EXPECT_EQ(a.senseEnergyPj, b.senseEnergyPj);
    EXPECT_EQ(a.driveEnergyPj, b.driveEnergyPj);
    EXPECT_EQ(a.mergeEnergyPj, b.mergeEnergyPj);
    EXPECT_EQ(a.searches, b.searches);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.subarraysUsed, b.subarraysUsed);
    EXPECT_EQ(a.subarraysAllocated, b.subarraysAllocated);
    EXPECT_EQ(a.banksUsed, b.banksUsed);
}

/** Distinct query batches cycling through the stored rows. */
std::vector<std::vector<rt::BufferPtr>>
makeBatches(const std::vector<std::vector<float>> &stored,
            const rt::BufferPtr &stored_buf, int count)
{
    std::vector<std::vector<rt::BufferPtr>> batches;
    for (int i = 0; i < count; ++i)
        batches.push_back(
            {rt::Buffer::fromMatrix(
                 {stored[static_cast<std::size_t>(i) % stored.size()]}),
             stored_buf});
    return batches;
}

/** Serve @p batches from @p threads caller threads pulling indices off
 *  a shared cursor; results land in input order. */
std::vector<core::ExecutionResult>
serveFromThreads(core::ServingEngine &engine,
                 const std::vector<std::vector<rt::BufferPtr>> &batches,
                 int threads)
{
    std::vector<core::ExecutionResult> results(batches.size());
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < threads; ++t)
        callers.emplace_back([&] {
            for (std::size_t idx = cursor.fetch_add(1);
                 idx < batches.size(); idx = cursor.fetch_add(1))
                results[idx] = engine.serve(batches[idx]);
        });
    for (std::thread &caller : callers)
        caller.join();
    return results;
}

} // namespace

TEST(ServingEngine, FourThreadsMatchSerialSessionBitForBit)
{
    auto stored = randomRows(8, 64, 41);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto batches = makeBatches(stored, stored_buf, 24);

    core::ExecutionSession session = kernel.createSession(batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(batches);

    auto engine = kernel.createServingEngine(batches[0], 4);
    EXPECT_EQ(engine->numReplicas(), 4);
    std::vector<core::ExecutionResult> served =
        serveFromThreads(*engine, batches, 4);

    ASSERT_EQ(served.size(), serial.size());
    for (std::size_t q = 0; q < served.size(); ++q) {
        ASSERT_EQ(served[q].outputs.size(), serial[q].outputs.size());
        for (std::size_t i = 0; i < served[q].outputs.size(); ++i)
            expectBuffersEqual(served[q].outputs[i], serial[q].outputs[i]);
        expectReportsIdentical(served[q].perf, serial[q].perf);
    }

    // Aggregates agree too: setup once + identical query windows.
    expectReportsIdentical(engine->stats().aggregate,
                           session.aggregateReport());
    EXPECT_EQ(engine->queriesServed(), 24);
}

TEST(ServingEngine, HostOnlyPathMatchesSerialSession)
{
    auto stored = randomRows(6, 96, 43);
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.hostOnly = true;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 6, 96, 1));
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto batches = makeBatches(stored, stored_buf, 12);

    core::ExecutionSession session = kernel.createSession(batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(batches);

    auto engine = kernel.createServingEngine(batches[0], 3);
    std::vector<core::ExecutionResult> served =
        serveFromThreads(*engine, batches, 3);

    ASSERT_EQ(served.size(), serial.size());
    for (std::size_t q = 0; q < served.size(); ++q) {
        ASSERT_EQ(served[q].outputs.size(), serial[q].outputs.size());
        for (std::size_t i = 0; i < served[q].outputs.size(); ++i)
            expectBuffersEqual(served[q].outputs[i], serial[q].outputs[i]);
        expectReportsIdentical(served[q].perf, serial[q].perf);
    }
    expectReportsIdentical(engine->stats().aggregate,
                           session.aggregateReport());
}

TEST(ServingEngine, SubmitFuturesServeConcurrently)
{
    auto stored = randomRows(8, 64, 47);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto engine = kernel.createAsyncServingEngine(
        {rt::Buffer::fromMatrix({stored[0]}), stored_buf}, 2, {});

    // Fire all queries asynchronously, then join: answers arrive in
    // submission slots regardless of completion order.
    std::vector<std::future<core::ExecutionResult>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(engine->submit(
            {rt::Buffer::fromMatrix(
                 {stored[static_cast<std::size_t>(i) % stored.size()]}),
             stored_buf}));
    for (int i = 0; i < 16; ++i) {
        core::ExecutionResult r =
            futures[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(r.outputs[1].asBuffer()->atInt({0, 0}), i % 8)
            << "query " << i;
    }
    engine->drain();
    EXPECT_EQ(engine->backend().queriesServed(), 16);
}

TEST(ServingEngine, StatsReportThroughputAndLatency)
{
    auto stored = randomRows(8, 64, 53);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto batches = makeBatches(stored, stored_buf, 10);
    auto engine = kernel.createServingEngine(batches[0], 2);

    core::ServingStats before = engine->stats();
    EXPECT_EQ(before.queriesServed, 0);
    EXPECT_EQ(before.qps, 0.0);
    EXPECT_EQ(before.p50LatencyUs, 0.0);

    serveFromThreads(*engine, batches, 2);
    core::ServingStats stats = engine->stats();
    EXPECT_EQ(stats.queriesServed, 10);
    EXPECT_GT(stats.wallSeconds, 0.0);
    EXPECT_GT(stats.qps, 0.0);
    EXPECT_GT(stats.p50LatencyUs, 0.0);
    EXPECT_GE(stats.p95LatencyUs, stats.p50LatencyUs);
    EXPECT_EQ(stats.aggregate.queriesServed, 10);
}

TEST(ServingEngine, ThreadCapLimitsConcurrencyButNotResults)
{
    auto stored = randomRows(8, 64, 59);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto batches = makeBatches(stored, stored_buf, 9);

    // Four replicas, one dispatcher: serving is serial, answers are not
    // affected.
    core::AsyncServingOptions options;
    options.dispatchers = 1;
    auto engine = kernel.createAsyncServingEngine(batches[0], 4, options);
    EXPECT_EQ(engine->backend().concurrency(), 4);
    EXPECT_EQ(engine->numDispatchers(), 1);
    auto capped = engine->submitBatch(batches);
    ASSERT_EQ(capped.size(), 9u);
    for (std::size_t q = 0; q < capped.size(); ++q)
        EXPECT_EQ(capped[q].get().outputs[1].asBuffer()->atInt({0, 0}),
                  static_cast<std::int64_t>(q % 8));
}

TEST(ServingEngine, ValidatesArgumentsUpFront)
{
    auto stored = randomRows(8, 64, 61);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto query = rt::Buffer::fromMatrix({stored[0]});

    EXPECT_THROW(kernel.createServingEngine({query}, 2), CompilerError);
    EXPECT_THROW(kernel.createServingEngine({query, stored_buf}, 0),
                 CompilerError);

    auto engine =
        kernel.createAsyncServingEngine({query, stored_buf}, 2, {});
    EXPECT_THROW(engine->submit({query}), CompilerError);
    // A bad batch fails before any query is enqueued.
    EXPECT_THROW(engine->submitBatch({{query, stored_buf}, {stored_buf}}),
                 CompilerError);
    engine->drain();
    EXPECT_EQ(engine->backend().queriesServed(), 0);
    // The engine stays usable after rejected calls.
    core::ExecutionResult r =
        engine->submit({query, stored_buf}).get();
    EXPECT_EQ(r.outputs[1].asBuffer()->atInt({0, 0}), 0);
}

TEST(ServingEngine, EuclideanKernelServesInParallel)
{
    auto stored = randomRows(12, 32, 67);
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.spec.camType = arch::CamDeviceType::Mcam;
    options.spec.bitsPerCell = 2;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::knnEuclideanSource(1, 12, 32, 2));
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto batches = makeBatches(stored, stored_buf, 8);

    core::ExecutionSession session = kernel.createSession(batches[0]);
    std::vector<core::ExecutionResult> serial = session.runBatch(batches);

    auto engine = kernel.createServingEngine(batches[0], 3);
    std::vector<core::ExecutionResult> served =
        serveFromThreads(*engine, batches, 3);
    for (std::size_t q = 0; q < served.size(); ++q) {
        for (std::size_t i = 0; i < served[q].outputs.size(); ++i)
            expectBuffersEqual(served[q].outputs[i], serial[q].outputs[i]);
        expectReportsIdentical(served[q].perf, serial[q].perf);
    }
}

TEST(ServingEngine, AsyncOverOneReplicaMatchesSerialReplay)
{
    auto stored = randomRows(12, 64, 107);
    core::CompiledKernel kernel = compileDotKernel(
        ArchSpec::dseSetup(32, OptTarget::Base), 1, 12, 64, 2);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto batches = makeBatches(stored, stored_buf, 12);
    core::ExecutionSession reference = kernel.createSession(batches[0]);
    std::vector<core::ExecutionResult> serial = reference.runBatch(batches);

    auto engine = kernel.createAsyncServingEngine(batches[0], 1, {});
    EXPECT_EQ(engine->backend().concurrency(), 1);
    auto futures = engine->submitBatch(batches);
    for (std::size_t q = 0; q < futures.size(); ++q) {
        core::ExecutionResult r = futures[q].get();
        ASSERT_EQ(r.outputs.size(), serial[q].outputs.size());
        for (std::size_t i = 0; i < r.outputs.size(); ++i)
            expectBuffersEqual(r.outputs[i], serial[q].outputs[i]);
        // One replica, one device: reports are bit-identical too (the
        // sharded engine's aggregated reports intentionally are not).
        EXPECT_EQ(r.perf.queryLatencyNs, serial[q].perf.queryLatencyNs);
        EXPECT_EQ(r.perf.queryEnergyPj, serial[q].perf.queryEnergyPj);
    }
    engine->drain();
    EXPECT_EQ(engine->backend().queriesServed(),
              static_cast<std::int64_t>(batches.size()));
}
