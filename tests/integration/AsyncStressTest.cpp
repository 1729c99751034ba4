/**
 * @file
 * Concurrency soak and functional tests for the async serving
 * front-end: multiple producers hammering an AsyncServingEngine under
 * every overflow policy, asserting that no result is lost or
 * duplicated, that the admission accounting stays exact, that
 * per-query answers and simulated cost reports remain bit-identical
 * to serial session replay, and that shutdown with in-flight work is
 * clean. Runs under TSan in CI (the async-stress job step).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ServingEngine.h"
#include "sim/FaultInjector.h"
#include "support/Error.h"
#include "support/Rng.h"

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;
using c4cam::support::OverflowPolicy;

namespace {

constexpr std::int64_t kRows = 8;
constexpr std::int64_t kDims = 64;

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

/** Shared tiny workload: one kernel, stored data, and the serial
 *  per-row reference reports every async result is checked against. */
struct Workload
{
    core::CompiledKernel kernel;
    std::vector<std::vector<float>> stored;
    rt::BufferPtr storedBuf;
    /** Reference result per stored row, from a serial session. */
    std::vector<core::ExecutionResult> reference;

    std::vector<rt::BufferPtr>
    queryFor(std::int64_t row) const
    {
        return {rt::Buffer::fromMatrix(
                    {stored[static_cast<std::size_t>(row)]}),
                storedBuf};
    }
};

Workload &
workload()
{
    static Workload *w = [] {
        core::CompilerOptions options;
        options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
        core::Compiler compiler(options);
        auto *built = new Workload{
            compiler.compileTorchScript(
                apps::dotSimilaritySource(1, kRows, kDims, 1)),
            randomRows(kRows, kDims, 97), nullptr, {}};
        built->storedBuf = rt::Buffer::fromMatrix(built->stored);
        core::ExecutionSession session =
            built->kernel.createSession(built->queryFor(0));
        for (std::int64_t r = 0; r < kRows; ++r)
            built->reference.push_back(
                session.runQuery(built->queryFor(r)));
        return built;
    }();
    return *w;
}

/** The invariant every served query must satisfy: right answer and a
 *  simulated cost report bit-identical to serial session replay. */
void
expectMatchesReference(const core::ExecutionResult &result,
                       std::int64_t row)
{
    const core::ExecutionResult &ref =
        workload().reference[static_cast<std::size_t>(row)];
    EXPECT_EQ(result.outputs[1].asBuffer()->atInt({0, 0}), row);
    EXPECT_EQ(result.perf.queryLatencyNs, ref.perf.queryLatencyNs);
    EXPECT_EQ(result.perf.queryEnergyPj, ref.perf.queryEnergyPj);
    EXPECT_EQ(result.perf.cellEnergyPj, ref.perf.cellEnergyPj);
    EXPECT_EQ(result.perf.senseEnergyPj, ref.perf.senseEnergyPj);
    EXPECT_EQ(result.perf.driveEnergyPj, ref.perf.driveEnergyPj);
    EXPECT_EQ(result.perf.mergeEnergyPj, ref.perf.mergeEnergyPj);
    EXPECT_EQ(result.perf.searches, ref.perf.searches);
}

/** Monotonicity + conservation checks between two stats snapshots. */
void
expectMonotone(const core::AsyncServingStats &before,
               const core::AsyncServingStats &after)
{
    EXPECT_GE(after.submitted, before.submitted);
    EXPECT_GE(after.accepted, before.accepted);
    EXPECT_GE(after.rejected, before.rejected);
    EXPECT_GE(after.dropped, before.dropped);
    EXPECT_GE(after.completed, before.completed);
    EXPECT_GE(after.failed, before.failed);
    EXPECT_GE(after.fusedWindows, before.fusedWindows);
    EXPECT_GE(after.fusedQueries, before.fusedQueries);
    // Conservation: every ticketed query is still pending, completed,
    // or rejected -- never more outcomes than tickets.
    EXPECT_LE(after.completed + after.rejected, after.submitted);
    EXPECT_LE(after.queueDepth, after.queueCapacity);
}

} // namespace

TEST(AsyncServing, SubmitFutureResolvesWithSerialIdenticalResult)
{
    core::AsyncServingOptions options;
    options.queueCapacity = 8;
    auto engine =
        workload().kernel.createAsyncServingEngine(workload().queryFor(0),
                                                   2, options);
    std::future<core::ExecutionResult> future =
        engine->submit(workload().queryFor(3));
    core::ExecutionResult result = future.get();
    expectMatchesReference(result, 3);
    engine->drain();
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.accepted, 1);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.serving.queriesServed, 1);
    EXPECT_GE(stats.p95ExecuteUs, stats.p50ExecuteUs);
    EXPECT_GT(stats.p50ExecuteUs, 0.0);
}

TEST(AsyncServing, MalformedSubmissionFailsOnCallerStack)
{
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 1, {});
    EXPECT_THROW(engine->submit({}), CompilerError);
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.submitted, 0); // never ticketed, never queued
}

TEST(AsyncServing, SubmitBatchValidatesEveryQueryBeforeEnqueuingAny)
{
    // A malformed query at the END of a batch must fail the whole call
    // before any batch-mate is enqueued: the caller never receives the
    // futures, so a half-enqueued batch would serve queries nobody can
    // collect.
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 1, {});
    EXPECT_THROW(engine->submitBatch({workload().queryFor(1),
                                      workload().queryFor(2),
                                      workload().queryFor(3),
                                      {}}),
                 CompilerError);
    engine->drain();
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.submitted, 0);
    EXPECT_EQ(stats.completed, 0);
    EXPECT_EQ(stats.serving.queriesServed, 0);

    // A well-formed batch on the same engine is served in full.
    auto futures = engine->submitBatch(
        {workload().queryFor(4), workload().queryFor(5)});
    ASSERT_EQ(futures.size(), 2u);
    expectMatchesReference(futures[0].get(), 4);
    expectMatchesReference(futures[1].get(), 5);
}

TEST(AsyncServing, MicroBatchingFusesUnderLoadOnly)
{
    // One dispatcher, many queued queries: the collector must fuse.
    // Whether the queue actually builds up depends on the submit/serve
    // speed ratio of the host, so the burst retries a few times; the
    // accounting invariants are asserted on every attempt, and at
    // least one burst must have coalesced.
    std::int64_t fused_windows = 0;
    for (int attempt = 0; attempt < 5 && fused_windows == 0; ++attempt) {
        core::AsyncServingOptions options;
        options.queueCapacity = 64;
        options.fuseMaxK = 4;
        options.dispatchers = 1;
        auto engine = workload().kernel.createAsyncServingEngine(
            workload().queryFor(0), 1, options);
        const std::size_t n = 48;
        std::vector<std::future<core::ExecutionResult>> futures;
        for (std::size_t i = 0; i < n; ++i)
            futures.push_back(engine->submit(
                workload().queryFor(static_cast<std::int64_t>(i % kRows))));
        for (std::size_t i = 0; i < n; ++i)
            expectMatchesReference(futures[i].get(),
                                   static_cast<std::int64_t>(i % kRows));
        engine->drain();
        core::AsyncServingStats stats = engine->stats();
        EXPECT_EQ(stats.completed, static_cast<std::int64_t>(n));
        // Every fused window is bounded by fuseMaxK, and fused +
        // single dispatches account for exactly the burst.
        EXPECT_LE(stats.fusedQueries, stats.fusedWindows * 4);
        EXPECT_EQ(stats.fusedQueries + stats.singleDispatches,
                  static_cast<std::int64_t>(n));
        EXPECT_EQ(stats.serving.queriesServed,
                  static_cast<std::int64_t>(n));
        fused_windows = stats.fusedWindows;
    }
    EXPECT_GT(fused_windows, 0);
}

TEST(AsyncServing, FuseMaxKOneDisablesMicroBatching)
{
    core::AsyncServingOptions options;
    options.fuseMaxK = 1;
    options.dispatchers = 1;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 1, options);
    std::vector<std::future<core::ExecutionResult>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(engine->submit(workload().queryFor(i % kRows)));
    for (auto &f : futures)
        f.get();
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.fusedWindows, 0);
    EXPECT_EQ(stats.singleDispatches, 16);
}

TEST(AsyncServing, DrainWaitsForBacklog)
{
    core::AsyncServingOptions options;
    options.queueCapacity = 64;
    options.dispatchers = 1;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 1, options);
    std::vector<std::future<core::ExecutionResult>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(engine->submit(workload().queryFor(i % kRows)));
    engine->drain();
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.completed, 32);
    EXPECT_EQ(stats.queueDepth, 0u);
    for (auto &f : futures)
        EXPECT_TRUE(f.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready);
}

TEST(AsyncServing, ShutdownRejectsNewWorkAndDrainsAccepted)
{
    core::AsyncServingOptions options;
    options.queueCapacity = 64;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 2, options);
    std::vector<std::future<core::ExecutionResult>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(engine->submit(workload().queryFor(i % kRows)));
    engine->shutdown();
    EXPECT_TRUE(engine->shuttingDown());
    // Everything accepted before the close completed successfully.
    for (int i = 0; i < 16; ++i)
        expectMatchesReference(futures[static_cast<std::size_t>(i)].get(),
                               i % kRows);
    // New work is refused with the admission-specific error type (not
    // a generic execution error).
    std::future<core::ExecutionResult> late =
        engine->submit(workload().queryFor(0));
    EXPECT_THROW(late.get(), core::AdmissionError);
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.completed, 16);
    EXPECT_EQ(stats.rejected, 1);
    // Idempotent second shutdown.
    engine->shutdown();
}

/**
 * The soak: 8 producers x 256 queries each against a small replica
 * set, under each overflow policy, with a stats sampler racing the
 * storm. Every future must resolve exactly once -- either with a
 * result that is bit-identical to serial replay or with an admission
 * error -- and the admission accounting must balance to the query.
 */
class AsyncStress : public ::testing::TestWithParam<OverflowPolicy>
{};

TEST_P(AsyncStress, EightProducersNoLostOrDuplicatedResults)
{
    const OverflowPolicy policy = GetParam();
    const int producers = 8;
    const int per_producer = 256;
    const std::int64_t total = producers * per_producer;

    core::AsyncServingOptions options;
    options.policy = policy;
    options.queueCapacity = 16;
    options.fuseMaxK = 4;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 2, options);

    // One future per (producer, index); the row each query targets is
    // derived from the pair, so a mixed-up or duplicated completion
    // would surface as a wrong top-1 answer somewhere.
    std::vector<std::vector<std::future<core::ExecutionResult>>> futures(
        producers);
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        futures[static_cast<std::size_t>(p)].reserve(per_producer);
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i) {
                std::int64_t row = (p + 3 * i) % kRows;
                futures[static_cast<std::size_t>(p)].push_back(
                    engine->submit(workload().queryFor(row)));
            }
        });
    }

    // Sampler thread: stats must stay monotone and conservation must
    // hold at every observation point mid-storm.
    std::atomic<bool> storm_over{false};
    std::thread sampler([&] {
        core::AsyncServingStats last = engine->stats();
        while (!storm_over.load()) {
            core::AsyncServingStats now = engine->stats();
            expectMonotone(last, now);
            last = now;
            std::this_thread::yield();
        }
    });

    for (auto &t : threads)
        t.join();
    engine->drain();
    storm_over.store(true);
    sampler.join();

    std::int64_t ok = 0;
    std::int64_t admission_failures = 0;
    for (int p = 0; p < producers; ++p) {
        for (int i = 0; i < per_producer; ++i) {
            std::int64_t row = (p + 3 * i) % kRows;
            try {
                core::ExecutionResult result =
                    futures[static_cast<std::size_t>(p)]
                           [static_cast<std::size_t>(i)]
                               .get();
                expectMatchesReference(result, row);
                ++ok;
            } catch (const core::AdmissionError &) {
                ++admission_failures; // rejected or dropped
            }
            // Any other exception type escapes and fails the test:
            // with valid inputs nothing may fail DURING execution.
        }
    }

    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.queueDepth, 0u);
    // Exactly one outcome per submission, nothing lost, nothing extra.
    EXPECT_EQ(ok + admission_failures, total);
    EXPECT_EQ(stats.completed + stats.rejected, total);
    EXPECT_EQ(stats.accepted + stats.rejected, total);
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(stats.failed, stats.dropped);
    EXPECT_EQ(admission_failures, stats.rejected + stats.dropped);
    // The engine served exactly the successful queries -- a duplicate
    // dispatch would push queriesServed above ok.
    EXPECT_EQ(stats.serving.queriesServed, ok);
    EXPECT_EQ(stats.fusedQueries + stats.singleDispatches,
              stats.accepted - stats.dropped);

    switch (policy) {
    case OverflowPolicy::Block:
        // Lossless: backpressure, never load shedding.
        EXPECT_EQ(stats.rejected, 0);
        EXPECT_EQ(stats.dropped, 0);
        EXPECT_EQ(ok, total);
        break;
    case OverflowPolicy::Reject:
        EXPECT_EQ(stats.dropped, 0);
        break;
    case OverflowPolicy::DropOldest:
        EXPECT_EQ(stats.rejected, 0);
        EXPECT_EQ(stats.completed, total);
        break;
    }

    // Clean shutdown with a drained engine.
    engine->shutdown();
    core::AsyncServingStats final_stats = engine->stats();
    EXPECT_EQ(final_stats.completed, stats.completed);
}

INSTANTIATE_TEST_SUITE_P(Policies, AsyncStress,
                         ::testing::Values(OverflowPolicy::Block,
                                           OverflowPolicy::Reject,
                                           OverflowPolicy::DropOldest),
                         [](const auto &info) {
                             switch (info.param) {
                             case OverflowPolicy::Block:
                                 return "block";
                             case OverflowPolicy::Reject:
                                 return "reject";
                             case OverflowPolicy::DropOldest:
                                 return "drop_oldest";
                             }
                             return "unknown";
                         });

TEST(AsyncServing, ShutdownRacingProducersLosesNoAcceptedWork)
{
    // Producers submit while the main thread shuts the engine down
    // mid-storm: every accepted query must still complete, every
    // refused one must fail cleanly, and nothing may hang or crash.
    core::AsyncServingOptions options;
    options.queueCapacity = 8;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 2, options);

    const int producers = 4;
    const int per_producer = 64;
    std::vector<std::vector<std::future<core::ExecutionResult>>> futures(
        producers);
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i)
                futures[static_cast<std::size_t>(p)].push_back(
                    engine->submit(workload().queryFor((p + i) % kRows)));
        });
    }
    // Let some work through, then close the doors.
    while (engine->stats().completed < 8)
        std::this_thread::yield();
    engine->shutdown();
    for (auto &t : threads)
        t.join();

    std::int64_t ok = 0;
    std::int64_t refused = 0;
    for (int p = 0; p < producers; ++p)
        for (int i = 0; i < static_cast<int>(
                                futures[static_cast<std::size_t>(p)]
                                    .size());
             ++i) {
            std::int64_t row = (p + i) % kRows;
            try {
                expectMatchesReference(
                    futures[static_cast<std::size_t>(p)]
                           [static_cast<std::size_t>(i)]
                               .get(),
                    row);
                ++ok;
            } catch (const core::AdmissionError &) {
                ++refused;
            }
        }
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(ok, stats.completed);
    EXPECT_EQ(refused, stats.rejected);
    EXPECT_EQ(ok + refused, stats.submitted);
    EXPECT_GE(ok, 8);
}

TEST(AsyncServing, InjectedFaultsRacingShutdownResolveEveryFutureOnce)
{
    // Chaos variant of the shutdown race: seeded transient faults keep
    // firing (and being retried) on the replicas while producers race
    // a mid-storm shutdown. The contract under test: every future
    // resolves EXACTLY once -- with a reference-identical result, a
    // typed admission refusal, or (retry budget exhausted) an
    // execution error -- and the admission accounting still balances.
    core::AsyncServingOptions options;
    options.queueCapacity = 16;
    options.fuseMaxK = 4;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 2, options);

    sim::FaultSpec spec;
    spec.seed = 20240807;
    spec.transientRate = 0.05;
    auto injector = std::make_shared<sim::FaultInjector>(spec);
    auto *serving =
        dynamic_cast<core::ServingEngine *>(&engine->backend());
    ASSERT_NE(serving, nullptr);
    core::RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.backoffUs = 0;
    serving->setRetryPolicy(policy);
    serving->attachFaultInjector(injector);

    const int producers = 4;
    const int per_producer = 64;
    std::vector<std::vector<std::future<core::ExecutionResult>>> futures(
        producers);
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i)
                futures[static_cast<std::size_t>(p)].push_back(
                    engine->submit(workload().queryFor((p + i) % kRows)));
        });
    }
    while (engine->stats().completed < 8)
        std::this_thread::yield();
    engine->shutdown();
    for (auto &t : threads)
        t.join();

    std::int64_t ok = 0;
    std::int64_t refused = 0;
    std::int64_t exhausted = 0;
    for (int p = 0; p < producers; ++p)
        for (std::size_t i = 0;
             i < futures[static_cast<std::size_t>(p)].size(); ++i) {
            std::int64_t row =
                (p + static_cast<int>(i)) % static_cast<int>(kRows);
            auto &future = futures[static_cast<std::size_t>(p)][i];
            ASSERT_TRUE(future.valid());
            try {
                expectMatchesReference(future.get(), row);
                ++ok;
            } catch (const core::AdmissionError &) {
                ++refused; // shutdown closed the door first
            } catch (const CompilerError &) {
                ++exhausted; // transient faults beat the retry budget
            }
            // A resolved future's state is consumed: a second delivery
            // would have thrown std::future_error instead.
            EXPECT_FALSE(future.valid());
        }

    core::AsyncServingStats stats = engine->stats();
    std::int64_t total = ok + refused + exhausted;
    EXPECT_EQ(total, stats.submitted);
    EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_GE(ok, 8);
    // Retries happened (or faults never fired -- at 5% over this many
    // searches that would be a broken injector, caught elsewhere), and
    // every recovered result above was still reference-identical.
    EXPECT_EQ(stats.failed,
              exhausted + static_cast<std::int64_t>(stats.dropped));
    EXPECT_GE(stats.serving.retries + stats.fallbackRetries, 0);
}

TEST(AsyncServing, DrainIsIdempotentAndSafeConcurrentWithShutdown)
{
    // Regression for the drain()/shutdown() contract: drain() may be
    // called any number of times, from any number of threads, while
    // another thread closes the engine -- no call may deadlock, throw
    // or observe a half-delivered backlog. Every future submitted
    // before the close still resolves with the reference result.
    core::AsyncServingOptions options;
    options.queueCapacity = 64;
    options.dispatchers = 2;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 2, options);

    std::vector<std::future<core::ExecutionResult>> futures;
    for (int i = 0; i < 48; ++i)
        futures.push_back(engine->submit(workload().queryFor(i % kRows)));

    std::vector<std::thread> drainers;
    for (int t = 0; t < 4; ++t)
        drainers.emplace_back([&engine] {
            for (int i = 0; i < 16; ++i)
                engine->drain();
        });
    std::thread closer([&engine] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        engine->shutdown();
    });
    for (auto &t : drainers)
        t.join();
    closer.join();

    // Idempotent after the close, too: repeated drain()/shutdown()
    // return immediately instead of waiting on work that cannot come.
    engine->drain();
    engine->drain();
    engine->shutdown();
    EXPECT_TRUE(engine->shuttingDown());

    for (int i = 0; i < 48; ++i)
        expectMatchesReference(futures[static_cast<std::size_t>(i)].get(),
                               i % kRows);
    core::AsyncServingStats stats = engine->stats();
    EXPECT_EQ(stats.completed, 48);
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_EQ(stats.queueDepth, 0u);
}
