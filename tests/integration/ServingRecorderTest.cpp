/**
 * @file
 * ServingRecorder: the one bookkeeper every serving layer records
 * into. Locks how served reports fold into the aggregate (query
 * windows on top of a one-time setup, all zero for host-only layers),
 * the wall-clock interval across out-of-order records, the
 * ServingStats it fills in, and the root spans it owns.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/ServingRecorder.h"
#include "sim/Timing.h"
#include "support/Trace.h"

using namespace c4cam;
using Clock = core::ServingRecorder::Clock;
using std::chrono::milliseconds;

namespace {

sim::PerfReport
setupReport()
{
    sim::PerfReport setup;
    setup.setupLatencyNs = 100.0;
    setup.setupEnergyPj = 40.0;
    setup.writes = 3;
    setup.subarraysUsed = 2;
    setup.subarraysAllocated = 4;
    setup.banksUsed = 1;
    return setup;
}

sim::PerfReport
queryReport(double latency_ns, std::int64_t searches)
{
    sim::PerfReport query;
    query.queryLatencyNs = latency_ns;
    query.queryEnergyPj = 2.0 * latency_ns;
    query.searches = searches;
    query.queriesServed = 1;
    return query;
}

} // namespace

TEST(ServingRecorder, PersistentFoldsQueryWindowsOnTopOfSetupOnce)
{
    core::ServingRecorder recorder(setupReport());
    Clock::time_point t = Clock::now();
    recorder.record(queryReport(5.0, 2), t, t + milliseconds(1));
    recorder.record(queryReport(7.0, 3), t, t + milliseconds(1));

    sim::PerfReport agg = recorder.aggregate();
    EXPECT_EQ(agg.queriesServed, 2);
    EXPECT_EQ(agg.queryLatencyNs, 12.0);
    EXPECT_EQ(agg.queryEnergyPj, 24.0);
    EXPECT_EQ(agg.searches, 5);
    // Setup is paid once, however many queries fold in.
    EXPECT_EQ(agg.setupLatencyNs, 100.0);
    EXPECT_EQ(agg.setupEnergyPj, 40.0);
    EXPECT_EQ(agg.writes, 3);
    EXPECT_EQ(agg.subarraysUsed, 2);
    EXPECT_EQ(recorder.queriesServed(), 2);
}

TEST(ServingRecorder, HostOnlyCountsZeroReportsOnAnEmptySetup)
{
    // A host-only serving layer has no device: its setup report and
    // every served report are all zero, so the aggregate only counts
    // the queries and its per-query figures stay finite zeros.
    core::ServingRecorder recorder(sim::PerfReport{});
    Clock::time_point t = Clock::now();
    recorder.record(sim::PerfReport{}, t, t + milliseconds(1));
    recorder.record(sim::PerfReport{}, t, t + milliseconds(2));

    sim::PerfReport expected;
    expected.queriesServed = 2;
    EXPECT_EQ(recorder.aggregate().toJson().dump(),
              expected.toJson().dump());
    EXPECT_EQ(recorder.aggregate().amortizedLatencyNs(), 0.0);
    EXPECT_EQ(recorder.stats().queriesServed, 2);
}

TEST(ServingRecorder, IntervalSpansEarliestSubmitToLatestCompletion)
{
    // Concurrent servers record out of order: the interval must still
    // run from the earliest start to the latest completion.
    core::ServingRecorder recorder(setupReport());
    Clock::time_point base = Clock::now();
    recorder.record(queryReport(1.0, 1), base + milliseconds(10),
                    base + milliseconds(20));
    recorder.record(queryReport(1.0, 1), base, base + milliseconds(5));
    recorder.record(queryReport(1.0, 1), base + milliseconds(12),
                    base + milliseconds(30));

    core::ServingStats stats = recorder.stats();
    EXPECT_EQ(stats.queriesServed, 3);
    EXPECT_DOUBLE_EQ(stats.wallSeconds, 0.030);
    EXPECT_DOUBLE_EQ(stats.qps, 100.0);
    // Latencies 10, 5 and 18 ms: nearest-rank p50 and p95.
    EXPECT_DOUBLE_EQ(stats.p50LatencyUs, 10000.0);
    EXPECT_DOUBLE_EQ(stats.p95LatencyUs, 18000.0);
}

TEST(ServingRecorder, StatsFillTheRecorderFieldsOnly)
{
    core::ServingRecorder recorder(setupReport());
    core::ServingStats empty = recorder.stats();
    EXPECT_EQ(empty.queriesServed, 0);
    EXPECT_EQ(empty.wallSeconds, 0.0);
    EXPECT_EQ(empty.qps, 0.0);
    EXPECT_EQ(empty.p50LatencyUs, 0.0);
    EXPECT_EQ(empty.aggregate.toJson().dump(),
              setupReport().toJson().dump());

    Clock::time_point t = Clock::now();
    recorder.record(queryReport(5.0, 2), t, t + milliseconds(4));
    core::ServingStats stats = recorder.stats();
    EXPECT_EQ(stats.queriesServed, 1);
    EXPECT_EQ(stats.aggregate.queriesServed, 1);
    EXPECT_EQ(stats.aggregate.toJson().dump(),
              recorder.aggregate().toJson().dump());
    EXPECT_DOUBLE_EQ(stats.p50LatencyUs, 4000.0);
    // The fault-recovery counters belong to the owning layer.
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.deadlineSheds, 0);
    EXPECT_EQ(stats.quarantines, 0);
    EXPECT_EQ(stats.degradedServes, 0);
}

TEST(ServingRecorder, ChunkRecordsEveryQueryOverTheWholeChunk)
{
    core::ServingRecorder recorder(setupReport());
    std::vector<core::ExecutionResult> results(3);
    for (std::size_t i = 0; i < results.size(); ++i)
        results[i].perf = queryReport(2.0, 1);
    Clock::time_point t = Clock::now();
    recorder.recordChunk(results, t, t + milliseconds(9));

    core::ServingStats stats = recorder.stats();
    EXPECT_EQ(stats.queriesServed, 3);
    EXPECT_EQ(stats.aggregate.queryLatencyNs, 6.0);
    EXPECT_EQ(stats.aggregate.searches, 3);
    EXPECT_DOUBLE_EQ(stats.p50LatencyUs, 9000.0);
    EXPECT_DOUBLE_EQ(stats.p95LatencyUs, 9000.0);
}

TEST(ServingRecorder, OwnsRootSpansOnlyWithoutACallerContext)
{
    core::ServingRecorder recorder(setupReport());
    support::SpanContext root;
    const support::SpanContext *ctx = nullptr;
    // Tracing off: nobody owns a root.
    EXPECT_FALSE(recorder.openRoot(ctx, root));
    EXPECT_EQ(ctx, nullptr);

    support::TraceCollector collector;
    recorder.enableTracing(&collector);
    EXPECT_EQ(recorder.traceCollector(), &collector);
    ASSERT_TRUE(recorder.openRoot(ctx, root));
    ASSERT_EQ(ctx, &root);
    EXPECT_EQ(root.collector, &collector);
    EXPECT_NE(root.queryId, 0u);
    EXPECT_NE(root.parentSpanId, 0u);

    // A caller-provided context keeps the root with the caller.
    support::SpanContext caller{&collector, 7, 8, 9};
    const support::SpanContext *given = &caller;
    support::SpanContext unused;
    EXPECT_FALSE(recorder.openRoot(given, unused));
    EXPECT_EQ(given, &caller);

    core::ServingRecorder::recordRoot(root, 10.0, 25.0, 4);
    std::vector<support::TraceEvent> events = collector.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(std::string(events[0].name), "query");
    EXPECT_EQ(events[0].traceId, root.traceId);
    EXPECT_EQ(events[0].queryId, root.queryId);
    EXPECT_EQ(events[0].spanId, root.parentSpanId);
    EXPECT_EQ(events[0].parentSpanId, 0u);
    EXPECT_EQ(events[0].startUs, 10.0);
    EXPECT_EQ(events[0].durUs, 15.0);
    EXPECT_EQ(events[0].fusedK, 4);

    // One root per query of a fused chunk, each with its own ids.
    std::vector<support::SpanContext> roots;
    const std::vector<support::SpanContext> *ctxs = nullptr;
    ASSERT_TRUE(recorder.openRoots(ctxs, roots, 3));
    ASSERT_EQ(ctxs, &roots);
    ASSERT_EQ(roots.size(), 3u);
    EXPECT_NE(roots[0].queryId, roots[1].queryId);
    EXPECT_NE(roots[1].parentSpanId, roots[2].parentSpanId);
    EXPECT_EQ(roots[2].traceId, root.traceId);
}
