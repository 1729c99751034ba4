/**
 * @file
 * End-to-end span tracing through the serving stack.
 *
 * The contract under test: with a TraceCollector installed, every
 * async query exports a root "query" span whose "admit" /
 * "enqueue-wait" / "dispatch" / "deliver" children telescope exactly
 * (shared clock stamps, so sum-of-stages == end-to-end), the
 * "execute" span nests under "dispatch" and carries the device
 * window's simulated breakdown bit-identical to the query's
 * PerfReport, and the synchronous layers (ExecutionSession,
 * ServingEngine) export the same execute/merge shape on their own.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ServingEngine.h"
#include "support/Rng.h"
#include "support/Trace.h"

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;
using support::TraceCollector;
using support::TraceEvent;

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

struct Workload
{
    core::CompiledKernel kernel;
    std::vector<std::vector<float>> stored;
    rt::BufferPtr storedBuf;

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
            randomRows(kRows, kDims, 41), nullptr};
        built->storedBuf = rt::Buffer::fromMatrix(built->stored);
        return built;
    }();
    return *w;
}

/** All spans of one query, keyed by span name. */
using SpanMap = std::multimap<std::string, TraceEvent>;

std::map<std::uint64_t, SpanMap>
groupByQuery(const std::vector<TraceEvent> &events)
{
    std::map<std::uint64_t, SpanMap> queries;
    for (const TraceEvent &ev : events)
        if (ev.queryId != 0)
            queries[ev.queryId].emplace(ev.name, ev);
    return queries;
}

const TraceEvent &
only(const SpanMap &spans, const std::string &name)
{
    EXPECT_EQ(spans.count(name), 1u) << "span " << name;
    return spans.find(name)->second;
}

} // namespace

TEST(TraceIntegration, AsyncQuerySpansNestAndTelescope)
{
    TraceCollector collector;
    core::AsyncServingOptions options;
    options.queueCapacity = 64;
    options.dispatchers = 1;
    options.fuseMaxK = 1; // single-dispatch windows: deterministic sim
    options.trace = &collector;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 1, options);

    const std::int64_t n = 8;
    std::vector<std::future<core::ExecutionResult>> futures;
    for (std::int64_t i = 0; i < n; ++i)
        futures.push_back(engine->submit(workload().queryFor(i % kRows)));
    std::vector<core::ExecutionResult> results;
    for (auto &f : futures)
        results.push_back(f.get());
    engine->drain();

    std::vector<TraceEvent> events = collector.snapshot();
    EXPECT_EQ(collector.dropped(), 0);
    auto queries = groupByQuery(events);
    ASSERT_EQ(queries.size(), static_cast<std::size_t>(n));

    for (std::int64_t i = 0; i < n; ++i) {
        // Query ids are handed out in submission order from the single
        // submitting thread, so query i maps to id i + 1.
        std::uint64_t query_id = static_cast<std::uint64_t>(i) + 1;
        SCOPED_TRACE("query " + std::to_string(query_id));
        ASSERT_TRUE(queries.count(query_id));
        const SpanMap &spans = queries[query_id];

        const TraceEvent &root = only(spans, "query");
        const TraceEvent &admit = only(spans, "admit");
        const TraceEvent &wait = only(spans, "enqueue-wait");
        const TraceEvent &dispatch = only(spans, "dispatch");
        const TraceEvent &deliver = only(spans, "deliver");
        const TraceEvent &exec = only(spans, "execute");
        const TraceEvent &merge = only(spans, "merge");

        // One trace id for the whole engine, root spans at depth 0,
        // lifecycle stages under the root, engine spans under the
        // dispatch stage that ran them.
        EXPECT_EQ(root.traceId, admit.traceId);
        EXPECT_EQ(root.parentSpanId, 0u);
        for (const TraceEvent *stage : {&admit, &wait, &dispatch, &deliver})
            EXPECT_EQ(stage->parentSpanId, root.spanId);
        EXPECT_EQ(exec.parentSpanId, dispatch.spanId);
        EXPECT_EQ(merge.parentSpanId, dispatch.spanId);

        // The stages share clock stamps, so they tile the root span
        // exactly: admit starts with the root, each stage begins where
        // the previous ended, and the durations telescope.
        EXPECT_DOUBLE_EQ(admit.startUs, root.startUs);
        EXPECT_DOUBLE_EQ(wait.startUs, admit.startUs + admit.durUs);
        EXPECT_DOUBLE_EQ(dispatch.startUs, wait.startUs + wait.durUs);
        EXPECT_DOUBLE_EQ(deliver.startUs,
                         dispatch.startUs + dispatch.durUs);
        double staged =
            admit.durUs + wait.durUs + dispatch.durUs + deliver.durUs;
        EXPECT_NEAR(staged, root.durUs, 1e-3);

        // execute/merge nest inside their dispatch window.
        EXPECT_GE(exec.startUs, dispatch.startUs);
        EXPECT_LE(merge.startUs + merge.durUs,
                  dispatch.startUs + dispatch.durUs + 1e-3);

        // The execute span carries the device window's simulated
        // breakdown, bit-identical to the PerfReport the caller got.
        const core::ExecutionResult &result =
            results[static_cast<std::size_t>(i)];
        ASSERT_TRUE(exec.hasSim);
        EXPECT_EQ(exec.simQueryLatencyNs, result.perf.queryLatencyNs);
        EXPECT_EQ(exec.simQueryEnergyPj, result.perf.queryEnergyPj);
        EXPECT_EQ(exec.simCellEnergyPj, result.perf.cellEnergyPj);
        EXPECT_EQ(exec.simSenseEnergyPj, result.perf.senseEnergyPj);
        EXPECT_EQ(exec.simDriveEnergyPj, result.perf.driveEnergyPj);
        EXPECT_EQ(exec.simMergeEnergyPj, result.perf.mergeEnergyPj);
        EXPECT_EQ(exec.simSearches, result.perf.searches);
        EXPECT_FALSE(root.hasSim);

        // fuseMaxK = 1: nothing rode a fused window.
        EXPECT_EQ(dispatch.fusedK, 0);
    }

    // Every dispatch group left a zero-duration fuse-decision marker.
    std::int64_t decisions = 0;
    for (const TraceEvent &ev : events)
        if (std::string(ev.name) == "fuse-decision") {
            ++decisions;
            EXPECT_EQ(ev.durUs, 0.0);
        }
    EXPECT_EQ(decisions, n);
}

TEST(TraceIntegration, AsyncFusedDispatchTagsGroupWidth)
{
    // One dispatcher + a deep backlog: groups coalesce, and both the
    // dispatch span and the group's fuse-decision marker carry the
    // fused width. Whether the backlog builds depends on the host's
    // submit/serve speed ratio, so the burst retries a few times, each
    // on a fresh engine (as AsyncServing.MicroBatchingFusesUnderLoadOnly
    // does); the span-vs-stats equalities are asserted on every burst,
    // and at least one burst must have fused.
    std::int64_t fused_windows = 0;
    for (int attempt = 0; attempt < 5 && fused_windows == 0; ++attempt) {
        SCOPED_TRACE("burst " + std::to_string(attempt));
        TraceCollector collector;
        core::AsyncServingOptions options;
        options.queueCapacity = 64;
        options.dispatchers = 1;
        options.fuseMaxK = 4;
        options.trace = &collector;
        auto engine = workload().kernel.createAsyncServingEngine(
            workload().queryFor(0), 1, options);

        const std::int64_t n = 48;
        std::vector<std::future<core::ExecutionResult>> futures;
        for (std::int64_t i = 0; i < n; ++i)
            futures.push_back(
                engine->submit(workload().queryFor(i % kRows)));
        for (auto &f : futures)
            f.get();
        engine->drain();
        core::AsyncServingStats stats = engine->stats();

        std::int64_t fused_dispatches = 0, fused_decisions = 0;
        for (const TraceEvent &ev : collector.snapshot()) {
            std::string name = ev.name;
            if (name == "dispatch" && ev.fusedK >= 2) {
                ++fused_dispatches;
                EXPECT_LE(ev.fusedK, 4);
            }
            if (name == "fuse-decision" && ev.fusedK >= 2) {
                ++fused_decisions;
            }
        }
        EXPECT_EQ(fused_dispatches, stats.fusedQueries);
        EXPECT_EQ(fused_decisions, stats.fusedWindows);
        fused_windows = stats.fusedWindows;
    }
    EXPECT_GT(fused_windows, 0);
}

TEST(TraceIntegration, SessionRecordsExecuteAndMergePerQuery)
{
    TraceCollector collector;
    core::ExecutionSession session =
        workload().kernel.createSession(workload().queryFor(0));
    EXPECT_EQ(session.traceCollector(), nullptr);
    session.enableTracing(&collector);
    EXPECT_EQ(session.traceCollector(), &collector);

    core::ExecutionResult r0 = session.runQuery(workload().queryFor(1));
    core::ExecutionResult r1 = session.runQuery(workload().queryFor(2));

    auto queries = groupByQuery(collector.snapshot());
    ASSERT_EQ(queries.size(), 2u);
    const std::vector<const core::ExecutionResult *> results{&r0, &r1};
    std::size_t idx = 0;
    for (const auto &[query_id, spans] : queries) {
        SCOPED_TRACE("query " + std::to_string(query_id));
        const TraceEvent &root = only(spans, "query");
        const TraceEvent &exec = only(spans, "execute");
        const TraceEvent &merge = only(spans, "merge");
        EXPECT_EQ(root.parentSpanId, 0u);
        EXPECT_EQ(exec.parentSpanId, root.spanId);
        EXPECT_EQ(merge.parentSpanId, root.spanId);
        // execute and merge tile the root exactly.
        EXPECT_DOUBLE_EQ(exec.startUs, root.startUs);
        EXPECT_DOUBLE_EQ(merge.startUs, exec.startUs + exec.durUs);
        EXPECT_NEAR(exec.durUs + merge.durUs, root.durUs, 1e-3);
        ASSERT_TRUE(exec.hasSim);
        EXPECT_EQ(exec.simQueryLatencyNs,
                  results[idx]->perf.queryLatencyNs);
        EXPECT_EQ(exec.simQueryEnergyPj,
                  results[idx]->perf.queryEnergyPj);
        ++idx;
    }
    // Plan-backed session: replay itself left spans under execute.
    std::int64_t replays = 0;
    for (const TraceEvent &ev : collector.snapshot())
        if (std::string(ev.name) == "plan-replay")
            ++replays;
    if (session.usesPlan()) {
        EXPECT_EQ(replays, 2);
    }
}

TEST(TraceIntegration, SyncEngineServeCreatesItsOwnRootSpans)
{
    TraceCollector collector;
    auto engine =
        workload().kernel.createServingEngine(workload().queryFor(0), 2);
    engine->enableTracing(&collector);
    EXPECT_EQ(engine->traceCollector(), &collector);

    core::ExecutionResult result = engine->serve(workload().queryFor(3));
    (void)result;

    auto queries = groupByQuery(collector.snapshot());
    ASSERT_EQ(queries.size(), 1u);
    const SpanMap &spans = queries.begin()->second;
    const TraceEvent &root = only(spans, "query");
    const TraceEvent &exec = only(spans, "execute");
    const TraceEvent &merge = only(spans, "merge");
    EXPECT_EQ(root.parentSpanId, 0u);
    EXPECT_EQ(exec.parentSpanId, root.spanId);
    EXPECT_EQ(merge.parentSpanId, root.spanId);
    EXPECT_TRUE(exec.hasSim);
    EXPECT_GE(exec.startUs, root.startUs);
}

TEST(TraceIntegration, TracingDoesNotPerturbResults)
{
    // Same query, traced engine vs untraced session: outputs and
    // PerfReports must be bit-identical (the async stress tier locks
    // this broadly; this is the focused traced-vs-untraced pin).
    core::ExecutionSession plain =
        workload().kernel.createSession(workload().queryFor(0));
    core::ExecutionResult ref = plain.runQuery(workload().queryFor(5));

    TraceCollector collector;
    core::AsyncServingOptions options;
    options.trace = &collector;
    auto engine = workload().kernel.createAsyncServingEngine(
        workload().queryFor(0), 1, options);
    core::ExecutionResult traced =
        engine->submit(workload().queryFor(5)).get();
    engine->drain();

    EXPECT_EQ(traced.outputs[1].asBuffer()->atInt({0, 0}),
              ref.outputs[1].asBuffer()->atInt({0, 0}));
    EXPECT_EQ(traced.perf.queryLatencyNs, ref.perf.queryLatencyNs);
    EXPECT_EQ(traced.perf.queryEnergyPj, ref.perf.queryEnergyPj);
    EXPECT_EQ(traced.perf.cellEnergyPj, ref.perf.cellEnergyPj);
    EXPECT_EQ(traced.perf.senseEnergyPj, ref.perf.senseEnergyPj);
    EXPECT_EQ(traced.perf.driveEnergyPj, ref.perf.driveEnergyPj);
    EXPECT_EQ(traced.perf.mergeEnergyPj, ref.perf.mergeEnergyPj);
    EXPECT_EQ(traced.perf.searches, ref.perf.searches);
    EXPECT_GT(collector.size(), 0u);
}
