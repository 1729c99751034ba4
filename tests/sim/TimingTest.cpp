/** @file Timing-engine scope semantics tests. */

#include <gtest/gtest.h>

#include "sim/Timing.h"
#include "support/Error.h"
#include "support/Json.h"

using namespace c4cam;
using namespace c4cam::sim;

TEST(Timing, SequentialScopeSumsLatency)
{
    TimingEngine t;
    t.beginScope(false);
    t.post(3.0, 1.0);
    t.post(4.0, 2.0);
    t.endScope();
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 7.0);
    EXPECT_DOUBLE_EQ(t.queryCost().energyPj, 3.0);
}

TEST(Timing, ParallelScopeTakesMaxLatencySumsEnergy)
{
    TimingEngine t;
    t.beginScope(true);
    t.post(3.0, 1.0);
    t.post(5.0, 2.0);
    t.post(4.0, 4.0);
    t.endScope();
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 5.0);
    EXPECT_DOUBLE_EQ(t.queryCost().energyPj, 7.0);
}

TEST(Timing, NestedScopesCombineCorrectly)
{
    // parallel over 2 sequential children: latency = max(sum, sum).
    TimingEngine t;
    t.beginScope(true);
    t.beginScope(false);
    t.post(1.0, 1.0);
    t.post(2.0, 1.0);
    t.endScope(); // child A: 3ns
    t.beginScope(false);
    t.post(4.0, 1.0);
    t.endScope(); // child B: 4ns
    t.endScope();
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 4.0);
    EXPECT_DOUBLE_EQ(t.queryCost().energyPj, 3.0);
}

TEST(Timing, SequentialOfParallelScopes)
{
    // A query stream: each query is a parallel fan-out; queries add up.
    TimingEngine t;
    t.beginScope(false);
    for (int q = 0; q < 3; ++q) {
        t.beginScope(true);
        t.post(2.0, 1.0);
        t.post(6.0, 1.0);
        t.endScope();
    }
    t.endScope();
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 18.0);
    EXPECT_DOUBLE_EQ(t.queryCost().energyPj, 6.0);
}

TEST(Timing, PowerSemantics)
{
    // Serializing the same work stretches latency, keeps energy:
    // that is exactly the paper's cam-power trade-off.
    TimingEngine par;
    par.beginScope(true);
    for (int i = 0; i < 8; ++i)
        par.post(2.0, 3.0);
    par.endScope();

    TimingEngine seq;
    seq.beginScope(false);
    for (int i = 0; i < 8; ++i)
        seq.post(2.0, 3.0);
    seq.endScope();

    EXPECT_DOUBLE_EQ(par.queryCost().energyPj, seq.queryCost().energyPj);
    EXPECT_DOUBLE_EQ(seq.queryCost().latencyNs,
                     8.0 * par.queryCost().latencyNs);
}

TEST(Timing, SetupAndQueryPhasesSeparate)
{
    TimingEngine t;
    t.beginScope(false);
    t.setPhase(TimingEngine::Phase::Setup);
    t.post(100.0, 50.0);
    t.setPhase(TimingEngine::Phase::Query);
    t.post(1.0, 2.0);
    t.endScope();
    EXPECT_DOUBLE_EQ(t.setupCost().latencyNs, 100.0);
    EXPECT_DOUBLE_EQ(t.setupCost().energyPj, 50.0);
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 1.0);
    EXPECT_DOUBLE_EQ(t.queryCost().energyPj, 2.0);
}

TEST(Timing, TopLevelPostsAccumulate)
{
    TimingEngine t;
    t.post(1.5, 2.5);
    t.post(1.5, 2.5);
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 3.0);
    EXPECT_DOUBLE_EQ(t.queryCost().energyPj, 5.0);
}

TEST(Timing, UnbalancedEndScopeAsserts)
{
    TimingEngine t;
    EXPECT_THROW(t.endScope(), InternalError);
}

TEST(Timing, NegativeCostAsserts)
{
    TimingEngine t;
    EXPECT_THROW(t.post(-1.0, 0.0), InternalError);
}

TEST(PerfReport, DerivedMetrics)
{
    PerfReport report;
    report.queryLatencyNs = 2000.0; // 2 us
    report.queryEnergyPj = 4000.0;  // 4 nJ
    // pJ/ns == mW
    EXPECT_DOUBLE_EQ(report.avgPowerMw(), 2.0);
    // EDP = 4 nJ * 2e-6 s = 8e-6 nJ*s
    EXPECT_NEAR(report.edpNanoJouleSeconds(), 8e-6, 1e-12);
    report.subarraysAllocated = 10;
    report.subarraysUsed = 5;
    EXPECT_DOUBLE_EQ(report.utilization(), 0.5);
    EXPECT_FALSE(report.str().empty());
}

TEST(PerfReport, ZeroLatencySafe)
{
    PerfReport report;
    EXPECT_DOUBLE_EQ(report.avgPowerMw(), 0.0);
    EXPECT_DOUBLE_EQ(report.utilization(), 0.0);
}

TEST(Timing, BeginQueryWindowKeepsSetup)
{
    TimingEngine t;
    t.setPhase(TimingEngine::Phase::Setup);
    t.post(100.0, 50.0);
    t.setPhase(TimingEngine::Phase::Query);
    t.post(10.0, 5.0);
    EXPECT_DOUBLE_EQ(t.setupCost().latencyNs, 100.0);
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 10.0);

    t.beginQueryWindow();
    EXPECT_DOUBLE_EQ(t.queryCost().latencyNs, 0.0);
    EXPECT_DOUBLE_EQ(t.queryCost().energyPj, 0.0);
    EXPECT_DOUBLE_EQ(t.setupCost().latencyNs, 100.0);
    EXPECT_DOUBLE_EQ(t.setupCost().energyPj, 50.0);
}

TEST(Timing, BeginQueryWindowWithOpenScopeAsserts)
{
    TimingEngine t;
    t.beginScope(/*parallel=*/false);
    EXPECT_THROW(t.beginQueryWindow(), InternalError);
}

TEST(PerfReport, PerQueryAggregatesGuardZeroQueries)
{
    // Empty-query reports (setup-only sessions, degenerate kernels)
    // must never produce inf/nan in reports or their JSON form.
    PerfReport report;
    report.setupLatencyNs = 500.0;
    EXPECT_DOUBLE_EQ(report.avgQueryLatencyNs(), 0.0);
    EXPECT_DOUBLE_EQ(report.avgQueryEnergyPj(), 0.0);
    EXPECT_DOUBLE_EQ(report.amortizedLatencyNs(), 0.0);
    EXPECT_DOUBLE_EQ(report.amortizedEnergyPj(), 0.0);
    EXPECT_DOUBLE_EQ(report.avgPowerMw(), 0.0);

    std::string json = report.toJson().dump(2);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    // Round-trips through the JSON parser (inf/nan would not).
    JsonValue parsed = parseJson(json);
    EXPECT_DOUBLE_EQ(parsed.getNumber("setup_latency_ns", -1.0), 500.0);
    EXPECT_DOUBLE_EQ(parsed.getNumber("amortized_latency_ns", -1.0), 0.0);
}

TEST(PerfReport, BatchAggregates)
{
    PerfReport report;
    report.setupLatencyNs = 640.0;
    report.setupEnergyPj = 320.0;
    report.queryLatencyNs = 160.0;
    report.queryEnergyPj = 80.0;
    report.queriesServed = 16;
    EXPECT_DOUBLE_EQ(report.avgQueryLatencyNs(), 10.0);
    EXPECT_DOUBLE_EQ(report.avgQueryEnergyPj(), 5.0);
    EXPECT_DOUBLE_EQ(report.amortizedLatencyNs(), 50.0);
    EXPECT_DOUBLE_EQ(report.amortizedEnergyPj(), 25.0);
    // The one-line summary mentions the batch.
    EXPECT_NE(report.str().find("queries: 16"), std::string::npos);
}

TEST(PerfReport, AddQueryWindowMinFoldsCoverage)
{
    // A degraded shard result folded into an aggregate or a fused
    // batch report must never be reported as full coverage.
    PerfReport full;
    full.queryLatencyNs = 10.0;
    PerfReport degraded = full;
    degraded.coverage = 0.5;
    PerfReport report;
    report.addQueryWindow(full);
    report.addQueryWindow(degraded);
    report.addQueryWindow(full);
    EXPECT_DOUBLE_EQ(report.coverage, 0.5);
    EXPECT_DOUBLE_EQ(report.queryLatencyNs, 30.0);
    // The rendered JSON carries it too (only emitted when < 1.0).
    EXPECT_NE(report.toJson().dump(2).find("coverage"),
              std::string::npos);
    // A fully-covered fold stays at the default and keeps its JSON
    // byte-identical to pre-coverage builds.
    PerfReport clean;
    clean.addQueryWindow(full);
    EXPECT_DOUBLE_EQ(clean.coverage, 1.0);
    EXPECT_EQ(clean.toJson().dump(2).find("coverage"), std::string::npos);
}
