/** @file DSE explorer tests. */

#include <gtest/gtest.h>

#include "../TreeWalkReference.h"
#include "apps/Workloads.h"
#include "core/DseExplorer.h"
#include "support/Error.h"
#include "support/Rng.h"

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;

namespace {

std::vector<rt::BufferPtr>
smallArgs()
{
    Rng rng(55);
    auto stored = rt::Buffer::alloc(rt::DType::F32, {8, 256});
    auto queries = rt::Buffer::alloc(rt::DType::F32, {2, 256});
    for (std::int64_t r = 0; r < 8; ++r)
        for (std::int64_t c = 0; c < 256; ++c)
            stored->set({r, c}, rng.nextBool() ? 1.0 : -1.0);
    for (std::int64_t r = 0; r < 2; ++r)
        for (std::int64_t c = 0; c < 256; ++c)
            queries->set({r, c}, stored->at({r * 3, c}));
    return {queries, stored};
}

const char *
source()
{
    static std::string src =
        apps::dotSimilaritySource(2, 8, 256, 1);
    return src.c_str();
}

} // namespace

TEST(DseExplorer, SweepEvaluatesEveryCandidate)
{
    core::DseExplorer explorer;
    std::vector<ArchSpec> candidates = {
        ArchSpec::dseSetup(16, OptTarget::Base),
        ArchSpec::dseSetup(16, OptTarget::Power),
        ArchSpec::dseSetup(64, OptTarget::Base),
    };
    core::DseResult result =
        explorer.explore(source(), candidates, smallArgs());
    ASSERT_EQ(result.points.size(), 3u);
    for (const auto &p : result.points) {
        EXPECT_GT(p.latencyNs(), 0.0);
        EXPECT_GT(p.powerMw(), 0.0);
        EXPECT_GT(p.energyPj(), 0.0);
    }
}

TEST(DseExplorer, ParetoFrontierIsNonDominated)
{
    core::DseExplorer explorer;
    core::DseResult result = explorer.explore(
        source(), core::DseExplorer::standardCandidates(), smallArgs());
    ASSERT_EQ(result.points.size(), 20u);

    auto frontier = result.frontier();
    ASSERT_GE(frontier.size(), 2u);

    // No frontier point dominates another frontier point.
    for (const auto &a : frontier) {
        for (const auto &b : frontier) {
            if (&a == &b)
                continue;
            bool dominates = a.latencyNs() <= b.latencyNs() &&
                             a.powerMw() <= b.powerMw() &&
                             (a.latencyNs() < b.latencyNs() ||
                              a.powerMw() < b.powerMw());
            EXPECT_FALSE(dominates);
        }
    }
    // Frontier is sorted by latency and power moves the other way.
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GE(frontier[i].latencyNs(), frontier[i - 1].latencyNs());
        EXPECT_LE(frontier[i].powerMw(), frontier[i - 1].powerMw());
    }
}

TEST(DseExplorer, BestPointsAreConsistent)
{
    core::DseExplorer explorer;
    core::DseResult result = explorer.explore(
        source(), core::DseExplorer::standardCandidates(), smallArgs());

    const auto &fastest = result.bestLatency();
    const auto &frugal = result.bestPower();
    for (const auto &p : result.points) {
        EXPECT_GE(p.latencyNs(), fastest.latencyNs());
        EXPECT_GE(p.powerMw(), frugal.powerMw());
    }
    // Extremes sit on the frontier.
    EXPECT_TRUE(fastest.paretoOptimal);
    EXPECT_TRUE(frugal.paretoOptimal);
    // The fastest standard point is a fully-parallel (base) config and
    // the most frugal is a power(+density) config.
    EXPECT_EQ(fastest.spec.target, OptTarget::Base);
    EXPECT_TRUE(frugal.spec.target == OptTarget::Power ||
                frugal.spec.target == OptTarget::PowerDensity);
}

TEST(DseExplorer, TableRendersEveryPoint)
{
    core::DseExplorer explorer;
    std::vector<ArchSpec> candidates = {
        ArchSpec::dseSetup(32, OptTarget::Base)};
    core::DseResult result =
        explorer.explore(source(), candidates, smallArgs());
    std::string table = result.table();
    EXPECT_NE(table.find("32x32"), std::string::npos);
    EXPECT_NE(table.find("pareto"), std::string::npos);
}

TEST(DseExplorer, EmptySweepRejected)
{
    core::DseExplorer explorer;
    EXPECT_THROW(explorer.explore(source(), {}, smallArgs()),
                 CompilerError);
}

TEST(DseExplorer, ParallelSweepMatchesSerialBitForBit)
{
    // The sweep is deterministic per candidate, so the worker-pool
    // path must reproduce the serial result exactly -- same order,
    // same latency/power/energy doubles, same Pareto labels.
    core::DseExplorer explorer;
    std::vector<ArchSpec> candidates = {
        ArchSpec::dseSetup(16, OptTarget::Base),
        ArchSpec::dseSetup(16, OptTarget::Power),
        ArchSpec::dseSetup(32, OptTarget::Density),
        ArchSpec::dseSetup(64, OptTarget::Base),
        ArchSpec::dseSetup(64, OptTarget::PowerDensity),
    };
    std::vector<rt::BufferPtr> args = smallArgs();
    core::DseResult serial =
        explorer.explore(source(), candidates, args, /*threads=*/1);
    core::DseResult parallel =
        explorer.explore(source(), candidates, args, /*threads=*/4);

    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(parallel.points[i].spec.rows, serial.points[i].spec.rows);
        EXPECT_EQ(parallel.points[i].latencyNs(),
                  serial.points[i].latencyNs());
        EXPECT_EQ(parallel.points[i].powerMw(), serial.points[i].powerMw());
        EXPECT_EQ(parallel.points[i].energyPj(),
                  serial.points[i].energyPj());
        EXPECT_EQ(parallel.points[i].perf.searches,
                  serial.points[i].perf.searches);
        EXPECT_EQ(parallel.points[i].paretoOptimal,
                  serial.points[i].paretoOptimal);
    }
}

TEST(DseExplorer, RejectsNegativeThreadCount)
{
    core::DseExplorer explorer;
    std::vector<ArchSpec> candidates = {
        ArchSpec::dseSetup(16, OptTarget::Base)};
    EXPECT_THROW(
        explorer.explore(source(), candidates, smallArgs(), -2),
        CompilerError);
}

TEST(DseExplorer, EveryCandidateMatchesTheTreeWalkSingleShot)
{
    // run() and explore() are a fresh session's setup plus one query.
    // On every standard candidate they must equal the tree walk's
    // one-pass Full phase: outputs, and PerfReport JSON bit for bit.
    Rng rng(71);
    auto stored = rt::Buffer::alloc(rt::DType::F32, {12, 96});
    auto queries = rt::Buffer::alloc(rt::DType::F32, {2, 96});
    for (std::int64_t r = 0; r < 12; ++r)
        for (std::int64_t c = 0; c < 96; ++c)
            stored->set({r, c}, rng.nextBool() ? 1.0 : 0.0);
    for (std::int64_t r = 0; r < 2; ++r)
        for (std::int64_t c = 0; c < 96; ++c)
            queries->set({r, c}, stored->at({r * 5, c}));
    const std::vector<rt::BufferPtr> args = {queries, stored};
    const std::vector<ArchSpec> candidates =
        core::DseExplorer::standardCandidates();

    for (const std::string &src :
         {apps::dotSimilaritySource(2, 12, 96, 1),
          apps::knnEuclideanSource(2, 12, 96, 3)}) {
        core::DseResult swept =
            core::DseExplorer().explore(src, candidates, args);
        ASSERT_EQ(swept.points.size(), candidates.size());
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            SCOPED_TRACE(std::to_string(candidates[c].rows) + " " +
                         arch::toString(candidates[c].target));
            core::CompilerOptions options;
            options.spec = candidates[c];
            core::ExecutionResult reference =
                treeWalkSingleShot(src, options, args);
            core::ExecutionResult run =
                core::Compiler(options).compileTorchScript(src).run(args);

            ASSERT_EQ(run.outputs.size(), reference.outputs.size());
            for (std::size_t i = 0; i < run.outputs.size(); ++i) {
                EXPECT_EQ(run.outputs[i].asBuffer()->shape(),
                          reference.outputs[i].asBuffer()->shape());
                EXPECT_EQ(run.outputs[i].asBuffer()->toVector(),
                          reference.outputs[i].asBuffer()->toVector());
            }
            EXPECT_EQ(run.perf.toJson().dump(),
                      reference.perf.toJson().dump());
            EXPECT_EQ(swept.points[c].perf.toJson().dump(),
                      reference.perf.toJson().dump());
        }
    }
}

TEST(DseExplorer, RunAndExploreRejectMalformedArguments)
{
    // Single-shot runs validate their arguments like every session: a
    // stored tensor of another shape, or a null one, fails with the
    // session's CompilerError instead of running (or crashing).
    const std::string src = apps::dotSimilaritySource(2, 8, 64, 1);
    const ArchSpec spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::CompilerOptions options;
    options.spec = spec;
    core::CompiledKernel kernel =
        core::Compiler(options).compileTorchScript(src);
    auto query = rt::Buffer::alloc(rt::DType::F32, {2, 64});
    const std::vector<std::pair<std::vector<rt::BufferPtr>, std::string>>
        malformed = {
            {{query, rt::Buffer::alloc(rt::DType::F32, {8, 96})},
             "argument 1 shape mismatch for 'forward'"},
            {{query, rt::Buffer::alloc(rt::DType::F32, {12, 64})},
             "argument 1 shape mismatch for 'forward'"},
            {{query, nullptr}, "argument 1 is null"},
        };
    for (const auto &[args, message] : malformed) {
        SCOPED_TRACE(message);
        try {
            kernel.run(args);
            ADD_FAILURE() << "run() accepted malformed arguments";
        } catch (const CompilerError &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << e.what();
        }
        try {
            core::DseExplorer().explore(src, {spec}, args);
            ADD_FAILURE() << "explore() accepted malformed arguments";
        } catch (const CompilerError &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << e.what();
        }
    }
}
