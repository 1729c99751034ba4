/**
 * @file
 * Execution sessions: setup-once/query-many invariants.
 *
 * Locks the serving contract: a reused session returns the same
 * results and reports the same per-query cost as the tree walk's
 * one-pass single-shot reference, for query 1 and for query N alike,
 * and the aggregate report amortizes the one-time setup over the
 * batch.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "../TreeWalkReference.h"
#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "sim/FaultInjector.h"
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

/** 64x128 Euclidean kNN (top-5) on 2-bit MCAM subarrays. */
core::CompiledKernel
compileKnnKernel(bool tree_walk = false)
{
    core::CompilerOptions options;
    options.treeWalkExecution = tree_walk;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.spec.camType = arch::CamDeviceType::Mcam;
    options.spec.bitsPerCell = 2;
    core::Compiler compiler(options);
    return compiler.compileTorchScript(
        apps::knnEuclideanSource(1, 64, 128, 5));
}

/** One scripted transient fault at device-0 search @p search. */
std::shared_ptr<sim::FaultInjector>
transientAt(std::int64_t search)
{
    sim::FaultSpec spec;
    sim::FaultRule rule;
    rule.kind = sim::FaultRule::Kind::Transient;
    rule.device = 0;
    rule.atSearch = search;
    spec.rules.push_back(rule);
    return std::make_shared<sim::FaultInjector>(spec);
}

/** Outputs and report JSON of @p served equal @p reference's. */
void
expectSameAnswer(const core::ExecutionResult &served,
                 const core::ExecutionResult &reference)
{
    ASSERT_EQ(served.outputs.size(), reference.outputs.size());
    for (std::size_t i = 0; i < served.outputs.size(); ++i)
        expectBuffersEqual(served.outputs[i], reference.outputs[i]);
    EXPECT_EQ(served.perf.toJson().dump(), reference.perf.toJson().dump());
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

} // namespace

TEST(ExecutionSession, SetupRunsNoSearches)
{
    auto stored = randomRows(8, 64, 3);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    core::ExecutionSession session = kernel.createSession(
        {rt::Buffer::fromMatrix({stored[0]}),
         rt::Buffer::fromMatrix(stored)});

    EXPECT_NE(session.device(), nullptr);
    EXPECT_EQ(session.queriesServed(), 0);
    const sim::PerfReport &setup = session.setupReport();
    EXPECT_GT(setup.setupLatencyNs, 0.0);
    EXPECT_GT(setup.writes, 0);
    EXPECT_EQ(setup.searches, 0);
    EXPECT_EQ(setup.queryLatencyNs, 0.0);
    EXPECT_EQ(setup.queriesServed, 0);
    // Guarded aggregates stay finite with zero queries served.
    EXPECT_EQ(setup.avgQueryLatencyNs(), 0.0);
    EXPECT_EQ(setup.amortizedLatencyNs(), 0.0);
}

TEST(ExecutionSession, FirstQueryMatchesSingleShotExactly)
{
    auto stored = randomRows(8, 64, 7);
    ArchSpec spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::CompiledKernel kernel = compileDotKernel(spec, 1, 8, 64);

    auto query = rt::Buffer::fromMatrix({stored[5]});
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    // The reference walks setup and query in one pass: run() itself is
    // a fresh session's first query, so comparing with it would compare
    // the session path with itself.
    core::CompilerOptions options;
    options.spec = spec;
    core::ExecutionResult single = treeWalkSingleShot(
        apps::dotSimilaritySource(1, 8, 64, 1), options,
        {query, stored_buf});
    core::ExecutionSession session =
        kernel.createSession({query, stored_buf});
    core::ExecutionResult served = session.runQuery({query, stored_buf});

    ASSERT_EQ(served.outputs.size(), single.outputs.size());
    for (std::size_t i = 0; i < served.outputs.size(); ++i)
        expectBuffersEqual(served.outputs[i], single.outputs[i]);
    // Per-query cost is bit-identical, not merely close.
    expectReportsIdentical(served.perf, single.perf);
    EXPECT_EQ(served.outputs[1].asBuffer()->atInt({0, 0}), 5);
}

TEST(ExecutionSession, QueryNCostsTheSameAsQuery1)
{
    auto stored = randomRows(8, 64, 11);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto query = rt::Buffer::fromMatrix({stored[2]});
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    core::ExecutionSession session =
        kernel.createSession({query, stored_buf});

    core::ExecutionResult first = session.runQuery({query, stored_buf});
    core::ExecutionResult last;
    for (int i = 0; i < 63; ++i)
        last = session.runQuery({query, stored_buf});

    EXPECT_EQ(session.queriesServed(), 64);
    expectReportsIdentical(last.perf, first.perf);
    for (std::size_t i = 0; i < first.outputs.size(); ++i)
        expectBuffersEqual(last.outputs[i], first.outputs[i]);
}

TEST(ExecutionSession, ServesDistinctQueriesCorrectly)
{
    auto stored = randomRows(8, 64, 13);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    core::ExecutionSession session = kernel.createSession(
        {rt::Buffer::fromMatrix({stored[0]}), stored_buf});

    for (std::int64_t n = 0; n < 8; ++n) {
        core::ExecutionResult r = session.runQuery(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(n)]}),
             stored_buf});
        EXPECT_EQ(r.outputs[1].asBuffer()->atInt({0, 0}), n)
            << "query " << n;
    }
}

TEST(ExecutionSession, RunBatchAggregatesAndAmortizes)
{
    auto stored = randomRows(8, 64, 17);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    core::ExecutionSession session = kernel.createSession(
        {rt::Buffer::fromMatrix({stored[0]}), stored_buf});

    std::vector<std::vector<rt::BufferPtr>> batches;
    for (int i = 0; i < 16; ++i)
        batches.push_back(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(
                 i % 8)]}),
             stored_buf});
    std::vector<core::ExecutionResult> results = session.runBatch(batches);
    ASSERT_EQ(results.size(), 16u);

    sim::PerfReport total = session.aggregateReport();
    EXPECT_EQ(total.queriesServed, 16);
    double query_sum = 0.0;
    std::int64_t searches = 0;
    for (const auto &r : results) {
        query_sum += r.perf.queryLatencyNs;
        searches += r.perf.searches;
    }
    EXPECT_DOUBLE_EQ(total.queryLatencyNs, query_sum);
    EXPECT_EQ(total.searches, searches);
    // Setup is paid once, not 16 times.
    EXPECT_EQ(total.setupLatencyNs, session.setupReport().setupLatencyNs);
    EXPECT_EQ(total.writes, session.setupReport().writes);
    // The amortized figure sits between pure-query and setup+query cost.
    EXPECT_GT(total.amortizedLatencyNs(), total.avgQueryLatencyNs());
    EXPECT_LT(total.amortizedLatencyNs(),
              total.setupLatencyNs + total.avgQueryLatencyNs());
}

TEST(ExecutionSession, SessionReuseBeatsPerQueryRunBy5x)
{
    // The acceptance-criterion invariant at test scale: serving a
    // 64-query batch through one session must yield >= 5x the
    // simulated queries/sec of per-query CompiledKernel::run().
    auto stored = randomRows(8, 64, 19);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto query = rt::Buffer::fromMatrix({stored[1]});

    core::ExecutionResult single = kernel.run({query, stored_buf});
    double naive_ns_per_query =
        single.perf.setupLatencyNs + single.perf.queryLatencyNs;

    core::ExecutionSession session =
        kernel.createSession({query, stored_buf});
    for (int i = 0; i < 64; ++i)
        session.runQuery({query, stored_buf});
    double session_ns_total = session.aggregateReport().setupLatencyNs +
                              session.aggregateReport().queryLatencyNs;
    double naive_ns_total = 64.0 * naive_ns_per_query;
    EXPECT_GE(naive_ns_total / session_ns_total, 5.0);
}

TEST(ExecutionSession, ValidatesArguments)
{
    auto stored = randomRows(8, 64, 23);
    core::CompiledKernel kernel =
        compileDotKernel(ArchSpec::dseSetup(32, OptTarget::Base), 1, 8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto query = rt::Buffer::fromMatrix({stored[0]});

    // Wrong arity at session creation.
    EXPECT_THROW(kernel.createSession({query}), CompilerError);
    // Wrong shape at session creation.
    EXPECT_THROW(kernel.createSession(
                     {rt::Buffer::fromMatrix(stored), stored_buf}),
                 CompilerError);

    core::ExecutionSession session =
        kernel.createSession({query, stored_buf});
    EXPECT_THROW(session.runQuery({query}), CompilerError);
    EXPECT_THROW(session.runQuery({stored_buf, stored_buf}),
                 CompilerError);
    // The session stays usable after rejected calls.
    core::ExecutionResult r = session.runQuery({query, stored_buf});
    EXPECT_EQ(r.outputs[1].asBuffer()->atInt({0, 0}), 0);
}

TEST(ExecutionSession, HostOnlyFallsBackToFullRuns)
{
    auto stored = randomRows(6, 96, 29);
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.hostOnly = true;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 6, 96, 1));
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto query = rt::Buffer::fromMatrix({stored[4]});

    core::ExecutionSession session =
        kernel.createSession({query, stored_buf});
    EXPECT_EQ(session.device(), nullptr);

    core::ExecutionResult served = session.runQuery({query, stored_buf});
    core::ExecutionResult single = kernel.run({query, stored_buf});
    for (std::size_t i = 0; i < served.outputs.size(); ++i)
        expectBuffersEqual(served.outputs[i], single.outputs[i]);
    EXPECT_EQ(served.outputs[1].asBuffer()->atInt({0, 0}), 4);
    EXPECT_EQ(session.queriesServed(), 1);
}

TEST(ExecutionSession, EuclideanKernelSessionMatchesSingleShot)
{
    auto stored = randomRows(12, 32, 31);
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.spec.camType = arch::CamDeviceType::Mcam;
    options.spec.bitsPerCell = 2;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::knnEuclideanSource(1, 12, 32, 2));
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto query = rt::Buffer::fromMatrix({stored[9]});

    core::ExecutionResult single = kernel.run({query, stored_buf});
    core::ExecutionSession session =
        kernel.createSession({query, stored_buf});
    core::ExecutionResult served = session.runQuery({query, stored_buf});

    for (std::size_t i = 0; i < served.outputs.size(); ++i)
        expectBuffersEqual(served.outputs[i], single.outputs[i]);
    expectReportsIdentical(served.perf, single.perf);
}

TEST(ExecutionSession, ServesAgainAfterAFaultedQuery)
{
    // A transient fault mid-replay unwinds with timing scopes open; the
    // session must roll its device back so the next query is served
    // exactly like on a session that never saw the fault.
    auto stored = randomRows(64, 128, 37);
    core::CompiledKernel kernel = compileKnnKernel();
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<rt::BufferPtr> first{rt::Buffer::fromMatrix({stored[3]}),
                                     stored_buf};
    std::vector<rt::BufferPtr> next{rt::Buffer::fromMatrix({stored[9]}),
                                    stored_buf};

    core::ExecutionSession clean = kernel.createSession(first);
    core::ExecutionResult reference = clean.runQuery(next);

    core::ExecutionSession session = kernel.createSession(first);
    session.device()->attachFaultInjector(transientAt(2));
    EXPECT_THROW(session.runQuery(first), sim::TransientFault);
    session.device()->attachFaultInjector(nullptr);
    EXPECT_EQ(session.queriesServed(), 0);

    core::ExecutionResult served = session.runQuery(next);
    expectSameAnswer(served, reference);
    EXPECT_EQ(session.aggregateReport().toJson().dump(),
              clean.aggregateReport().toJson().dump());
}

TEST(ExecutionSession, ServesAgainAfterAnAbortedFusedBatch)
{
    auto stored = randomRows(64, 128, 37);
    core::CompiledKernel kernel = compileKnnKernel();
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> batch{
        {rt::Buffer::fromMatrix({stored[3]}), stored_buf},
        {rt::Buffer::fromMatrix({stored[4]}), stored_buf}};
    std::vector<rt::BufferPtr> next{rt::Buffer::fromMatrix({stored[9]}),
                                    stored_buf};

    core::ExecutionSession clean = kernel.createSession(batch[0]);
    core::ExecutionResult reference = clean.runQuery(next);

    core::ExecutionSession session = kernel.createSession(batch[0]);
    session.device()->attachFaultInjector(transientAt(2));
    EXPECT_THROW(session.runFusedBatch(batch), sim::TransientFault);
    session.device()->attachFaultInjector(nullptr);

    core::ExecutionResult served = session.runQuery(next);
    expectSameAnswer(served, reference);
    EXPECT_EQ(session.aggregateReport().toJson().dump(),
              clean.aggregateReport().toJson().dump());
}

TEST(ExecutionSession, CloneServesBitIdentically)
{
    auto stored = randomRows(64, 128, 41);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> batches;
    for (std::size_t i = 0; i < 6; ++i)
        batches.push_back(
            {rt::Buffer::fromMatrix({stored[i * 7]}), stored_buf});

    // Plan replicas fork the slot frame; tree-walk replicas fork the
    // interpreter state.
    for (bool tree_walk : {false, true}) {
        SCOPED_TRACE(tree_walk ? "tree walk" : "plan");
        core::CompiledKernel kernel = compileKnnKernel(tree_walk);
        core::ExecutionSession session = kernel.createSession(batches[0]);
        EXPECT_EQ(session.usesPlan(), !tree_walk);
        session.runQuery(batches[5]); // the clone must not inherit this
        core::ExecutionSession clone = session.clone();

        ASSERT_NE(clone.device(), nullptr);
        EXPECT_NE(clone.device(), session.device());
        EXPECT_EQ(clone.queriesServed(), 0);
        EXPECT_EQ(clone.aggregateReport().toJson().dump(),
                  clone.setupReport().toJson().dump());
        EXPECT_EQ(clone.setupReport().toJson().dump(),
                  session.setupReport().toJson().dump());

        for (const auto &args : batches)
            expectSameAnswer(clone.runQuery(args), session.runQuery(args));
        EXPECT_EQ(clone.queriesServed(), 6);
        EXPECT_EQ(session.queriesServed(), 7);
    }
}

TEST(ExecutionSession, KeptOutputsSurviveLaterQueries)
{
    // Replay reuses buffers across queries, but never one the caller
    // still holds: query 2's outputs must read the same after eight
    // more queries as when they were returned.
    auto stored = randomRows(64, 128, 43);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    core::CompiledKernel kernel = compileKnnKernel();
    core::ExecutionSession session = kernel.createSession(
        {rt::Buffer::fromMatrix({stored[0]}), stored_buf});
    for (std::size_t i = 0; i < 2; ++i)
        session.runQuery({rt::Buffer::fromMatrix({stored[i]}), stored_buf});

    core::ExecutionResult kept =
        session.runQuery({rt::Buffer::fromMatrix({stored[2]}), stored_buf});
    std::vector<std::vector<double>> snapshot;
    for (const rt::RtValue &out : kept.outputs)
        snapshot.push_back(out.asBuffer()->toVector());

    for (std::size_t i = 3; i < 11; ++i)
        session.runQuery({rt::Buffer::fromMatrix({stored[i]}), stored_buf});
    ASSERT_EQ(kept.outputs.size(), snapshot.size());
    for (std::size_t i = 0; i < snapshot.size(); ++i)
        EXPECT_EQ(kept.outputs[i].asBuffer()->toVector(), snapshot[i]);
}

TEST(ExecutionSession, CloneAndMasterServeConcurrentlyAfterReuse)
{
    // Master and clone each reuse their own replay buffers; once both
    // are warm they serve at the same time from two threads and still
    // match serial replay bit for bit (run under TSan in CI).
    auto stored = randomRows(64, 128, 47);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> queries;
    for (std::size_t i = 0; i < 12; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[i * 5]}), stored_buf});
    core::CompiledKernel kernel = compileKnnKernel();

    core::ExecutionSession serial = kernel.createSession(queries[0]);
    std::vector<core::ExecutionResult> reference;
    for (const auto &args : queries)
        reference.push_back(serial.runQuery(args));

    core::ExecutionSession master = kernel.createSession(queries[0]);
    for (std::size_t i = 0; i < 3; ++i)
        master.runQuery(queries[i]);
    core::ExecutionSession clone = master.clone();
    for (std::size_t i = 3; i < 6; ++i) {
        expectSameAnswer(master.runQuery(queries[i]), reference[i]);
        expectSameAnswer(clone.runQuery(queries[i]), reference[i]);
    }

    std::vector<core::ExecutionResult> from_master(queries.size());
    std::vector<core::ExecutionResult> from_clone(queries.size());
    std::thread other([&] {
        for (std::size_t i = 0; i < queries.size(); ++i)
            from_clone[i] = clone.runQuery(queries[i]);
    });
    for (std::size_t i = 0; i < queries.size(); ++i)
        from_master[i] = master.runQuery(queries[i]);
    other.join();
    for (std::size_t i = 0; i < queries.size(); ++i) {
        expectSameAnswer(from_master[i], reference[i]);
        expectSameAnswer(from_clone[i], reference[i]);
    }
}
