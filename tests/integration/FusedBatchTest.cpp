/**
 * @file
 * Fused multi-query batching invariants.
 *
 * A fused batch's report is the session's setup plus the fold of its
 * per-query windows. Under sim::FusionModel::ExactSerial (the default)
 * per-query reports stay bit-identical to serial serving, so the
 * fused totals equal the serial sum exactly (fusion changes the
 * attribution, never the physics). Under TrueFused the pass
 * charges each subarray's precharge/drive once, so totals come in
 * strictly below the serial sum. Outputs are bit-identical to serial
 * serving in both models, and the amortized attribution must divide
 * the shared components by K.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ServingEngine.h"
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
compileDotKernel(std::int64_t rows, std::int64_t dims,
                 sim::FusionModel model = sim::FusionModel::ExactSerial)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.fusionModel = model;
    core::Compiler compiler(options);
    return compiler.compileTorchScript(
        apps::dotSimilaritySource(1, rows, dims, 1));
}

} // namespace

TEST(FusedBatch, K4TotalsEqualSumOfSerialWindows)
{
    auto stored = randomRows(8, 64, 41);
    core::CompiledKernel kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 4; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(
                 i * 2)]}),
             stored_buf});

    // Serial reference: a separate session, same stream.
    core::ExecutionSession serial = kernel.createSession(queries[0]);
    std::vector<core::ExecutionResult> serial_results =
        serial.runBatch(queries);

    core::ExecutionSession session = kernel.createSession(queries[0]);
    core::FusedBatchResult fused = session.runFusedBatch(queries);

    ASSERT_EQ(fused.results.size(), 4u);
    EXPECT_EQ(fused.fusedReport.fusedBatchK, 4);
    EXPECT_EQ(fused.fusedReport.queriesServed, 4);

    double lat = 0.0;
    double energy = 0.0;
    double cell = 0.0;
    double sense = 0.0;
    double drive = 0.0;
    double merge = 0.0;
    std::int64_t searches = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const sim::PerfReport &q = serial_results[i].perf;
        lat += q.queryLatencyNs;
        energy += q.queryEnergyPj;
        cell += q.cellEnergyPj;
        sense += q.senseEnergyPj;
        drive += q.driveEnergyPj;
        merge += q.mergeEnergyPj;
        searches += q.searches;
        // Per-query reports inside the fused pass stay bit-identical
        // to serial serving.
        EXPECT_EQ(fused.results[i].perf.queryLatencyNs,
                  q.queryLatencyNs);
        EXPECT_EQ(fused.results[i].perf.queryEnergyPj, q.queryEnergyPj);
        EXPECT_EQ(fused.results[i].perf.searches, q.searches);
        EXPECT_EQ(fused.results[i].outputs[1].asBuffer()->toVector(),
                  serial_results[i].outputs[1].asBuffer()->toVector());
    }
    // The fused totals ARE the sum -- exact equality, not approximate.
    EXPECT_EQ(fused.fusedReport.queryLatencyNs, lat);
    EXPECT_EQ(fused.fusedReport.queryEnergyPj, energy);
    EXPECT_EQ(fused.fusedReport.cellEnergyPj, cell);
    EXPECT_EQ(fused.fusedReport.senseEnergyPj, sense);
    EXPECT_EQ(fused.fusedReport.driveEnergyPj, drive);
    EXPECT_EQ(fused.fusedReport.mergeEnergyPj, merge);
    EXPECT_EQ(fused.fusedReport.searches, searches);
}

TEST(FusedBatch, ReportIsSetupPlusFoldedQueryWindows)
{
    // A fused batch's report is the session's setup report plus each
    // served query's window, folded by PerfReport::addQueryWindow (the
    // fold every serving aggregate uses), with queriesServed =
    // fusedBatchK = K. Under ExactSerial each window is also the
    // serial one, so the report is the serial fold.
    struct Case
    {
        const char *name;
        core::CompilerOptions options;
        std::int64_t rows;
        std::int64_t dims;
        std::string source;
    };
    core::CompilerOptions tcam;
    tcam.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::CompilerOptions tcam_fused = tcam;
    tcam_fused.fusionModel = sim::FusionModel::TrueFused;
    core::CompilerOptions mcam;
    mcam.spec = ArchSpec::dseSetup(16, OptTarget::Base);
    mcam.spec.camType = arch::CamDeviceType::Mcam;
    mcam.spec.bitsPerCell = 2;
    core::CompilerOptions host = tcam;
    host.hostOnly = true;
    const std::vector<Case> cases{
        {"tcam_dot_exact", tcam, 8, 64,
         apps::dotSimilaritySource(1, 8, 64, 1)},
        {"tcam_dot_true_fused", tcam_fused, 8, 64,
         apps::dotSimilaritySource(1, 8, 64, 1)},
        {"mcam_knn_exact", mcam, 32, 32,
         apps::knnEuclideanSource(1, 32, 32, 2)},
        {"host_dot", host, 8, 64, apps::dotSimilaritySource(1, 8, 64, 1)},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        core::Compiler compiler(c.options);
        core::CompiledKernel kernel = compiler.compileTorchScript(c.source);
        auto stored = randomRows(c.rows, c.dims, 83);
        auto stored_buf = rt::Buffer::fromMatrix(stored);
        std::vector<std::vector<rt::BufferPtr>> queries;
        for (std::size_t i = 0; i < 4; ++i)
            queries.push_back(
                {rt::Buffer::fromMatrix({stored[i]}), stored_buf});

        core::ExecutionSession session = kernel.createSession(queries[0]);
        core::FusedBatchResult batch = session.runFusedBatch(queries);
        ASSERT_EQ(batch.results.size(), 4u);

        sim::PerfReport folded = session.setupReport();
        for (const core::ExecutionResult &r : batch.results)
            folded.addQueryWindow(r.perf);
        folded.queriesServed = 4;
        folded.fusedBatchK = 4;
        EXPECT_EQ(batch.fusedReport.toJson().dump(),
                  folded.toJson().dump());

        if (c.options.fusionModel == sim::FusionModel::ExactSerial) {
            core::ExecutionSession serial =
                kernel.createSession(queries[0]);
            for (std::size_t i = 0; i < 4; ++i)
                EXPECT_EQ(batch.results[i].perf.toJson().dump(),
                          serial.runQuery(queries[i]).perf.toJson().dump());
        }
    }
}

TEST(FusedBatch, AmortizedAttributionDividesByK)
{
    auto stored = randomRows(8, 64, 43);
    core::CompiledKernel kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 4; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[0]}), stored_buf});

    core::ExecutionSession session = kernel.createSession(queries[0]);
    core::FusedBatchResult fused = session.runFusedBatch(queries);

    EXPECT_DOUBLE_EQ(fused.fusedReport.avgQueryLatencyNs(),
                     fused.fusedReport.queryLatencyNs / 4.0);
    EXPECT_DOUBLE_EQ(fused.fusedReport.fusedDriveEnergyPerQueryPj(),
                     fused.fusedReport.driveEnergyPj / 4.0);

    const sim::PerfReport &report = fused.fusedReport;
    EXPECT_EQ(report.fusedBatchK, 4);
    EXPECT_EQ(report.queriesServed, 4);
    EXPECT_DOUBLE_EQ(report.fusedDriveEnergyPerQueryPj(),
                     report.driveEnergyPj / 4.0);
    EXPECT_DOUBLE_EQ(report.fusedSetupEnergyPerQueryPj(),
                     report.setupEnergyPj / 4.0);
    // Setup fields come from the session's one-time programming.
    EXPECT_EQ(report.setupLatencyNs,
              session.setupReport().setupLatencyNs);
    EXPECT_GT(report.fusedDriveEnergyPerQueryPj(), 0.0);
    // The amortized drive share is strictly below one query's full
    // drive energy times K (i.e. fusion attribution actually divides).
    EXPECT_LT(report.fusedDriveEnergyPerQueryPj(), report.driveEnergyPj);
}

TEST(FusedBatch, SessionAggregateCountsFusedQueries)
{
    auto stored = randomRows(8, 64, 47);
    core::CompiledKernel kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 4; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[0]}), stored_buf});

    core::ExecutionSession session = kernel.createSession(queries[0]);
    session.runFusedBatch(queries);
    EXPECT_EQ(session.queriesServed(), 4);
    sim::PerfReport total = session.aggregateReport();
    EXPECT_EQ(total.queriesServed, 4);
    // Setup stays paid once.
    EXPECT_EQ(total.setupLatencyNs, session.setupReport().setupLatencyNs);
}

TEST(FusedBatch, EmptyBatchRejected)
{
    auto stored = randomRows(8, 64, 53);
    core::CompiledKernel kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    core::ExecutionSession session = kernel.createSession(
        {rt::Buffer::fromMatrix({stored[0]}), stored_buf});
    EXPECT_THROW(session.runFusedBatch({}), CompilerError);
    // A malformed query fails argument validation before the fused
    // window opens; the session stays usable afterwards.
    EXPECT_THROW(session.runFusedBatch({{stored_buf, stored_buf}}),
                 CompilerError);
    core::FusedBatchResult ok = session.runFusedBatch(
        {{rt::Buffer::fromMatrix({stored[2]}), stored_buf}});
    EXPECT_EQ(ok.results[0].outputs[1].asBuffer()->atInt({0, 0}), 2);
}

TEST(FusedBatch, HostOnlySessionSynthesizesFusedAccounting)
{
    auto stored = randomRows(6, 96, 59);
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.hostOnly = true;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 6, 96, 1));
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    core::ExecutionSession session = kernel.createSession(
        {rt::Buffer::fromMatrix({stored[0]}), stored_buf});
    EXPECT_EQ(session.device(), nullptr);

    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 3; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(
                 i)]}),
             stored_buf});
    core::FusedBatchResult fused = session.runFusedBatch(queries);
    ASSERT_EQ(fused.results.size(), 3u);
    EXPECT_EQ(fused.fusedReport.fusedBatchK, 3);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(fused.results[static_cast<std::size_t>(i)]
                      .outputs[1]
                      .asBuffer()
                      ->atInt({0, 0}),
                  i);
}

TEST(FusedBatch, EngineChunksStreamAndMatchesSerial)
{
    auto stored = randomRows(8, 64, 61);
    core::CompiledKernel kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 10; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(
                 i % 8)]}),
             stored_buf});

    core::ExecutionSession serial = kernel.createSession(queries[0]);
    std::vector<core::ExecutionResult> serial_results =
        serial.runBatch(queries);

    // 10 queries at width 4 -> chunks of 4, 4, 2 in stream order, each
    // on whichever of the two replicas is free.
    auto engine = kernel.createServingEngine(queries[0], 2);
    std::vector<std::vector<core::ExecutionResult>> chunks;
    for (std::size_t begin = 0; begin < queries.size(); begin += 4) {
        std::size_t end = std::min(queries.size(), begin + 4);
        chunks.push_back(engine->serveFusedChunk(
            {queries.begin() + static_cast<std::ptrdiff_t>(begin),
             queries.begin() + static_cast<std::ptrdiff_t>(end)}));
    }
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0].size(), 4u);
    EXPECT_EQ(chunks[1].size(), 4u);
    EXPECT_EQ(chunks[2].size(), 2u);

    std::size_t idx = 0;
    for (const std::vector<core::ExecutionResult> &chunk : chunks) {
        for (const core::ExecutionResult &r : chunk) {
            const sim::PerfReport &ref = serial_results[idx].perf;
            EXPECT_EQ(r.perf.queryLatencyNs, ref.queryLatencyNs);
            EXPECT_EQ(r.perf.queryEnergyPj, ref.queryEnergyPj);
            EXPECT_EQ(r.outputs[1].asBuffer()->toVector(),
                      serial_results[idx].outputs[1].asBuffer()
                          ->toVector());
            ++idx;
        }
    }
    EXPECT_EQ(engine->queriesServed(), 10);
}

TEST(FusedBatch, TrueFusedK8ComesInStrictlyBelowSerialSum)
{
    // The true fused-search device model: a K-wide fused pass charges
    // each subarray's precharge/data-line drive once, so the fused
    // totals must land strictly BELOW the serial sum while outputs
    // stay bit-identical. Sense/merge work and search counts are not
    // amortizable and must stay exactly equal to serial.
    auto stored = randomRows(8, 64, 71);
    core::CompiledKernel serial_kernel = compileDotKernel(8, 64);
    core::CompiledKernel fused_kernel =
        compileDotKernel(8, 64, sim::FusionModel::TrueFused);
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 8; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(
                 i)]}),
             stored_buf});

    core::ExecutionSession serial =
        serial_kernel.createSession(queries[0]);
    std::vector<core::ExecutionResult> serial_results =
        serial.runBatch(queries);

    core::ExecutionSession session =
        fused_kernel.createSession(queries[0]);
    core::FusedBatchResult fused = session.runFusedBatch(queries);

    ASSERT_EQ(fused.results.size(), 8u);
    double lat = 0.0;
    double energy = 0.0;
    double cell = 0.0;
    double sense = 0.0;
    double drive = 0.0;
    double merge = 0.0;
    std::int64_t searches = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const sim::PerfReport &q = serial_results[i].perf;
        lat += q.queryLatencyNs;
        energy += q.queryEnergyPj;
        cell += q.cellEnergyPj;
        sense += q.senseEnergyPj;
        drive += q.driveEnergyPj;
        merge += q.mergeEnergyPj;
        searches += q.searches;
        // Outputs are bit-identical in every fusion model.
        EXPECT_EQ(fused.results[i].outputs[1].asBuffer()->toVector(),
                  serial_results[i].outputs[1].asBuffer()->toVector());
    }
    // The first query of the pass drives every subarray itself, so its
    // report still matches serial bit for bit...
    EXPECT_EQ(fused.results[0].perf.queryLatencyNs,
              serial_results[0].perf.queryLatencyNs);
    EXPECT_EQ(fused.results[0].perf.queryEnergyPj,
              serial_results[0].perf.queryEnergyPj);
    // ...and every later query rides the already-driven lines.
    for (std::size_t i = 1; i < 8; ++i) {
        EXPECT_LT(fused.results[i].perf.queryLatencyNs,
                  serial_results[i].perf.queryLatencyNs);
        EXPECT_LT(fused.results[i].perf.queryEnergyPj,
                  serial_results[i].perf.queryEnergyPj);
    }

    // Amortizable components (drive, cell precharge, latency, total
    // energy) come in strictly below the serial sum.
    EXPECT_LT(fused.fusedReport.queryLatencyNs, lat);
    EXPECT_LT(fused.fusedReport.queryEnergyPj, energy);
    EXPECT_LT(fused.fusedReport.cellEnergyPj, cell);
    EXPECT_LT(fused.fusedReport.driveEnergyPj, drive);
    // Non-amortizable components stay exactly equal.
    EXPECT_EQ(fused.fusedReport.senseEnergyPj, sense);
    EXPECT_EQ(fused.fusedReport.mergeEnergyPj, merge);
    EXPECT_EQ(fused.fusedReport.searches, searches);
    EXPECT_EQ(fused.fusedReport.fusedBatchK, 8);
    EXPECT_EQ(fused.fusedReport.queriesServed, 8);
    EXPECT_LT(fused.fusedReport.queryEnergyPj / 8.0,
              energy / 8.0);
}

TEST(FusedBatch, TrueFusedAbortClearsPerPassDriveState)
{
    // A fused pass that aborts mid-batch (transient search fault) must
    // discard its drive bookkeeping: the retried pass pays the full
    // per-pass drive again, as if the aborted pass never happened.
    auto stored = randomRows(8, 64, 73);
    core::CompiledKernel fused_kernel =
        compileDotKernel(8, 64, sim::FusionModel::TrueFused);
    core::CompiledKernel serial_kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 4; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(
                 i)]}),
             stored_buf});

    core::ExecutionSession serial =
        serial_kernel.createSession(queries[0]);
    std::vector<core::ExecutionResult> serial_results =
        serial.runBatch(queries);

    // One replica, one scripted transient at the third device search:
    // it lands inside the fused chunk, which aborts as a unit.
    sim::FaultSpec spec;
    sim::FaultRule rule;
    rule.kind = sim::FaultRule::Kind::Transient;
    rule.device = 0;
    rule.atSearch = 3;
    spec.rules.push_back(rule);
    auto injector = std::make_shared<sim::FaultInjector>(spec);

    auto engine = fused_kernel.createServingEngine(queries[0], 1);
    engine->attachFaultInjector(injector);
    EXPECT_THROW(engine->serveFusedChunk(queries), sim::TransientFault);
    EXPECT_EQ(injector->stats().transientsFired, 1);
    EXPECT_EQ(engine->queriesServed(), 0);

    // Fault source removed, the same engine serves the same batch with
    // clean per-pass accounting: the first query pays full drive again
    // (bit-identical to serial), later queries amortize it.
    engine->attachFaultInjector(nullptr);
    const std::vector<core::ExecutionResult> chunk =
        engine->serveFusedChunk(queries);
    ASSERT_EQ(chunk.size(), 4u);
    EXPECT_EQ(chunk[0].perf.queryEnergyPj,
              serial_results[0].perf.queryEnergyPj);
    double serial_energy = 0.0;
    double chunk_energy = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(chunk[i].outputs[1].asBuffer()->toVector(),
                  serial_results[i].outputs[1].asBuffer()->toVector());
        serial_energy += serial_results[i].perf.queryEnergyPj;
        chunk_energy += chunk[i].perf.queryEnergyPj;
    }
    EXPECT_LT(chunk_energy, serial_energy);
    EXPECT_EQ(engine->queriesServed(), 4);
}

TEST(FusedBatch, AbortedSessionBatchRecordsNothing)
{
    // A fused batch is all or nothing: when query 2 of 3 faults, the
    // caller gets no results, so the session must not count query 1
    // either -- a retried batch would otherwise count it twice.
    auto stored = randomRows(8, 64, 79);
    core::CompiledKernel kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int i = 0; i < 3; ++i)
        queries.push_back(
            {rt::Buffer::fromMatrix({stored[static_cast<std::size_t>(
                 i)]}),
             stored_buf});

    core::ExecutionSession serial = kernel.createSession(queries[0]);
    std::int64_t searches_per_query =
        serial.runQuery(queries[0]).perf.searches;
    ASSERT_GT(searches_per_query, 0);

    sim::FaultSpec spec;
    sim::FaultRule rule;
    rule.kind = sim::FaultRule::Kind::Transient;
    rule.device = 0;
    rule.atSearch = searches_per_query + 1; // first search of query 2
    spec.rules.push_back(rule);

    core::ExecutionSession session = kernel.createSession(queries[0]);
    session.device()->attachFaultInjector(
        std::make_shared<sim::FaultInjector>(spec));
    EXPECT_THROW(session.runFusedBatch(queries), sim::TransientFault);
    EXPECT_EQ(session.queriesServed(), 0);
    EXPECT_EQ(session.aggregateReport().toJson().dump(),
              kernel.createSession(queries[0])
                  .aggregateReport()
                  .toJson()
                  .dump());

    // The retried batch counts each query exactly once.
    session.device()->attachFaultInjector(nullptr);
    session.runFusedBatch(queries);
    EXPECT_EQ(session.queriesServed(), 3);
}

TEST(FusedBatch, EngineRejectsBadWidth)
{
    // An empty chunk is rejected and records nothing; the engine keeps
    // serving afterwards.
    auto stored = randomRows(8, 64, 67);
    core::CompiledKernel kernel = compileDotKernel(8, 64);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> queries{
        {rt::Buffer::fromMatrix({stored[0]}), stored_buf},
        {rt::Buffer::fromMatrix({stored[1]}), stored_buf}};
    auto engine = kernel.createServingEngine(queries[0], 1);
    EXPECT_THROW(engine->serveFusedChunk({}), CompilerError);
    EXPECT_EQ(engine->queriesServed(), 0);
    EXPECT_EQ(engine->stats().aggregate.queriesServed, 0);
    EXPECT_EQ(engine->serveFusedChunk(queries).size(), 2u);
    EXPECT_EQ(engine->queriesServed(), 2);
}
