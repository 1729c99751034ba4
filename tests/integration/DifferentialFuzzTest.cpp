/**
 * @file
 * Differential fuzzing of the two execution back ends.
 *
 * ExecutionPlanTest locks plan-vs-tree-walk bit-identity on the three
 * hand-picked tier-1 kernels; this tier generates a seeded-random
 * population of kernel configurations -- shapes, query batch sizes,
 * top-k widths, subarray sizes, optimization targets, CAM device
 * types and lowering phases (device / host-cim / host-loops) -- and
 * asserts for every one of them that plan replay and the
 * tree-walking interpreter produce bit-identical outputs AND
 * bit-identical PerfReport JSON, both single-shot (against the tree
 * walk's one-pass Full phase) and through a session serving several
 * queries.
 *
 * Determinism: the generator is a fixed-seed splitmix64 Rng, so a
 * failure reproduces by trial index; the trial's configuration is in
 * the SCOPED_TRACE output.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../TreeWalkReference.h"
#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Trace.h"

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;

namespace {

/** One randomly drawn kernel configuration. */
struct FuzzConfig
{
    std::string description;
    std::string source;
    core::CompilerOptions options;
    std::int64_t queriesPerBatch = 1;
    std::int64_t rows = 0;
    std::int64_t dims = 0;
};

/** Lowering phases the differential covers. */
enum class Phase { Device, HostCim, HostLoops };

FuzzConfig
drawConfig(Rng &rng)
{
    static const std::int64_t kRowChoices[] = {2, 3, 4, 6, 8, 12, 16};
    static const std::int64_t kDimChoices[] = {16, 32, 48, 64, 96, 128};
    static const int kSizeChoices[] = {16, 32, 64};
    static const OptTarget kTargets[] = {
        OptTarget::Base, OptTarget::Power, OptTarget::Density,
        OptTarget::PowerDensity};

    FuzzConfig cfg;
    cfg.rows = kRowChoices[rng.nextBelow(std::size(kRowChoices))];
    cfg.dims = kDimChoices[rng.nextBelow(std::size(kDimChoices))];
    int size = kSizeChoices[rng.nextBelow(std::size(kSizeChoices))];
    OptTarget target = kTargets[rng.nextBelow(std::size(kTargets))];
    Phase phase = static_cast<Phase>(rng.nextBelow(3));
    bool knn = rng.nextBool();
    std::int64_t k =
        1 + static_cast<std::int64_t>(
                rng.nextBelow(static_cast<std::uint64_t>(
                    std::min<std::int64_t>(cfg.rows, 3))));

    cfg.options.spec = ArchSpec::dseSetup(size, target);
    if (knn) {
        // Euclidean distance needs the multi-bit MCAM cell model on
        // the device path; host lowering is cell-model agnostic.
        cfg.options.spec.camType = arch::CamDeviceType::Mcam;
        cfg.options.spec.bitsPerCell = 2;
        cfg.source = apps::knnEuclideanSource(1, cfg.rows, cfg.dims, k);
        cfg.queriesPerBatch = 1;
    } else {
        cfg.queriesPerBatch =
            static_cast<std::int64_t>(1 + rng.nextBelow(3));
        cfg.source = apps::dotSimilaritySource(cfg.queriesPerBatch,
                                               cfg.rows, cfg.dims, k);
    }
    switch (phase) {
    case Phase::Device:
        break;
    case Phase::HostCim:
        cfg.options.hostOnly = true;
        break;
    case Phase::HostLoops:
        cfg.options.hostOnly = true;
        cfg.options.lowerToLoops = true;
        break;
    }

    cfg.description =
        std::string(knn ? "knn" : "dot") + " rows=" +
        std::to_string(cfg.rows) + " dims=" + std::to_string(cfg.dims) +
        " qpb=" + std::to_string(cfg.queriesPerBatch) +
        " k=" + std::to_string(k) + " size=" + std::to_string(size) +
        " target=" + toString(target) + " phase=" +
        (phase == Phase::Device
             ? "device"
             : phase == Phase::HostCim ? "host-cim" : "host-loops");
    return cfg;
}

/** Random +-1 stored matrix plus a query batch that mixes exact
 *  stored rows with fresh random vectors. */
struct FuzzData
{
    rt::BufferPtr stored;
    std::vector<rt::BufferPtr> queryBatches;
};

FuzzData
drawData(Rng &rng, const FuzzConfig &cfg, std::size_t num_batches)
{
    std::vector<std::vector<float>> stored(
        static_cast<std::size_t>(cfg.rows),
        std::vector<float>(static_cast<std::size_t>(cfg.dims)));
    for (auto &row : stored)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : -1.0f;

    FuzzData data;
    data.stored = rt::Buffer::fromMatrix(stored);
    for (std::size_t b = 0; b < num_batches; ++b) {
        std::vector<std::vector<float>> queries;
        for (std::int64_t q = 0; q < cfg.queriesPerBatch; ++q) {
            if (rng.nextBool()) {
                queries.push_back(
                    stored[rng.nextBelow(stored.size())]);
            } else {
                std::vector<float> fresh(
                    static_cast<std::size_t>(cfg.dims));
                for (auto &v : fresh)
                    v = rng.nextBool() ? 1.0f : -1.0f;
                queries.push_back(std::move(fresh));
            }
        }
        data.queryBatches.push_back(rt::Buffer::fromMatrix(queries));
    }
    return data;
}

void
expectOutputsBitIdentical(const std::vector<rt::RtValue> &a,
                          const std::vector<rt::RtValue> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].isBuffer(), b[i].isBuffer()) << "output " << i;
        if (a[i].isBuffer()) {
            EXPECT_EQ(a[i].asBuffer()->shape(), b[i].asBuffer()->shape())
                << "output " << i;
            EXPECT_EQ(a[i].asBuffer()->toVector(),
                      b[i].asBuffer()->toVector())
                << "output " << i;
        } else if (a[i].isInt()) {
            EXPECT_EQ(a[i].asInt(), b[i].asInt()) << "output " << i;
        }
    }
}

/** The strongest report equality there is: the serialized JSON must
 *  match byte for byte (covers every field plus derived metrics). */
void
expectReportJsonBitIdentical(const sim::PerfReport &a,
                             const sim::PerfReport &b)
{
    EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
}

} // namespace

TEST(DifferentialFuzz, PlanAndTreeWalkAgreeOnRandomConfigs)
{
    const int kTrials = 20;
    const std::size_t kQueriesPerSession = 3;
    Rng rng(0xC4CA11FEEDull);

    for (int trial = 0; trial < kTrials; ++trial) {
        FuzzConfig cfg = drawConfig(rng);
        SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                     cfg.description);

        core::CompilerOptions walk_options = cfg.options;
        walk_options.treeWalkExecution = true;
        core::Compiler plan_compiler(cfg.options);
        core::CompiledKernel plan_kernel =
            plan_compiler.compileTorchScript(cfg.source);
        core::Compiler walk_compiler(walk_options);
        core::CompiledKernel walk_kernel =
            walk_compiler.compileTorchScript(cfg.source);

        FuzzData data = drawData(rng, cfg, kQueriesPerSession + 1);

        // Single-shot differential: setup plus one query on either
        // back end against the tree walk's one-pass Full phase.
        std::vector<rt::BufferPtr> args{data.queryBatches[0],
                                        data.stored};
        core::ExecutionResult via_plan = plan_kernel.run(args);
        core::ExecutionResult via_walk = walk_kernel.run(args);
        core::ExecutionResult reference =
            treeWalkSingleShot(cfg.source, cfg.options, args);
        expectOutputsBitIdentical(via_plan.outputs, reference.outputs);
        expectReportJsonBitIdentical(via_plan.perf, reference.perf);
        expectOutputsBitIdentical(via_walk.outputs, reference.outputs);
        expectReportJsonBitIdentical(via_walk.perf, reference.perf);

        // Session differential: serve several query batches through a
        // session on each back end, comparing per-query
        // and aggregate accounting.
        core::ExecutionSession plan_session =
            plan_kernel.createSession(args);
        core::ExecutionSession walk_session =
            walk_kernel.createSession(args);
        EXPECT_TRUE(plan_session.usesPlan());
        EXPECT_FALSE(walk_session.usesPlan());
        // Tracing must be a pure observer: run the plan session with a
        // live collector while the tree-walk session stays untraced,
        // and every bit-identity expectation below doubles as proof
        // that span recording perturbs neither outputs nor reports.
        support::TraceCollector collector;
        plan_session.enableTracing(&collector);
        for (std::size_t q = 1; q <= kQueriesPerSession; ++q) {
            SCOPED_TRACE("session query " + std::to_string(q));
            std::vector<rt::BufferPtr> query_args{data.queryBatches[q],
                                                  data.stored};
            core::ExecutionResult p = plan_session.runQuery(query_args);
            core::ExecutionResult w = walk_session.runQuery(query_args);
            expectOutputsBitIdentical(p.outputs, w.outputs);
            expectReportJsonBitIdentical(p.perf, w.perf);
        }
        expectReportJsonBitIdentical(plan_session.aggregateReport(),
                                     walk_session.aggregateReport());
        // The traced session really did record: one query/execute/
        // merge triple per runQuery (plus plan-replay spans on the
        // plan back end).
        EXPECT_GE(collector.size(), 3 * kQueriesPerSession);
    }
}

TEST(DifferentialFuzz, FusionModelOffBitIdenticalOnPreservesOutputs)
{
    // Three-way fused-serving differential over random configurations:
    //  - an explicit fusionModel = ExactSerial kernel must be
    //    bit-identical to the default-options kernel in outputs AND
    //    rendered report JSON (the flag's off position really is the
    //    pre-flag behavior, byte for byte);
    //  - a TrueFused kernel must keep outputs bit-identical while its
    //    fused totals never exceed the exact-serial accounting --
    //    strictly below it on device sessions (the pass
    //    drives each subarray once), exactly equal on host-only
    //    sessions (no device pass to fuse).
    const int kTrials = 8;
    const std::size_t kFusedK = 3;
    Rng rng(0xF05EDFA57ull);

    for (int trial = 0; trial < kTrials; ++trial) {
        FuzzConfig cfg = drawConfig(rng);
        SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                     cfg.description);

        core::CompilerOptions off_options = cfg.options;
        off_options.fusionModel = sim::FusionModel::ExactSerial;
        core::CompilerOptions on_options = cfg.options;
        on_options.fusionModel = sim::FusionModel::TrueFused;

        core::Compiler default_compiler(cfg.options);
        core::CompiledKernel default_kernel =
            default_compiler.compileTorchScript(cfg.source);
        core::Compiler off_compiler(off_options);
        core::CompiledKernel off_kernel =
            off_compiler.compileTorchScript(cfg.source);
        core::Compiler on_compiler(on_options);
        core::CompiledKernel on_kernel =
            on_compiler.compileTorchScript(cfg.source);

        FuzzData data = drawData(rng, cfg, kFusedK + 1);
        std::vector<rt::BufferPtr> setup_args{data.queryBatches[0],
                                              data.stored};
        std::vector<std::vector<rt::BufferPtr>> queries;
        for (std::size_t q = 1; q <= kFusedK; ++q)
            queries.push_back({data.queryBatches[q], data.stored});

        core::ExecutionSession default_session =
            default_kernel.createSession(setup_args);
        core::ExecutionSession off_session =
            off_kernel.createSession(setup_args);
        core::ExecutionSession on_session =
            on_kernel.createSession(setup_args);

        core::FusedBatchResult via_default =
            default_session.runFusedBatch(queries);
        core::FusedBatchResult via_off =
            off_session.runFusedBatch(queries);
        core::FusedBatchResult via_on =
            on_session.runFusedBatch(queries);

        ASSERT_EQ(via_default.results.size(), kFusedK);
        ASSERT_EQ(via_off.results.size(), kFusedK);
        ASSERT_EQ(via_on.results.size(), kFusedK);
        for (std::size_t i = 0; i < kFusedK; ++i) {
            SCOPED_TRACE("fused query " + std::to_string(i));
            expectOutputsBitIdentical(via_default.results[i].outputs,
                                      via_off.results[i].outputs);
            expectReportJsonBitIdentical(via_default.results[i].perf,
                                         via_off.results[i].perf);
            expectOutputsBitIdentical(via_default.results[i].outputs,
                                      via_on.results[i].outputs);
        }
        expectReportJsonBitIdentical(via_default.fusedReport,
                                     via_off.fusedReport);

        // TrueFused never invents work: non-amortizable components
        // match exactly in every phase...
        EXPECT_EQ(via_on.fusedReport.searches,
                  via_default.fusedReport.searches);
        EXPECT_EQ(via_on.fusedReport.senseEnergyPj,
                  via_default.fusedReport.senseEnergyPj);
        EXPECT_EQ(via_on.fusedReport.mergeEnergyPj,
                  via_default.fusedReport.mergeEnergyPj);
        EXPECT_EQ(via_on.fusedReport.fusedBatchK,
                  static_cast<std::int64_t>(kFusedK));
        // ...and the amortizable ones only ever shrink.
        if (on_session.device()) {
            EXPECT_LT(via_on.fusedReport.queryEnergyPj,
                      via_default.fusedReport.queryEnergyPj);
            EXPECT_LT(via_on.fusedReport.queryLatencyNs,
                      via_default.fusedReport.queryLatencyNs);
            EXPECT_LT(via_on.fusedReport.driveEnergyPj,
                      via_default.fusedReport.driveEnergyPj);
        } else {
            // Host-only: nothing device-side to fuse, the model is
            // inert by construction.
            expectReportJsonBitIdentical(via_default.fusedReport,
                                         via_on.fusedReport);
        }
    }
}
