/**
 * @file
 * Execution-plan tests: compilation, the vocabulary error, the
 * disassembler, and the differential contract -- every tier-1 kernel
 * must produce bit-identical outputs and PerfReports under tree-walk,
 * plan-replay and fused-batch (K=1) execution, and every single-shot
 * run must equal the tree walk's one-pass Full phase.
 */

#include <gtest/gtest.h>

#include "../TreeWalkReference.h"
#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "dialects/AllDialects.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "runtime/ExecutionPlan.h"
#include "runtime/Interpreter.h"
#include "sim/CamDevice.h"
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
            v = rng.nextBool() ? 1.0f : 0.0f;
    return rows;
}

void
expectOutputsEqual(const std::vector<rt::RtValue> &a,
                   const std::vector<rt::RtValue> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].isBuffer(), b[i].isBuffer());
        if (a[i].isBuffer()) {
            EXPECT_EQ(a[i].asBuffer()->shape(), b[i].asBuffer()->shape());
            EXPECT_EQ(a[i].asBuffer()->toVector(),
                      b[i].asBuffer()->toVector());
        }
    }
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

struct KernelConfig
{
    const char *name;
    std::string source;
    core::CompilerOptions options;
};

/** The tier-1 kernels at both lowering levels. */
std::vector<KernelConfig>
tierOneKernels(std::int64_t rows, std::int64_t dims)
{
    std::vector<KernelConfig> kernels;

    // HDC dot-similarity on the cam device path (1-bit hypervectors).
    KernelConfig hdc;
    hdc.name = "hdc_dot_cam";
    hdc.source = apps::dotSimilaritySource(1, rows, dims, 1);
    hdc.options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    kernels.push_back(hdc);

    // kNN euclidean on the MCAM device path.
    KernelConfig knn;
    knn.name = "knn_eucl_cam";
    knn.source = apps::knnEuclideanSource(1, rows, dims, 2);
    knn.options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    knn.options.spec.camType = arch::CamDeviceType::Mcam;
    knn.options.spec.bitsPerCell = 2;
    kernels.push_back(knn);

    // The decision-path analogue at the cim host level: exercises
    // cim.execute regions, cim.similarity and host tensor kernels,
    // which the device kernels above never reach.
    KernelConfig host;
    host.name = "hdc_dot_host";
    host.source = apps::dotSimilaritySource(1, rows, dims, 1);
    host.options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    host.options.hostOnly = true;
    kernels.push_back(host);

    // Fully lowered scf-loop form (Fig. 3 "loops" pipeline).
    KernelConfig loops;
    loops.name = "knn_eucl_loops";
    loops.source = apps::knnEuclideanSource(1, rows, dims, 1);
    loops.options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    loops.options.hostOnly = true;
    loops.options.lowerToLoops = true;
    kernels.push_back(loops);

    return kernels;
}

} // namespace

TEST(ExecutionPlan, CompilesForEveryTierOneKernel)
{
    for (const KernelConfig &cfg : tierOneKernels(8, 64)) {
        core::Compiler compiler(cfg.options);
        core::CompiledKernel kernel =
            compiler.compileTorchScript(cfg.source);
        std::shared_ptr<const rt::ExecutionPlan> plan =
            kernel.executionPlan();
        ASSERT_TRUE(plan) << cfg.name;
        EXPECT_GT(plan->numSlots(), 0) << cfg.name;
        EXPECT_GT(plan->numInstructions(
                      rt::ExecutionPlan::ExecPhase::QueryOnly),
                  0u)
            << cfg.name;
        // Device kernels are phase-annotated; host kernels are not, so
        // their setup program is empty.
        EXPECT_EQ(plan->hasPhaseMarkers(), !cfg.options.hostOnly)
            << cfg.name;
        EXPECT_EQ(plan->numInstructions(
                      rt::ExecutionPlan::ExecPhase::SetupOnly) > 0,
                  !cfg.options.hostOnly)
            << cfg.name;
    }
}

TEST(ExecutionPlan, TreeWalkRetainedBehindFlag)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.treeWalkExecution = true;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 8, 64, 1));
    EXPECT_EQ(kernel.executionPlan(), nullptr);

    auto stored = randomRows(8, 64, 3);
    core::ExecutionSession session = kernel.createSession(
        {rt::Buffer::fromMatrix({stored[0]}),
         rt::Buffer::fromMatrix(stored)});
    EXPECT_FALSE(session.usesPlan());
    EXPECT_NE(session.device(), nullptr);
}

TEST(ExecutionPlan, SingleShotDifferentialAcrossTierOneKernels)
{
    const std::int64_t rows = 8;
    const std::int64_t dims = 64;
    auto stored = randomRows(rows, dims, 11);
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    auto query = rt::Buffer::fromMatrix({stored[5]});

    for (const KernelConfig &cfg : tierOneKernels(rows, dims)) {
        core::CompilerOptions walk_options = cfg.options;
        walk_options.treeWalkExecution = true;

        core::Compiler plan_compiler(cfg.options);
        core::CompiledKernel plan_kernel =
            plan_compiler.compileTorchScript(cfg.source);
        core::Compiler walk_compiler(walk_options);
        core::CompiledKernel walk_kernel =
            walk_compiler.compileTorchScript(cfg.source);

        core::ExecutionResult via_plan =
            plan_kernel.run({query, stored_buf});
        core::ExecutionResult via_walk =
            walk_kernel.run({query, stored_buf});
        core::ExecutionResult reference =
            treeWalkSingleShot(cfg.source, cfg.options, {query, stored_buf});

        SCOPED_TRACE(cfg.name);
        expectOutputsEqual(via_plan.outputs, reference.outputs);
        expectReportsIdentical(via_plan.perf, reference.perf);
        expectOutputsEqual(via_walk.outputs, reference.outputs);
        expectReportsIdentical(via_walk.perf, reference.perf);
        EXPECT_EQ(via_plan.perf.toJson().dump(),
                  reference.perf.toJson().dump());
    }
}

TEST(ExecutionPlan, SessionDifferentialTreeWalkPlanAndFusedK1)
{
    const std::int64_t rows = 8;
    const std::int64_t dims = 64;
    auto stored = randomRows(rows, dims, 17);
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    for (const KernelConfig &cfg : tierOneKernels(rows, dims)) {
        core::CompilerOptions walk_options = cfg.options;
        walk_options.treeWalkExecution = true;

        core::Compiler plan_compiler(cfg.options);
        core::CompiledKernel plan_kernel =
            plan_compiler.compileTorchScript(cfg.source);
        core::Compiler walk_compiler(walk_options);
        core::CompiledKernel walk_kernel =
            walk_compiler.compileTorchScript(cfg.source);

        auto setup_args = std::vector<rt::BufferPtr>{
            rt::Buffer::fromMatrix({stored[0]}), stored_buf};
        core::ExecutionSession plan_session =
            plan_kernel.createSession(setup_args);
        core::ExecutionSession walk_session =
            walk_kernel.createSession(setup_args);
        core::ExecutionSession fused_session =
            plan_kernel.createSession(setup_args);

        SCOPED_TRACE(cfg.name);
        EXPECT_EQ(plan_session.usesPlan(), true);
        EXPECT_EQ(walk_session.usesPlan(), false);

        for (std::int64_t q = 0; q < rows; ++q) {
            auto args = std::vector<rt::BufferPtr>{
                rt::Buffer::fromMatrix(
                    {stored[static_cast<std::size_t>(q)]}),
                stored_buf};
            core::ExecutionResult via_plan = plan_session.runQuery(args);
            core::ExecutionResult via_walk = walk_session.runQuery(args);
            core::FusedBatchResult fused =
                fused_session.runFusedBatch({args});

            SCOPED_TRACE(q);
            expectOutputsEqual(via_plan.outputs, via_walk.outputs);
            expectReportsIdentical(via_plan.perf, via_walk.perf);
            // Fused batch of one query == serial serving, exactly.
            ASSERT_EQ(fused.results.size(), 1u);
            expectOutputsEqual(fused.results[0].outputs,
                               via_walk.outputs);
            expectReportsIdentical(fused.results[0].perf, via_walk.perf);
            EXPECT_EQ(fused.fusedReport.fusedBatchK, 1);
            EXPECT_EQ(fused.fusedReport.queryLatencyNs,
                      via_walk.perf.queryLatencyNs);
            EXPECT_EQ(fused.fusedReport.queryEnergyPj,
                      via_walk.perf.queryEnergyPj);
        }
        expectReportsIdentical(plan_session.aggregateReport(),
                               walk_session.aggregateReport());
    }
}

TEST(ExecutionPlan, ReplayArityAndPhaseChecksMirrorInterpreter)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.hostOnly = true;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 4, 32, 1));
    std::shared_ptr<const rt::ExecutionPlan> plan =
        kernel.executionPlan();
    ASSERT_TRUE(plan);

    rt::PlanFrame frame = plan->makeFrame();
    // Wrong arity, on both back ends.
    EXPECT_THROW(plan->run(frame, nullptr, {},
                           rt::ExecutionPlan::ExecPhase::QueryOnly),
                 CompilerError);
    rt::Interpreter interpreter(kernel.module(), nullptr);
    EXPECT_THROW(interpreter.callFunction(
                     kernel.entryPoint(), {},
                     rt::Interpreter::ExecPhase::QueryOnly),
                 CompilerError);

    // An unphased (host) kernel has no setup phase: SetupOnly runs
    // nothing and QueryOnly runs the whole function, on both back ends.
    auto stored = randomRows(4, 32, 5);
    auto args = rt::toRtValues({rt::Buffer::fromMatrix({stored[1]}),
                                rt::Buffer::fromMatrix(stored)});
    std::uint64_t setup_ops = 0;
    EXPECT_TRUE(plan->run(frame, nullptr, args,
                          rt::ExecutionPlan::ExecPhase::SetupOnly,
                          &setup_ops)
                    .empty());
    EXPECT_EQ(setup_ops, 0u);
    EXPECT_TRUE(interpreter
                    .callFunction(kernel.entryPoint(), args,
                                  rt::Interpreter::ExecPhase::SetupOnly)
                    .empty());
    std::vector<rt::RtValue> via_plan = plan->run(
        frame, nullptr, args, rt::ExecutionPlan::ExecPhase::QueryOnly);
    std::vector<rt::RtValue> via_walk = interpreter.callFunction(
        kernel.entryPoint(), args, rt::Interpreter::ExecPhase::QueryOnly);
    std::vector<rt::RtValue> full = interpreter.callFunction(
        kernel.entryPoint(), args, rt::Interpreter::ExecPhase::Full);
    ASSERT_EQ(via_plan.size(), 2u);
    expectOutputsEqual(via_plan, full);
    expectOutputsEqual(via_walk, full);
}

TEST(ExecutionPlan, UnknownOpDiagnosticNamesFunctionAndNearest)
{
    ir::Context ctx;
    dialects::loadAllDialects(ctx);
    std::string text =
        "\"builtin.module\"() ({\n"
        "  \"func.func\"() ({\n"
        "  ^bb0:\n"
        "    %x = \"arith.constatn\"() {value = 1} : () -> index\n"
        "    \"func.return\"(%x) : (index) -> ()\n"
        "  }) {sym_name = \"typo_kernel\"} : () -> ()\n"
        "}) : () -> ()\n";
    ir::Module module = ir::parseModule(ctx, text);
    try {
        rt::ExecutionPlan::compile(module, "typo_kernel");
        FAIL() << "expected CompilerError";
    } catch (const CompilerError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("arith.constatn"), std::string::npos) << msg;
        EXPECT_NE(msg.find("typo_kernel"), std::string::npos) << msg;
        EXPECT_NE(msg.find("arith.constant"), std::string::npos) << msg;
    }
}

TEST(ExecutionPlan, OpOutsideVocabularyFailsThePlanCompile)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 8, 64, 1));
    // crossbar.* ops are registered, so the module still verifies, but
    // neither back end executes them: the kernel must not quietly fall
    // back to the tree walk, which would reject the op later.
    ir::Module &module = kernel.module();
    ir::Operation *func = module.lookupFunction(kernel.entryPoint());
    ir::OpBuilder builder(module.context());
    builder.setInsertionPointToStart(&func->region(0).front());
    builder.create("crossbar.release", {builder.constantIndex(0)}, {});
    try {
        kernel.executionPlan();
        FAIL() << "expected CompilerError";
    } catch (const CompilerError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("crossbar.release"), std::string::npos) << msg;
        EXPECT_NE(msg.find("plan compiler"), std::string::npos) << msg;
    }
}

TEST(ExecutionPlan, DisassembleListsPhasesAndSpecs)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 8, 64, 1));
    std::string dump = kernel.executionPlan()->disassemble();
    EXPECT_NE(dump.find("arg slots"), std::string::npos);
    // Two programs: a single-shot run is setup plus one query.
    EXPECT_EQ(dump.find("phase full"), std::string::npos);
    EXPECT_NE(dump.find("phase setup"), std::string::npos);
    EXPECT_NE(dump.find("phase query"), std::string::npos);
    EXPECT_NE(dump.find("Subview"), std::string::npos);
    EXPECT_NE(dump.find("CamSearch"), std::string::npos);
    EXPECT_NE(dump.find("slices ("), std::string::npos);
    EXPECT_NE(dump.find("searches ("), std::string::npos);
}

TEST(ExecutionPlan, ModuleMutationInvalidatesCachedPlan)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, 8, 64, 1));
    std::shared_ptr<const rt::ExecutionPlan> first =
        kernel.executionPlan();
    ASSERT_TRUE(first);
    // Touching the mutable module drops the cache; the next accessor
    // call compiles a fresh plan from the (possibly rewritten) IR.
    kernel.module();
    std::shared_ptr<const rt::ExecutionPlan> second =
        kernel.executionPlan();
    ASSERT_TRUE(second);
    EXPECT_NE(first.get(), second.get());
}

TEST(ExecutionPlan, StridedQueryViewIsGatheredForTheSearch)
{
    // cam-map always hands cam.search a dense [1, w] row view, which
    // both back ends search in place. A column view is strided: it is
    // gathered into float scratch first, and must search exactly like
    // the column's values.
    ir::Context ctx;
    dialects::loadAllDialects(ctx);
    std::string text =
        "\"builtin.module\"() ({\n"
        "  \"func.func\"() ({\n"
        "  ^bb0(%q: memref<4x4xf32>, %w: memref<4x4xf32>):\n"
        "    %c4 = \"arith.constant\"() {value = 4} : () -> index\n"
        "    %b = \"cam.alloc_bank\"(%c4, %c4)"
        " : (index, index) -> !cam.bank_id\n"
        "    %m = \"cam.alloc_mat\"(%b) : (!cam.bank_id) -> !cam.mat_id\n"
        "    %a = \"cam.alloc_array\"(%m)"
        " : (!cam.mat_id) -> !cam.array_id\n"
        "    %s = \"cam.alloc_subarray\"(%a)"
        " : (!cam.array_id) -> !cam.subarray_id\n"
        "    \"cam.write_value\"(%s, %w) {row_offset = 0}"
        " : (!cam.subarray_id, memref<4x4xf32>) -> ()\n"
        "    %col = \"memref.subview\"(%q) {static_offsets = [0, 2],"
        " static_sizes = [4, 1]} : (memref<4x4xf32>) -> memref<4x1xf32>\n"
        "    \"cam.search\"(%s, %col) {kind = \"best\","
        " metric = \"hamming\"} : (!cam.subarray_id, memref<4x1xf32>) -> ()\n"
        "    %v, %i = \"cam.read\"(%s) {kind = \"best\"}"
        " : (!cam.subarray_id) -> (memref<0xf32>, memref<0xi64>)\n"
        "    \"func.return\"(%v, %i) : (memref<0xf32>, memref<0xi64>) -> ()\n"
        "  }) {sym_name = \"strided\"} : () -> ()\n"
        "}) : () -> ()\n";
    ir::Module module = ir::parseModule(ctx, text);

    const std::vector<std::vector<float>> stored = {
        {1, 0, 1, 0}, {0, 1, 1, 0}, {1, 1, 0, 1}, {0, 0, 1, 1}};
    const std::vector<std::vector<float>> queries = {
        {0, 0, 1, 0}, {0, 0, 1, 0}, {0, 0, 0, 0}, {0, 0, 1, 0}};
    std::vector<rt::RtValue> args = {
        rt::RtValue(rt::Buffer::fromMatrix(queries)),
        rt::RtValue(rt::Buffer::fromMatrix(stored))};

    ArchSpec spec;
    spec.rows = 4;
    spec.cols = 4;
    sim::CamSubarray reference(4, 4, spec.camType, spec.bitsPerCell);
    reference.write(stored, 0);
    sim::SearchResult expected = reference.search(
        {1, 1, 0, 1}, arch::SearchKind::Best, false);

    auto plan = rt::ExecutionPlan::compile(module, "strided");
    rt::PlanFrame frame = plan->makeFrame();
    sim::CamDevice plan_device(spec);
    std::vector<rt::RtValue> via_plan =
        plan->run(frame, &plan_device, args,
                  rt::ExecutionPlan::ExecPhase::QueryOnly);
    sim::CamDevice walk_device(spec);
    rt::Interpreter interpreter(module, &walk_device);
    std::vector<rt::RtValue> via_walk = interpreter.callFunction(
        "strided", args, rt::Interpreter::ExecPhase::Full);

    for (const auto *outputs : {&via_plan, &via_walk}) {
        ASSERT_EQ(outputs->size(), 2u);
        EXPECT_EQ((*outputs)[0].asBuffer()->toVector(),
                  std::vector<double>(expected.values.begin(),
                                      expected.values.end()));
        EXPECT_EQ((*outputs)[1].asBuffer()->toVector(),
                  std::vector<double>(expected.indices.begin(),
                                      expected.indices.end()));
    }
    // The gathered column {1, 1, 0, 1} is stored row 2.
    EXPECT_EQ(expected.values, (std::vector<float>{3, 3, 0, 3}));
    // The frame kept the gathered column for the next strided search.
    EXPECT_EQ(frame.queryScratch, (std::vector<float>{1, 1, 0, 1}));
}
