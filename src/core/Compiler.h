#ifndef C4CAM_CORE_COMPILER_H
#define C4CAM_CORE_COMPILER_H

/**
 * @file
 * C4CAM public API: compile TorchScript to CAM-mapped IR and execute it
 * on the CAM simulator.
 *
 * Typical use:
 * @code
 *   arch::ArchSpec spec = arch::ArchSpec::dseSetup(32,
 *                                                  arch::OptTarget::Base);
 *   core::Compiler compiler({spec});
 *   core::CompiledKernel kernel = compiler.compileTorchScript(source);
 *   core::ExecutionResult result = kernel.run({queries, stored});
 *   // result.outputs, result.perf.queryLatencyNs, ...
 * @endcode
 */

#include <memory>
#include <string>
#include <vector>

#include "arch/ArchSpec.h"
#include "frontend/TorchScriptFrontend.h"
#include "ir/IR.h"
#include "ir/Pass.h"
#include "passes/CamMapping.h"
#include "runtime/Buffer.h"
#include "sim/Timing.h"

namespace c4cam::rt {
class ExecutionPlan;
}

namespace c4cam::core {

/** Compiler configuration. */
struct CompilerOptions
{
    arch::ArchSpec spec;
    /** Stop lowering at the cim level (host execution path). */
    bool hostOnly = false;
    /** With hostOnly: lower all the way to scf loops (Fig. 3's
     *  "loops" pipeline) instead of the partitioned cim form. */
    bool lowerToLoops = false;
    /** Collect per-pass wall-clock timings. */
    bool timePasses = false;
    /** Dump IR after every pass (collected in CompiledKernel::dumps). */
    bool dumpIntermediates = false;
    /**
     * Execute through the tree-walking interpreter instead of the
     * compiled ExecutionPlan. Plans are the default (compile the
     * lowered module once, replay a slot-based instruction stream per
     * query); the tree walk is retained for differential testing --
     * outputs and simulated PerfReports are bit-identical between the
     * two back ends.
     */
    bool treeWalkExecution = false;
    /**
     * How fused multi-query windows charge the simulated device (see
     * sim::FusionModel). ExactSerial (default) keeps fused totals
     * bit-identical to the serial sum; TrueFused charges the
     * precharge/drive once per pass so fused batches come in strictly
     * below it (CLI: c4cam-run --fusion-model). Purely a device-model
     * knob: plan compilation and outputs are unaffected, so kernels
     * differing only in this option share PlanCache entries.
     */
    sim::FusionModel fusionModel = sim::FusionModel::ExactSerial;
};

/** Outcome of executing a compiled kernel. */
struct ExecutionResult
{
    std::vector<rt::RtValue> outputs;
    sim::PerfReport perf;

    /**
     * True when the result covers only part of the stored data: a
     * degraded sharded serve (core::ShardedEngine with allowDegraded)
     * merged top-k from surviving shards while quarantined shards
     * were skipped. perf.coverage then holds the covered row
     * fraction. Never silently partial: every other path leaves this
     * false.
     */
    bool partial = false;
};

class ExecutionSession;
class ServingEngine;
class AsyncServingEngine;
struct AsyncServingOptions;

/**
 * Execute @p entry of @p module once: a fresh ExecutionSession (setup
 * on a new CamDevice for a phased kernel, nothing for a host-only one)
 * that serves @p args as its one query. Single-shot runs therefore
 * take the same device primitive as sessions, replica pools and
 * shards, and validate @p args the same way (CompilerError on a wrong
 * arity, a null argument or a tensor shape the kernel was not
 * compiled for). Thread-safe: every call builds its own device and
 * frame; the module is only read. @p plan, when non-null, is borrowed
 * for the call; when null the session compiles the plan through the
 * PlanCache (or walks the IR with options.treeWalkExecution).
 */
ExecutionResult runKernelOnce(ir::Module &module, const std::string &entry,
                              const CompilerOptions &options,
                              const std::vector<rt::BufferPtr> &args,
                              const rt::ExecutionPlan *plan = nullptr);

/**
 * Validate @p args against the signature of kernel entry block
 * @p body: arity, non-null buffers, tensor shapes. Throws
 * CompilerError naming @p entry on mismatch. Shared by sessions and
 * the sharded engine.
 */
void validateKernelArgs(ir::Block *body, const std::string &entry,
                        const std::vector<rt::BufferPtr> &args);

/**
 * The one plan-or-tree-walk policy, shared by CompiledKernel and
 * ExecutionSession (serving replicas are cloned sessions): compile
 * @p entry of @p module into an ExecutionPlan, or return nullptr when
 * options.treeWalkExecution forces the tree walk. A module outside
 * the plan compiler's vocabulary is an error: the CompilerError from
 * rt::ExecutionPlan::compile propagates (the interpreter supports the
 * same vocabulary, so falling back would only defer the failure).
 * Every call goes through the process-wide PlanCache (see
 * core/PlanCache.h), so sessions, equal-slice shards and DSE
 * candidates compiling the same (module, entry, options) shape pay
 * the compile exactly once. @p cache_key, when non-null, receives the
 * cache key used (for later invalidation).
 */
std::shared_ptr<const rt::ExecutionPlan>
tryCompilePlan(const ir::Module &module, const std::string &entry,
               const CompilerOptions &options,
               std::string *cache_key = nullptr);

/**
 * A compiled kernel: owns the context and the lowered module.
 */
class CompiledKernel
{
  public:
    CompiledKernel(std::shared_ptr<ir::Context> ctx, ir::Module module,
                   CompilerOptions options, passes::MappingPlan plan);

    /**
     * The lowered module (cam level, or cim level when hostOnly).
     * Handing out the mutable module invalidates the cached execution
     * plan AND the kernel's process-wide PlanCache entry (callers may
     * rewrite the IR, e.g. retuning passes), so a rewritten module can
     * never serve a stale cached plan; the plan is recompiled from the
     * current module on next use. Read-only callers should go through
     * the const overload (e.g. via std::as_const), which keeps the
     * cached plan intact.
     */
    ir::Module &module();

    /** Read-only module access; the cached plan is preserved. */
    const ir::Module &module() const { return module_; }

    /** Static mapping summary (subarray/bank counts etc.). */
    const passes::MappingPlan &plan() const { return plan_; }

    /** Name of the kernel function. */
    const std::string &entryPoint() const { return entry_; }

    /**
     * Execute once with fresh simulator state: runKernelOnce(), i.e.
     * a fresh session's setup plus one query. Throws CompilerError
     * when @p args do not match the kernel signature.
     * @param args one tensor per function parameter.
     */
    ExecutionResult run(const std::vector<rt::BufferPtr> &args);

    /**
     * Open an execution session: allocates the device and programs
     * the stored data once (setup phase); each subsequent
     * ExecutionSession::runQuery() re-enters only the search body.
     * @param setup_args one tensor per function parameter; the stored
     *        tensor is programmed into CAM here.
     * The kernel must outlive (and not be moved while used by) the
     * session. See core/ExecutionSession.h for the accounting rules.
     */
    ExecutionSession
    createSession(const std::vector<rt::BufferPtr> &setup_args);

    /**
     * Open a replica-pool serving backend: programs one session (setup
     * phase) and clones it into @p replicas programmed copies, each
     * serve() call running on whichever replica is free. Each served
     * query's PerfReport is bit-identical to a serial
     * ExecutionSession::runQuery() of the same input. The kernel must
     * outlive the engine. See core/ServingEngine.h; to serve
     * concurrently, use createAsyncServingEngine().
     */
    std::unique_ptr<ServingEngine>
    createServingEngine(const std::vector<rt::BufferPtr> &setup_args,
                        int replicas);

    /**
     * Open an asynchronous serving front-end: a serving engine with
     * @p replicas programmed copies behind a bounded submission queue
     * with backpressure and dynamic micro-batching (see
     * core/AsyncServingEngine.h for the admission and shutdown
     * semantics). The kernel must outlive the engine.
     */
    std::unique_ptr<AsyncServingEngine>
    createAsyncServingEngine(const std::vector<rt::BufferPtr> &setup_args,
                             int replicas,
                             const AsyncServingOptions &async_options);

    /**
     * The kernel's compiled ExecutionPlan: the lowered module walked
     * once into a slot-based instruction stream (see
     * runtime/ExecutionPlan.h). Compiled eagerly at kernel build time
     * and shared by run()/sessions/engines; nullptr when
     * options.treeWalkExecution is set (differential-testing mode).
     * Throws CompilerError when the module holds an op outside the
     * executable vocabulary. A mutable module() access drops the
     * cache; the recompile happens on next use -- like the IR
     * mutation that motivated it, that path is single-threaded by
     * contract.
     */
    std::shared_ptr<const rt::ExecutionPlan> executionPlan();

    /** IR snapshots per pass (when dumpIntermediates was set). */
    const std::vector<std::pair<std::string, std::string>> &dumps() const
    {
        return dumps_;
    }

    /** Per-pass timings (when timePasses was set). */
    const std::vector<ir::PassManager::Timing> &passTimings() const
    {
        return timings_;
    }

  private:
    friend class Compiler;

    std::shared_ptr<ir::Context> ctx_;
    ir::Module module_;
    CompilerOptions options_;
    passes::MappingPlan plan_;
    std::string entry_;
    /** Compiled instruction stream (see executionPlan()). */
    std::shared_ptr<const rt::ExecutionPlan> plan_stream_;
    /** PlanCache key of plan_stream_, for invalidation on mutable
     *  module() access; empty when no cache entry is held. */
    std::string planCacheKey_;
    std::vector<std::pair<std::string, std::string>> dumps_;
    std::vector<ir::PassManager::Timing> timings_;
};

/**
 * End-to-end C4CAM compiler driver (Fig. 3 of the paper).
 */
class Compiler
{
  public:
    explicit Compiler(CompilerOptions options);

    const CompilerOptions &options() const { return options_; }

    /** Compile TorchScript source through the full pipeline. */
    CompiledKernel compileTorchScript(const std::string &source);

    /**
     * Compile @p source with parameter shapes substituted per
     * @p overrides (frontend::ShapeOverrides). The mapping plan is
     * recomputed from the overridden shapes, so one kernel source can
     * be instanced at many stored-data sizes -- the sharding layer
     * compiles one instance per shard slice this way.
     */
    CompiledKernel
    compileTorchScript(const std::string &source,
                       const frontend::ShapeOverrides &overrides);

    /** Compile an already-imported torch-level module. */
    CompiledKernel compileModule(std::shared_ptr<ir::Context> ctx,
                                 ir::Module module);

    /**
     * Build the standard pass pipeline into @p pm
     * (torch-to-cim, cim-fuse-ops, cim-similarity-match, then either
     * cim-partition for host execution or cam-map for the device).
     */
    void buildPipeline(ir::PassManager &pm) const;

  private:
    CompilerOptions options_;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_COMPILER_H
