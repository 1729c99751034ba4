#include "core/Compiler.h"

#include "core/AsyncServingEngine.h"
#include "core/ExecutionSession.h"
#include "core/PlanCache.h"
#include "core/ServingEngine.h"
#include "dialects/AllDialects.h"
#include "frontend/TorchScriptFrontend.h"
#include "ir/Verifier.h"
#include "passes/CamMapping.h"
#include "passes/Canonicalize.h"
#include "passes/CimFuseOps.h"
#include "passes/CimPartition.h"
#include "passes/CimSimilarityMatching.h"
#include "passes/CimToLoops.h"
#include "passes/TorchToCim.h"
#include "runtime/ExecutionPlan.h"
#include "support/Error.h"

namespace c4cam::core {

CompiledKernel::CompiledKernel(std::shared_ptr<ir::Context> ctx,
                               ir::Module module, CompilerOptions options,
                               passes::MappingPlan plan)
    : ctx_(std::move(ctx)), module_(std::move(module)),
      options_(std::move(options)), plan_(plan)
{
    auto funcs = module_.functions();
    C4CAM_CHECK(!funcs.empty(), "compiled module has no functions");
    entry_ = funcs.front()->strAttr("sym_name");

    // Compile the plan eagerly so a kernel shared across threads runs
    // on an immutable plan with no lazy first-use race. The cache is
    // only dropped by mutable module() access, which (like any IR
    // mutation) is single-threaded by contract; the recompile then
    // happens on next use.
    executionPlan();
}

std::shared_ptr<const rt::ExecutionPlan>
tryCompilePlan(const ir::Module &module, const std::string &entry,
               const CompilerOptions &options, std::string *cache_key)
{
    if (options.treeWalkExecution)
        return nullptr;
    std::string key = PlanCache::makeKey(module, entry, options);
    if (cache_key)
        *cache_key = key;
    return PlanCache::instance().getOrCompile(
        key, [&] { return rt::ExecutionPlan::compile(module, entry); });
}

ir::Module &
CompiledKernel::module()
{
    // The caller may rewrite the IR: drop the kernel's own cached plan
    // AND the process-wide cache entry, so no future consumer of the
    // old (module, options) shape can be served a plan that no longer
    // matches this kernel's IR.
    if (!planCacheKey_.empty()) {
        PlanCache::instance().invalidate(planCacheKey_);
        planCacheKey_.clear();
    }
    plan_stream_.reset();
    return module_;
}

std::shared_ptr<const rt::ExecutionPlan>
CompiledKernel::executionPlan()
{
    // Compiled once (re-compiled lazily after mutable module() access
    // so IR rewrites are picked up) and shared by
    // run()/sessions/engines.
    if (!plan_stream_ && !options_.treeWalkExecution)
        plan_stream_ =
            tryCompilePlan(module_, entry_, options_, &planCacheKey_);
    return plan_stream_;
}

void
validateKernelArgs(ir::Block *body, const std::string &entry,
                   const std::vector<rt::BufferPtr> &args)
{
    C4CAM_CHECK(body->numArguments() == args.size(),
                "kernel '" << entry << "' takes " << body->numArguments()
                << " arguments, got " << args.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
        C4CAM_CHECK(args[i], "argument " << i << " is null");
        ir::Type t = body->argument(i)->type();
        if (!t.isTensor())
            continue;
        const auto &shape = t.shape();
        const auto &got = args[i]->shape();
        bool matches = shape.size() == got.size();
        for (std::size_t d = 0; matches && d < shape.size(); ++d)
            matches = shape[d] == got[d];
        C4CAM_CHECK(matches, "argument " << i << " shape mismatch for '"
                    << entry << "': kernel was compiled for a different "
                    "tensor shape (recompile or reshape the input)");
    }
}

ExecutionResult
runKernelOnce(ir::Module &module, const std::string &entry,
              const CompilerOptions &options,
              const std::vector<rt::BufferPtr> &args,
              const rt::ExecutionPlan *plan)
{
    // The session lives only for this call, so it may borrow the plan
    // through a non-owning pointer.
    ExecutionSession session(
        nullptr, module, options, entry, args,
        std::shared_ptr<const rt::ExecutionPlan>(
            std::shared_ptr<const rt::ExecutionPlan>(), plan));
    return session.serve(args);
}

ExecutionResult
CompiledKernel::run(const std::vector<rt::BufferPtr> &args)
{
    return runKernelOnce(module_, entry_, options_, args,
                         executionPlan().get());
}

ExecutionSession
CompiledKernel::createSession(const std::vector<rt::BufferPtr> &setup_args)
{
    return ExecutionSession(ctx_, module_, options_, entry_, setup_args,
                            executionPlan());
}

std::unique_ptr<ServingEngine>
CompiledKernel::createServingEngine(
    const std::vector<rt::BufferPtr> &setup_args, int replicas)
{
    return std::make_unique<ServingEngine>(createSession(setup_args),
                                           replicas);
}

std::unique_ptr<AsyncServingEngine>
CompiledKernel::createAsyncServingEngine(
    const std::vector<rt::BufferPtr> &setup_args, int replicas,
    const AsyncServingOptions &async_options)
{
    return std::make_unique<AsyncServingEngine>(
        createServingEngine(setup_args, replicas), async_options);
}

Compiler::Compiler(CompilerOptions options) : options_(std::move(options))
{
    options_.spec.validate();
}

void
Compiler::buildPipeline(ir::PassManager &pm) const
{
    pm.add<passes::TorchToCimPass>();
    pm.add<passes::CimFuseOpsPass>();
    pm.add<passes::CimSimilarityMatchingPass>();
    if (options_.hostOnly) {
        if (options_.lowerToLoops)
            pm.add<passes::CimToLoopsPass>();
        else
            pm.add<passes::CimPartitionPass>(options_.spec);
    } else {
        pm.add<passes::CamMappingPass>(options_.spec);
    }
    pm.add<passes::CanonicalizePass>();
}

CompiledKernel
Compiler::compileTorchScript(const std::string &source)
{
    auto ctx = std::make_shared<ir::Context>();
    dialects::loadAllDialects(*ctx);
    ir::Module module = frontend::parseTorchScriptModule(*ctx, source);
    return compileModule(std::move(ctx), std::move(module));
}

CompiledKernel
Compiler::compileTorchScript(const std::string &source,
                             const frontend::ShapeOverrides &overrides)
{
    auto ctx = std::make_shared<ir::Context>();
    dialects::loadAllDialects(*ctx);
    ir::Module module =
        frontend::parseTorchScriptModule(*ctx, source, &overrides);
    return compileModule(std::move(ctx), std::move(module));
}

CompiledKernel
Compiler::compileModule(std::shared_ptr<ir::Context> ctx,
                        ir::Module module)
{
    ir::verifyModule(module);

    ir::PassManager pm;
    pm.enableTiming(options_.timePasses);
    buildPipeline(pm);

    std::vector<std::pair<std::string, std::string>> dumps;
    if (options_.dumpIntermediates) {
        pm.setAfterPassCallback(
            [&dumps](const std::string &pass, ir::Module &m) {
                dumps.emplace_back(pass, m.str());
            });
    }

    // Grab the mapping plan out of the cam-map pass before pm owns it.
    // (buildPipeline added it last for the device path.)
    pm.run(module);

    passes::MappingPlan plan;
    if (!options_.hostOnly) {
        // Recompute the plan from the kernel shapes for reporting; the
        // pass computed the same values during mapping.
        // The entry function signature carries (query, stored) shapes.
        auto funcs = module.functions();
        C4CAM_CHECK(!funcs.empty(), "module lost its functions");
        ir::Block *body = &funcs.front()->region(0).front();
        if (body->numArguments() >= 2) {
            ir::Type query_t = body->argument(0)->type();
            ir::Type stored_t = body->argument(1)->type();
            if (query_t.isTensor() && stored_t.isTensor() &&
                query_t.rank() == 2 && stored_t.rank() == 2) {
                plan = passes::MappingPlan::compute(
                    options_.spec, query_t.shape()[0],
                    stored_t.shape()[0], stored_t.shape()[1]);
            }
        }
    }

    CompiledKernel kernel(std::move(ctx), std::move(module), options_,
                          plan);
    kernel.dumps_ = std::move(dumps);
    kernel.timings_ = pm.timings();
    return kernel;
}

} // namespace c4cam::core
