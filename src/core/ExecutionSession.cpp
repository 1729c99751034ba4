#include "core/ExecutionSession.h"

#include "dialects/cam/CamDialect.h"
#include "support/Error.h"

namespace c4cam::core {

using Clock = ServingRecorder::Clock;

ExecutionSession::ExecutionSession(
    std::shared_ptr<ir::Context> ctx, ir::Module &module,
    CompilerOptions options, std::string entry,
    const std::vector<rt::BufferPtr> &setup_args,
    std::shared_ptr<const rt::ExecutionPlan> plan)
    : ctx_(std::move(ctx)), module_(&module), options_(std::move(options)),
      entry_(std::move(entry)), plan_(std::move(plan))
{
    ir::Operation *func = module_->lookupFunction(entry_);
    C4CAM_CHECK(func, "session kernel has no function '" << entry_ << "'");
    entryBody_ = &func->region(0).front();
    validateKernelArgs(entryBody_, entry_, setup_args);

    if (options_.treeWalkExecution)
        plan_ = nullptr;
    else if (!plan_)
        plan_ = tryCompilePlan(*module_, entry_, options_);

    // Only a phased kernel has a setup phase to program a device
    // with; a host-only kernel's setup runs nothing.
    if (dialects::cam::hasPhaseMarkers(func)) {
        device_ = std::make_unique<sim::CamDevice>(options_.spec);
        // Clones inherit the model via cloneProgrammed's copy, so a
        // replica pool fuses under one accounting regime.
        device_->setFusionModel(options_.fusionModel);
    }
    if (plan_) {
        frame_ = plan_->makeFrame();
        plan_->run(frame_, device_.get(), rt::toRtValues(setup_args),
                   rt::ExecutionPlan::ExecPhase::SetupOnly);
    } else {
        interpreter_ = std::make_shared<rt::Interpreter>(*module_);
        state_ = rt::ExecutionState(device_.get());
        interpreter_->callFunction(state_, entry_,
                                   rt::toRtValues(setup_args),
                                   rt::Interpreter::ExecPhase::SetupOnly);
    }
    if (device_)
        setupReport_ = device_->report();
    recorder_ = std::make_unique<ServingRecorder>(setupReport_);
}

ExecutionSession
ExecutionSession::clone() const
{
    ExecutionSession copy;
    copy.ctx_ = ctx_;
    copy.module_ = module_;
    copy.options_ = options_;
    copy.entry_ = entry_;
    copy.entryBody_ = entryBody_;
    copy.interpreter_ = interpreter_;
    copy.plan_ = plan_;
    copy.setupReport_ = setupReport_;
    // The device clone copies the programmed cells, the setup
    // accounting and the handle numbering, so a forked slot frame
    // (setup results are immutable once programmed) or a forked
    // interpreter state keeps addressing the right subarrays.
    if (device_)
        copy.device_ = device_->cloneProgrammed();
    if (plan_)
        copy.frame_ = plan_->forkFrame(frame_);
    else
        copy.state_ = state_.forkForReplica(copy.device_.get());
    copy.recorder_ = std::make_unique<ServingRecorder>(setupReport_);
    return copy;
}

ExecutionResult
ExecutionSession::serve(const std::vector<rt::BufferPtr> &args,
                        const support::SpanContext *ctx)
{
    // Tracing adds an id handout plus a few clock reads per query when
    // a context is threaded in, and predictable null checks when not;
    // it never touches the device or the result, so outputs and
    // PerfReports stay bit-identical either way.
    support::SpanContext root;
    bool own_root = recorder_->openRoot(ctx, root);
    support::TraceCollector *col =
        ctx && ctx->collector ? ctx->collector : nullptr;
    std::uint64_t execSpan = col ? col->newSpanId() : 0;
    double e0 = col ? col->nowUs() : 0.0;
    auto record_span = [&](const char *name, std::uint64_t span_id,
                           double start_us, double end_us,
                           const sim::PerfReport *perf) {
        support::TraceEvent ev;
        ev.name = name;
        ev.traceId = ctx->traceId;
        ev.queryId = ctx->queryId;
        ev.spanId = span_id;
        ev.parentSpanId = ctx->parentSpanId;
        ev.startUs = start_us;
        ev.durUs = end_us - start_us;
        if (perf)
            sim::attachWindowBreakdown(ev, *perf);
        col->record(ev);
    };

    ExecutionResult result;
    try {
        // Fresh accounting window: this query's report covers exactly
        // this call on top of the shared setup.
        if (device_)
            device_->beginQueryWindow();
        if (plan_) {
            if (col)
                frame_.trace = support::SpanContext{
                    col, ctx->traceId, ctx->queryId, execSpan};
            result.outputs =
                plan_->run(frame_, device_.get(), rt::toRtValues(args),
                           rt::ExecutionPlan::ExecPhase::QueryOnly);
            frame_.trace = support::SpanContext{};
        } else {
            result.outputs = interpreter_->callFunction(
                state_, entry_, rt::toRtValues(args),
                rt::Interpreter::ExecPhase::QueryOnly);
        }
    } catch (...) {
        // The unwind left timing scopes (and any fused pass) open;
        // roll back to a servable between-queries state.
        frame_.trace = support::SpanContext{};
        if (device_)
            device_->abortQueryWindow();
        if (col) {
            // A fault mid-replay may already have recorded children
            // under this execute span (the plan's RAII "plan-replay"
            // span fires during unwinding); record the execute span
            // itself so the trace stays parent-resolvable.
            double now = col->nowUs();
            record_span("execute", execSpan, e0, now, nullptr);
            if (own_root)
                ServingRecorder::recordRoot(root, e0, now);
        }
        throw;
    }
    double e1 = col ? col->nowUs() : 0.0;
    if (device_) {
        // Merge stage: render the window into the report.
        result.perf = device_->report();
        result.perf.queriesServed = 1;
    }
    if (col) {
        double m1 = col->nowUs();
        record_span("execute", execSpan, e0, e1, &result.perf);
        record_span("merge", col->newSpanId(), e1, m1, nullptr);
        if (own_root)
            ServingRecorder::recordRoot(root, e0, m1);
    }
    return result;
}

std::vector<ExecutionResult>
ExecutionSession::serveFusedChunk(
    const std::vector<std::vector<rt::BufferPtr>> &queries,
    const std::vector<support::SpanContext> *ctxs)
{
    C4CAM_CHECK(!queries.empty(), "fused chunk needs at least one query");
    std::vector<ExecutionResult> results;
    results.reserve(queries.size());
    // A host-only session has no device pass to fuse. On a throw,
    // serve()'s rollback closes the pass.
    if (device_)
        device_->beginFusedPass();
    for (std::size_t i = 0; i < queries.size(); ++i)
        results.push_back(serve(queries[i], ctxs ? &(*ctxs)[i] : nullptr));
    if (device_)
        device_->endFusedPass();
    return results;
}

ExecutionResult
ExecutionSession::runQuery(const std::vector<rt::BufferPtr> &args)
{
    validateKernelArgs(entryBody_, entry_, args);
    Clock::time_point start = Clock::now();
    ExecutionResult result = serve(args);
    recorder_->record(result.perf, start, Clock::now());
    return result;
}

std::vector<ExecutionResult>
ExecutionSession::runBatch(
    const std::vector<std::vector<rt::BufferPtr>> &batches)
{
    std::vector<ExecutionResult> results;
    results.reserve(batches.size());
    for (const auto &args : batches)
        results.push_back(runQuery(args));
    return results;
}

FusedBatchResult
ExecutionSession::runFusedBatch(
    const std::vector<std::vector<rt::BufferPtr>> &queries)
{
    C4CAM_CHECK(!queries.empty(), "fused batch needs at least one query");
    // Validate everything up front: a malformed query must fail before
    // the fused pass opens, not leave the device mid-batch.
    for (const auto &args : queries)
        validateKernelArgs(entryBody_, entry_, args);
    Clock::time_point start = Clock::now();
    FusedBatchResult batch;
    batch.results = serveFusedChunk(queries);
    recorder_->recordChunk(batch.results, start, Clock::now());
    batch.fusedReport = setupReport_;
    for (const ExecutionResult &r : batch.results)
        batch.fusedReport.addQueryWindow(r.perf);
    batch.fusedReport.queriesServed =
        static_cast<std::int64_t>(batch.results.size());
    batch.fusedReport.fusedBatchK = batch.fusedReport.queriesServed;
    return batch;
}

} // namespace c4cam::core
