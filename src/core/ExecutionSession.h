#ifndef C4CAM_CORE_EXECUTIONSESSION_H
#define C4CAM_CORE_EXECUTIONSESSION_H

/**
 * @file
 * CAM execution sessions: program the device once, serve many
 * queries.
 *
 * The paper's execution model (§III-D) splits cost into a one-time
 * *setup* phase (programming stored data into subarrays) and a
 * per-query *search* phase. That split is the only way a kernel
 * executes: CompiledKernel::run() is a fresh session serving its
 * arguments once, so it pays setup on every call. A session keeps
 * the device and frame alive across calls instead:
 *
 * @code
 *   core::CompiledKernel kernel = compiler.compileTorchScript(src);
 *   core::ExecutionSession session =
 *       kernel.createSession({query0, stored});   // setup happens here
 *   for (auto &query : queries) {
 *       core::ExecutionResult r = session.runQuery({query, stored});
 *       // r.perf.queryLatencyNs covers THIS query only; setup fields
 *       // describe the shared one-time programming cost.
 *   }
 *   sim::PerfReport total = session.aggregateReport();
 *   // total.amortizedLatencyNs() = (setup + all queries) / #queries
 * @endcode
 *
 * Accounting rules:
 *  - setup fields of every report describe the session's one-time
 *    programming cost (identical across queries);
 *  - query fields of a runQuery() report cover exactly that call, and
 *    are bit-identical to what a fresh single-shot run() would report
 *    for the same input (the device's query window is reset, not
 *    recovered by subtracting snapshots);
 *  - aggregateReport() sums the query fields over all served queries
 *    and sets queriesServed, so avgQueryLatencyNs() /
 *    amortizedLatencyNs() describe the batch;
 *  - a runFusedBatch() report is the same fold (setup once plus
 *    PerfReport::addQueryWindow per query) over that batch alone,
 *    with fusedBatchK = K.
 *
 * A session is also the serving tier's one device primitive: serve()
 * and serveFusedChunk() run a query (or a fused chunk) on the
 * programmed device without validating or recording it, and clone()
 * forks a programmed replica. ServingEngine pools clones; every
 * serving layer therefore shares this one query path, including its
 * failure rule: a query that throws (a transient device fault, say)
 * rolls the device back to a servable between-queries state, so the
 * next query is served exactly as if the failed one never ran.
 *
 * The session borrows the kernel's lowered module: the CompiledKernel
 * must outlive (and not be moved while used by) its sessions.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/Compiler.h"
#include "core/ServingRecorder.h"
#include "runtime/Buffer.h"
#include "runtime/ExecutionPlan.h"
#include "runtime/Interpreter.h"
#include "sim/CamDevice.h"
#include "sim/Timing.h"
#include "support/Trace.h"

namespace c4cam::core {

/**
 * Outcome of serving one fused multi-query batch: the per-query
 * results (outputs always bit-identical to serial serving) and the
 * batch's report -- the session's setup report plus every query's
 * window folded by PerfReport::addQueryWindow, with queriesServed =
 * fusedBatchK = K, so the amortized per-query attribution
 * (drive/setup shares) sits next to the batch totals. Under
 * sim::FusionModel::ExactSerial (default) the per-query reports
 * match serial serving bit for bit, so the totals equal the serial
 * sum; under TrueFused queries 2..K report honestly cheaper windows
 * (drive charged once per pass) and the totals come in strictly
 * below it.
 */
struct FusedBatchResult
{
    std::vector<ExecutionResult> results;
    sim::PerfReport fusedReport;
};

/**
 * A live kernel instance on a programmed CAM device.
 *
 * A session has a device exactly when its kernel carries phase
 * markers, which covers every cam-mapped kernel. A host-only kernel
 * has no setup phase and no device: each query runs the whole
 * function on the host, and its PerfReport stays zero.
 *
 * Execution back end: when a compiled ExecutionPlan is available (the
 * default), the setup prologue and every query are *replayed* through
 * the plan's instruction stream over a persistent slot frame; with
 * CompilerOptions::treeWalkExecution the session walks the IR through
 * the Interpreter instead. Both paths produce bit-identical outputs
 * and PerfReports.
 */
class ExecutionSession
{
  public:
    /**
     * Create a session for @p entry of @p module and run the setup
     * phase with @p setup_args (one buffer per function parameter; the
     * stored-data arguments are programmed into the device here).
     * Prefer CompiledKernel::createSession() over calling this
     * directly. @p plan is the kernel's compiled instruction stream;
     * when null (and tree-walk execution is not forced) the session
     * compiles its own.
     */
    ExecutionSession(std::shared_ptr<ir::Context> ctx, ir::Module &module,
                     CompilerOptions options, std::string entry,
                     const std::vector<rt::BufferPtr> &setup_args,
                     std::shared_ptr<const rt::ExecutionPlan> plan =
                         nullptr);

    ExecutionSession(ExecutionSession &&) = default;
    ExecutionSession &operator=(ExecutionSession &&) = default;

    /**
     * Fork a programmed replica: a CamDevice::cloneProgrammed() copy
     * of the device plus an ExecutionPlan::forkFrame() of the
     * post-setup slot frame, which shares no reusable buffer with this
     * session's (or a forked interpreter state in tree-walk mode). The
     * clone serves bit-identically to this session, pays no simulated
     * setup of its own and starts with a setup-only aggregate and
     * tracing off. Call between queries.
     */
    ExecutionSession clone() const;

    /**
     * Serve one query batch: re-enters only the search/read/merge
     * portion of the kernel. @p args must match the function signature;
     * the stored-data argument is ignored by the query body (the
     * device keeps the data programmed at session creation).
     */
    ExecutionResult runQuery(const std::vector<rt::BufferPtr> &args);

    /** Serve @p batches in order; one ExecutionResult per entry. */
    std::vector<ExecutionResult>
    runBatch(const std::vector<std::vector<rt::BufferPtr>> &batches);

    /**
     * Serve @p queries as ONE fused multi-query device pass (see
     * serveFusedChunk()) and report the batch as a FusedBatchResult.
     * Each query still runs in its own query window and outputs are
     * always bit-identical to serial runQuery() calls. What the
     * accounting means depends on CompilerOptions::fusionModel: under
     * ExactSerial (default) the per-query reports match serial
     * serving bit for bit; under TrueFused the pass charges each
     * subarray's precharge/drive once, so later queries report
     * cheaper windows. Host-only sessions have no device pass to fuse,
     * so TrueFused changes nothing there. The batch is recorded only
     * when every query succeeded: a failed batch leaves
     * queriesServed() and aggregateReport() untouched.
     */
    FusedBatchResult
    runFusedBatch(const std::vector<std::vector<rt::BufferPtr>> &queries);

    /// @name Device primitive (no validation, no recording)
    /// @{
    /**
     * Serve one query on the programmed device: open a fresh query
     * window, replay the plan (or walk the IR), render the window's
     * PerfReport and record "execute"/"merge" spans under
     * @p ctx->parentSpanId. With a null @p ctx and session tracing on,
     * the query gets its own "query" root span instead. Does NOT
     * validate @p args (callers validated at admission) and does not
     * count the query in this session's aggregate -- the caller's
     * ServingRecorder does. On any throw the device is rolled back to
     * a servable between-queries state before the exception
     * propagates.
     */
    ExecutionResult serve(const std::vector<rt::BufferPtr> &args,
                          const support::SpanContext *ctx = nullptr);

    /**
     * Serve every query of @p queries, in order, inside one fused
     * device pass (CamDevice::beginFusedPass), each through serve()
     * with its context from @p ctxs (one per query; null = as serve()
     * with a null context). Returns the per-query results. Same
     * contract as serve(): no validation, no recording, and a throw
     * rolls the device back, which also closes the pass.
     */
    std::vector<ExecutionResult> serveFusedChunk(
        const std::vector<std::vector<rt::BufferPtr>> &queries,
        const std::vector<support::SpanContext> *ctxs = nullptr);
    /// @}

    /**
     * Validate @p args against the kernel signature without serving
     * (throws CompilerError on mismatch) -- the admission-time check
     * runQuery() repeats. Adapters that serve through the serve()
     * primitive (ServingEngine, and through it the async front-end)
     * call this so malformed queries fail on the submitter's stack.
     */
    void
    validateQuery(const std::vector<rt::BufferPtr> &args) const
    {
        validateKernelArgs(entryBody_, entry_, args);
    }

    /** One-time setup cost (query fields are zero). */
    const sim::PerfReport &setupReport() const { return setupReport_; }

    /**
     * Cumulative report: setup once + query fields summed over all
     * queries served through runQuery()/runBatch()/runFusedBatch(),
     * with queriesServed set for the per-query and amortized
     * aggregates.
     */
    sim::PerfReport aggregateReport() const { return recorder_->aggregate(); }

    /** Number of queries served through runQuery()/runBatch()/
     *  runFusedBatch() so far. */
    std::int64_t queriesServed() const { return recorder_->queriesServed(); }

    /** True when queries replay the compiled plan (vs tree-walking). */
    bool usesPlan() const { return plan_ != nullptr; }

    /**
     * Record per-query lifecycle spans ("query" > "execute"/"merge",
     * plus "plan-replay" from the plan back end) into @p collector.
     * The execute span carries the device window's simulated breakdown
     * (sim::attachWindowBreakdown). Pass nullptr to turn tracing off
     * again; with no collector every tracing site is an inlined
     * null-check no-op, and recorded spans never perturb outputs or
     * PerfReports (locked by DifferentialFuzzTest running traced).
     * Call between queries, not concurrently with runQuery().
     */
    void enableTracing(support::TraceCollector *collector)
    {
        recorder_->enableTracing(collector);
    }

    /** The active trace collector (nullptr when tracing is off). */
    support::TraceCollector *traceCollector() const
    {
        return recorder_->traceCollector();
    }

    /** The simulated device; nullptr in host-only sessions. */
    sim::CamDevice *device() { return device_.get(); }

  private:
    ExecutionSession() = default; ///< clone() fills in the fields

    std::shared_ptr<ir::Context> ctx_;
    ir::Module *module_ = nullptr;
    CompilerOptions options_;
    std::string entry_;
    /** Entry block of the kernel function (cached: the module is
     *  immutable for the session's lifetime). */
    ir::Block *entryBody_ = nullptr;

    std::unique_ptr<sim::CamDevice> device_;
    /** Immutable view over the module, shared with clones (null in
     *  plan mode). */
    std::shared_ptr<const rt::Interpreter> interpreter_;
    /** This session's per-execution state (SSA env from the setup run). */
    rt::ExecutionState state_;
    /** Compiled instruction stream (null in tree-walk mode). */
    std::shared_ptr<const rt::ExecutionPlan> plan_;
    /** Persistent slot frame (the plan path's SSA environment). */
    rt::PlanFrame frame_;

    /** One-time setup cost (all zero without a device). */
    sim::PerfReport setupReport_;
    /** Aggregate, counters and root spans of runQuery()/runBatch()/
     *  runFusedBatch() (heap-held so the session stays movable). */
    std::unique_ptr<ServingRecorder> recorder_;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_EXECUTIONSESSION_H
