#ifndef C4CAM_CORE_SERVINGENGINE_H
#define C4CAM_CORE_SERVINGENGINE_H

/**
 * @file
 * Query serving on replicated CAM devices.
 *
 * An ExecutionSession serves queries one at a time on one programmed
 * device. A ServingEngine scales that out across host threads: it
 * takes one programmed session (setup paid once), forks it with
 * ExecutionSession::clone() into N replicas, and hands each serve()
 * call whichever replica is free. The engine starts no threads of its
 * own; concurrency comes from its callers -- the dispatcher threads
 * of an AsyncServingEngine, or any caller threads that call serve()
 * directly.
 *
 * @code
 *   core::CompiledKernel kernel = compiler.compileTorchScript(src);
 *   auto engine = kernel.createServingEngine({query0, stored}, 4);
 *   core::ExecutionResult r = engine->serve({q, stored});  // any thread
 *   core::ServingStats stats = engine->stats();  // qps, p50/p95
 * @endcode
 *
 * CompiledKernel::createAsyncServingEngine() puts the bounded queue and
 * dispatcher threads of an AsyncServingEngine in front of the replicas.
 *
 * Accounting guarantees (locked by tests and bench/serving_throughput):
 *  - every served query's PerfReport is bit-identical to what a serial
 *    ExecutionSession::runQuery() reports for the same input: replicas
 *    are exact clones, each query runs on exactly one replica through
 *    the same ExecutionSession::serve() primitive, and the simulated
 *    cost model is deterministic;
 *  - the aggregate report pays setup once (replication is free host
 *    work, not simulated device work) and sums the query windows over
 *    all served queries, exactly like a serial session; a fused chunk
 *    is recorded query by query the same way, and the engine keeps
 *    no fused totals of its own.
 *
 * Threading model: the compiled module and plan are shared read-only;
 * each replica session owns its CamDevice and slot frame and serves at
 * most one query at a time (enforced by the free-list: a serve() call
 * with every replica busy waits for one to come back). Queries must
 * not alias writable buffers across concurrent calls (inputs are
 * read-only; outputs are freshly allocated per query).
 */

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "core/ExecutionSession.h"
#include "core/QueryBackend.h"
#include "core/RetryPolicy.h"
#include "core/ServingRecorder.h"
#include "runtime/Buffer.h"
#include "sim/CamDevice.h"
#include "support/Trace.h"

namespace c4cam::core {

/**
 * N cloned ExecutionSessions behind a free-list.
 *
 * For host-only kernels (no cam ops, nothing programmed) the clones
 * have no device and run the whole function per query -- still
 * parallel, with all-zero PerfReports.
 *
 * The engine borrows the kernel's lowered module: the CompiledKernel
 * must outlive (and not be moved while used by) its engines. Prefer
 * CompiledKernel::createServingEngine() over the raw constructor.
 */
class ServingEngine : public QueryBackend
{
  public:
    /**
     * Serve through @p master (already programmed; its own tracing is
     * turned off -- the engine records spans) plus @p replicas - 1
     * clones of it.
     */
    ServingEngine(ExecutionSession master, int replicas);

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Validate @p args against the kernel signature without serving
     * (throws CompilerError on mismatch). The async front-end calls
     * this at submission time so malformed queries fail on the
     * submitter's stack instead of inside a dispatcher thread; its
     * dispatchers then serve through the non-revalidating
     * serve()/serveFusedChunk() primitives.
     */
    void
    validateQuery(const std::vector<rt::BufferPtr> &args) const override
    {
        replicas_.front()->validateQuery(args);
    }

    /**
     * Acquire a replica, serve one query on it
     * (ExecutionSession::serve), record stats, release. Does
     * NOT revalidate @p args (the QueryBackend contract: validation
     * happened at admission; re-walking the kernel signature per
     * dispatch would be pure overhead on the hot path). With engine
     * tracing on and no caller-provided @p ctx, opens (and records)
     * this query's root span itself.
     */
    ExecutionResult
    serve(const std::vector<rt::BufferPtr> &args,
          const support::SpanContext *ctx = nullptr) override;

    /** Serve @p queries as one fused pass on a replica acquired for
     *  the chunk (ExecutionSession::serveFusedChunk). @p ctxs, when
     *  non-null, holds one per-query tracing context. Like serve(),
     *  does not revalidate; a failed chunk is not retried and records
     *  nothing in stats(). */
    std::vector<ExecutionResult> serveFusedChunk(
        const std::vector<std::vector<rt::BufferPtr>> &queries,
        const std::vector<support::SpanContext> *ctxs = nullptr) override;

    /**
     * Record per-query lifecycle spans into @p collector: for every
     * served query a "query" root span with "execute" and "merge"
     * children (the execute span carries the device window's simulated
     * breakdown via sim::attachWindowBreakdown, and the plan back end
     * adds a "plan-replay" child). When the engine serves on behalf of
     * an AsyncServingEngine the async layer passes per-query contexts
     * instead and owns the root span. @p trace_id groups the spans;
     * 0 allocates a fresh id from the collector. Pass nullptr to turn
     * tracing off. Not thread-safe against in-flight queries: install
     * the collector before serving starts. Tracing never perturbs
     * outputs or PerfReports (locked by DifferentialFuzzTest).
     */
    void
    enableTracing(support::TraceCollector *collector,
                  std::uint64_t trace_id = 0) override
    {
        recorder_.enableTracing(collector, trace_id);
    }

    /** The active trace collector (nullptr when tracing is off). */
    support::TraceCollector *traceCollector() const
    {
        return recorder_.traceCollector();
    }

    /// @name Fault tolerance
    /// @{
    /**
     * Bounded-retry policy for transient device faults: serve() will
     * re-attempt a query up to policy.maxAttempts times total when a
     * sim::TransientFault unwinds out of execution, with deterministic
     * exponential backoff between attempts. The failed replica rolled
     * its query window back (ExecutionSession::serve), so a recovered
     * query's output and PerfReport are bit-identical to a fault-free
     * run.
     * Permanent c4cam::ExecutionErrors are never retried. Install
     * before serving starts.
     */
    void setRetryPolicy(RetryPolicy policy) { retryPolicy_ = policy; }

    const RetryPolicy &retryPolicy() const { return retryPolicy_; }

    /** Transient-fault re-serve attempts so far (also in
     *  stats().retries; cheap accessor for aggregating layers). */
    std::int64_t retriesAttempted() const
    {
        return retries_.load(std::memory_order_relaxed);
    }

    /**
     * Attach @p injector to every replica device (slot order, so
     * injector device ids are deterministic). No-op for host-only
     * engines, which have no devices to fault.
     */
    void attachFaultInjector(std::shared_ptr<sim::FaultInjector> injector);
    /// @}

    /** Aggregate metrics over everything served so far. */
    ServingStats stats() const override;

    /** One-time setup cost of the master replica. */
    const sim::PerfReport &setupReport() const override
    {
        return replicas_.front()->setupReport();
    }

    int numReplicas() const { return static_cast<int>(replicas_.size()); }

    /** One serve() makes progress per replica. */
    int concurrency() const override { return numReplicas(); }

    std::int64_t queriesServed() const override
    {
        return recorder_.queriesServed();
    }

  private:
    /** A replica taken off the free-list; returned on destruction. */
    class Lease;

    /** Cloned sessions (index 0 is the master that ran setup). */
    std::vector<std::unique_ptr<ExecutionSession>> replicas_;

    /// @name Free-list of idle replicas
    /// @{
    std::mutex replicaMutex_;
    std::condition_variable replicaFree_;
    std::vector<ExecutionSession *> freeReplicas_;
    /// @}

    /// @name Fault tolerance
    /// @{
    RetryPolicy retryPolicy_;
    /** Transient-fault re-serve attempts (stats().retries). */
    std::atomic<std::int64_t> retries_{0};
    /// @}

    /** Aggregate, counters and the engine's own root spans. */
    ServingRecorder recorder_;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_SERVINGENGINE_H
