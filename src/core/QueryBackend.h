#ifndef C4CAM_CORE_QUERYBACKEND_H
#define C4CAM_CORE_QUERYBACKEND_H

/**
 * @file
 * The serving seam: "how a query executes" vs "which hardware
 * instance executes it".
 *
 * AsyncServingEngine is the one concurrent serving front-end: its
 * bounded queue and dispatcher threads drive any QueryBackend --
 * anything that can validate a query, serve it (optionally as part of
 * a fused chunk) and account for it. Backends start no serving
 * threads of their own; they only have to be safe to call from
 * several threads at once. Two implementations exist:
 *
 *  - ServingEngine: N cloned ExecutionSessions of one programmed
 *    device behind a free-list; with N = 1 it is the minimal
 *    single-device backend (core/ServingEngine.h);
 *  - ShardedEngine: the stored-vector axis partitioned across M
 *    programmed devices with scatter-gather top-k merge
 *    (core/ShardedEngine.h).
 *
 * Both serve every device query through the one primitive,
 * ExecutionSession::serve(), and keep their statistics and root
 * spans in a ServingRecorder. Host-only kernels take the same path:
 * their sessions have no device and report all-zero PerfReports.
 *
 * Contract highlights:
 *  - serve()/serveFusedChunk() may assume validateQuery() passed for
 *    every query (the async front-end validates at admission);
 *    implementations may still re-check cheaply.
 *  - serveFusedChunk() serves a chunk of queries as one fused pass
 *    and returns their per-query results; on failure it must record
 *    NOTHING in stats() (the caller falls back to per-query serve()).
 *  - With tracing enabled and a null span context, serve() owns the
 *    query's root "query" span; with a caller-provided context it
 *    parents its spans under ctx->parentSpanId instead and the caller
 *    owns the root.
 *  - Every implementation must be thread-safe for concurrent serve
 *    calls (concurrency() says how many make progress in parallel).
 */

#include <cstdint>
#include <vector>

#include "core/ExecutionSession.h"
#include "core/ServingRecorder.h"
#include "runtime/Buffer.h"
#include "sim/Timing.h"
#include "support/Trace.h"

namespace c4cam::core {

/**
 * A synchronous query-serving backend the async front-end can drive.
 * See the file comment for the contract.
 */
class QueryBackend
{
  public:
    virtual ~QueryBackend() = default;

    /**
     * Validate @p args against the kernel signature without serving
     * (throws CompilerError on mismatch). Called at admission time so
     * malformed queries fail on the submitter's stack, never inside a
     * dispatcher thread.
     */
    virtual void
    validateQuery(const std::vector<rt::BufferPtr> &args) const = 0;

    /**
     * Serve one query and record it in stats(). @p ctx, when tracing,
     * parents this query's spans (null with tracing enabled means
     * "own the root span yourself").
     */
    virtual ExecutionResult
    serve(const std::vector<rt::BufferPtr> &args,
          const support::SpanContext *ctx = nullptr) = 0;

    /**
     * Serve @p queries as one fused multi-query pass and record them
     * in stats(); returns one result per query. @p ctxs, when
     * non-null, holds one tracing context per query. Per-query results
     * stay bit-identical to serial serve() calls (under
     * sim::FusionModel::ExactSerial, their reports too). A failure
     * must leave stats() untouched (nothing half-recorded).
     */
    virtual std::vector<ExecutionResult> serveFusedChunk(
        const std::vector<std::vector<rt::BufferPtr>> &queries,
        const std::vector<support::SpanContext> *ctxs = nullptr) = 0;

    /**
     * Record per-query lifecycle spans into @p collector (nullptr
     * turns tracing off). @p trace_id groups the spans; 0 allocates a
     * fresh id. Install before serving starts, never concurrently
     * with in-flight queries.
     */
    virtual void enableTracing(support::TraceCollector *collector,
                               std::uint64_t trace_id = 0) = 0;

    /** Aggregate metrics over everything served so far. */
    virtual ServingStats stats() const = 0;

    /** One-time simulated setup cost of programming the backend. */
    virtual const sim::PerfReport &setupReport() const = 0;

    /**
     * How many serve() calls make progress in parallel (replica
     * count, shard replica depth, 1 for a single session). The async
     * front-end sizes its dispatcher thread count from this.
     */
    virtual int concurrency() const = 0;

    /** Number of queries served so far. */
    virtual std::int64_t queriesServed() const = 0;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_QUERYBACKEND_H
