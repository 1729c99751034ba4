#ifndef C4CAM_CORE_SERVINGRECORDER_H
#define C4CAM_CORE_SERVINGRECORDER_H

/**
 * @file
 * The one serving-statistics and root-span bookkeeper.
 *
 * Every serving layer -- a session, a replica pool, a sharded engine --
 * records the same things per served query: fold its simulated report
 * into an aggregate that pays setup once, count it, sample its host
 * latency, widen the first-submit / last-done wall-clock interval, and
 * (when tracing and no caller owns the query) record its "query" root
 * span. ServingRecorder is that bookkeeping, written once:
 *
 * @code
 *   core::ServingRecorder recorder(setup_report);
 *   support::SpanContext root;
 *   const support::SpanContext *ctx = caller_ctx;
 *   bool own_root = recorder.openRoot(ctx, root);
 *   auto start = core::ServingRecorder::Clock::now();
 *   core::ExecutionResult r = serveSomehow(args, ctx);
 *   auto done = core::ServingRecorder::Clock::now();
 *   recorder.record(r.perf, start, done);
 *   if (own_root)
 *       recorder.recordRoot(root, root.collector->toUs(start),
 *                           root.collector->toUs(done));
 *   core::ServingStats stats = recorder.stats();
 * @endcode
 *
 * Thread-safe: record()/recordChunk()/stats() may race each other.
 * enableTracing() must happen before serving starts.
 */

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/Compiler.h"
#include "core/PlanCache.h"
#include "sim/Timing.h"
#include "support/Stats.h"
#include "support/Trace.h"

namespace c4cam::core {

/** Aggregate serving metrics over all queries served so far. */
struct ServingStats
{
    std::int64_t queriesServed = 0;

    /** Wall-clock seconds from the first submission to the last
     *  completion (0 when nothing was served). */
    double wallSeconds = 0.0;

    /** Host throughput: queriesServed / wallSeconds. */
    double qps = 0.0;

    /// @name Host wall-clock latency percentiles per query (us),
    /// over a bounded window of the most recent queries (a long-lived
    /// engine keeps no unbounded per-query history)
    /// @{
    double p50LatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    /// @}

    /// @name Fault-recovery activity (0 on fault-free runs)
    /// @{
    /** Transient-fault re-serve attempts (RetryPolicy). Includes the
     *  async fused-chunk fallback's individual re-serves. */
    std::int64_t retries = 0;
    /** Queries shed at dispatch because their deadline had already
     *  passed while queued (AsyncServingEngine deadlines). */
    std::int64_t deadlineSheds = 0;
    /** Shard quarantine transitions (ShardedEngine circuit breaker);
     *  counts every healthy->quarantined edge including re-trips
     *  after a failed probe. */
    std::int64_t quarantines = 0;
    /** Queries answered from surviving shards only (allowDegraded),
     *  marked partial with a < 1 coverage fraction. */
    std::int64_t degradedServes = 0;
    /// @}

    /** Simulated totals: setup once + query windows summed, with
     *  queriesServed set (same accounting as a serial session). */
    sim::PerfReport aggregate;

    /** Process-wide PlanCache counters at stats() time (shared across
     *  backends -- replicas, shards and sessions all compile through
     *  the same cache; see core/PlanCache.h). */
    PlanCacheStats planCache;
};

/**
 * Aggregate report, counters, latency window, wall-clock interval and
 * root spans of one serving layer.
 */
class ServingRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * @p setup seeds the aggregate (setup is paid once); every served
     * report folds in as a query window on top of it
     * (PerfReport::addQueryWindow).
     */
    explicit ServingRecorder(const sim::PerfReport &setup);

    ServingRecorder(const ServingRecorder &) = delete;
    ServingRecorder &operator=(const ServingRecorder &) = delete;

    /// @name Tracing
    /// @{
    /** Own root spans in @p collector (nullptr turns tracing off).
     *  @p trace_id groups the spans; 0 allocates a fresh id. */
    void enableTracing(support::TraceCollector *collector,
                       std::uint64_t trace_id = 0);

    /** The active trace collector (nullptr when tracing is off). */
    support::TraceCollector *traceCollector() const { return trace_; }

    /**
     * With tracing on and no caller context (@p ctx null), fill
     * @p root with a fresh query id and root span id, point @p ctx at
     * it and return true: the caller now owns that query's root span
     * and must close it with recordRoot(). Otherwise leave @p ctx
     * alone and return false.
     */
    bool openRoot(const support::SpanContext *&ctx,
                  support::SpanContext &root) const;

    /** openRoot() for the @p n queries of a fused chunk: one root per
     *  query in @p roots when @p ctxs is null and tracing is on. */
    bool openRoots(const std::vector<support::SpanContext> *&ctxs,
                   std::vector<support::SpanContext> &roots,
                   std::size_t n) const;

    /** Record the "query" root span @p root over
     *  [@p start_us, @p end_us] (collector time). */
    static void recordRoot(const support::SpanContext &root,
                           double start_us, double end_us,
                           std::int64_t fused_k = 0);
    /// @}

    /// @name Recording
    /// @{
    /** Fold one served query: its report, its latency
     *  (@p done - @p start) and the wall-clock interval. */
    void record(const sim::PerfReport &perf, Clock::time_point start,
                Clock::time_point done);

    /** Fold every query of a fused chunk that succeeded as a whole;
     *  each waited for the whole chunk [@p start, @p done]. */
    void recordChunk(const std::vector<ExecutionResult> &results,
                     Clock::time_point start, Clock::time_point done);
    /// @}

    std::int64_t queriesServed() const;

    /** Setup once + the folded queries, with queriesServed set. */
    sim::PerfReport aggregate() const;

    /** Counters, interval, percentiles, aggregate and plan-cache
     *  counters; the fault-recovery fields stay 0 for the owner to
     *  fill in. */
    ServingStats stats() const;

  private:
    void recordLocked(const sim::PerfReport &perf, Clock::time_point start,
                      Clock::time_point done);

    support::TraceCollector *trace_ = nullptr;
    std::uint64_t traceId_ = 0;

    /// @name Guarded by mutex_
    /// @{
    mutable std::mutex mutex_;
    sim::PerfReport aggregate_;
    std::int64_t queriesServed_ = 0;
    /** Bounded window over the most recent queries: stats() sorts it
     *  per call and a serving engine can live for millions of
     *  queries. */
    support::LatencyWindow latenciesUs_;
    Clock::time_point firstSubmit_;
    Clock::time_point lastDone_;
    /// @}
};

} // namespace c4cam::core

#endif // C4CAM_CORE_SERVINGRECORDER_H
