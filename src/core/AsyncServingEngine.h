#ifndef C4CAM_CORE_ASYNCSERVINGENGINE_H
#define C4CAM_CORE_ASYNCSERVINGENGINE_H

/**
 * @file
 * Asynchronous serving front-end with bounded admission and dynamic
 * micro-batching.
 *
 * A synchronous backend serves queries as fast as its devices allow
 * but has no admission decision anywhere: producers outpace it and
 * in-flight work grows without bound. AsyncServingEngine adds that
 * layer over any core::QueryBackend -- a ServingEngine replica pool
 * (one replica serves a single device) or a ShardedEngine fanning out
 * across M devices:
 *
 *   producers -> BoundedQueue (capacity + overflow policy)
 *             -> dispatcher threads (one per backend concurrency slot
 *                by default)
 *             -> QueryBackend (replicas / shards)
 *
 * It is the library's only concurrent serving front-end: the backends
 * start no serving threads of their own.
 *
 * @code
 *   auto engine = kernel.createAsyncServingEngine(setup_args, 4, {});
 *   std::future<core::ExecutionResult> f = engine->submit(args);
 *   engine->drain();                   // wait for everything accepted
 *   core::AsyncServingStats s = engine->stats();
 * @endcode
 *
 * Dynamic micro-batching: each dispatcher pops a *group* from the
 * queue -- one query when fewer than two are waiting, up to fuseMaxK
 * otherwise -- and serves a group of two or more as one fused pass
 * through the backend's serveFusedChunk primitive, which hands back
 * the per-query results the futures resolve with. Fused amortization
 * therefore kicks in automatically exactly when load builds up, and
 * single-query latency is not taxed when the system is idle.
 * Per-query outputs stay bit-identical to serial ExecutionSession
 * replay in both regimes, and under the default
 * sim::FusionModel::ExactSerial so do the per-query PerfReports (the
 * invariant the sync tests lock); under TrueFused, fused groups
 * honestly report their cheaper windows (drive charged once per
 * pass), so reports depend on group shape.
 *
 * Shutdown semantics: shutdown() (and the destructor) closes the
 * queue -- new submissions fail fast -- then lets the dispatchers
 * drain every already-accepted query before joining them. Accepted
 * work is never lost; every future eventually resolves.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/QueryBackend.h"
#include "support/BoundedQueue.h"
#include "support/Error.h"
#include "support/Stats.h"
#include "support/Trace.h"

namespace c4cam::core {

/**
 * A query refused by the admission layer (queue full under the
 * Reject policy, displaced by DropOldest, or the engine shutting
 * down) -- as opposed to a query that was accepted and then failed
 * during execution, which surfaces as a plain CompilerError. Callers
 * that shed load (benches, the CLI) catch this type specifically so
 * real execution failures are never silently counted as refusals.
 */
class AdmissionError : public CompilerError
{
  public:
    using CompilerError::CompilerError;
};

/**
 * A query shed because its enqueue wait exceeded the configured
 * deadline: the dispatcher found it already expired when it came off
 * the queue and refused to spend device time on an answer nobody is
 * waiting for. A subtype of AdmissionError (the query never reached a
 * device; load-shedding callers handle both the same way), but typed
 * so deadline sheds can be told apart from queue-full rejections.
 */
class DeadlineExceeded : public AdmissionError
{
  public:
    using AdmissionError::AdmissionError;
};

/** Admission / micro-batching knobs of the async front-end. */
struct AsyncServingOptions
{
    /** Submission-queue capacity (clamped to >= 1). */
    std::size_t queueCapacity = 64;

    /** What push() does when the queue is full. */
    support::OverflowPolicy policy = support::OverflowPolicy::Block;

    /** Max queries coalesced into one fused dispatch window; 1
     *  disables micro-batching. */
    int fuseMaxK = 8;

    /** Dispatcher thread count; 0 means one per backend concurrency
     *  slot (QueryBackend::concurrency()). */
    int dispatchers = 0;

    /**
     * Default per-query deadline in microseconds on the ENQUEUE WAIT:
     * a query still queued after this long is shed with a typed
     * DeadlineExceeded when a dispatcher pops it, before any device
     * work (admission-time check -- a query that started executing is
     * never abandoned mid-serve). 0 (the default) disables deadlines;
     * submit() can override per query.
     */
    std::int64_t deadlineUs = 0;

    /**
     * Span collector for per-query lifecycle tracing; nullptr (the
     * default) turns tracing off. When set, every query records
     * "admit" / "enqueue-wait" / "dispatch" / "deliver" spans under a
     * root "query" span here (plus the wrapped engine's "execute" /
     * "merge" children and per-group "fuse-decision" markers), with
     * the execute span carrying the device window's simulated
     * breakdown. Tracing is zero-overhead when off -- every tracing
     * site is a predictable null-check -- and never perturbs outputs
     * or PerfReports. The collector must outlive the engine.
     */
    support::TraceCollector *trace = nullptr;
};

/** Counters and latency percentiles of the async front-end. */
struct AsyncServingStats
{
    /** The wrapped backend's metrics (simulated aggregate, qps over
     *  served queries, execution-latency percentiles). */
    ServingStats serving;

    /// @name Admission counters (monotone; submitted is ticketed
    /// before the queue decides, so submitted >= accepted + rejected
    /// transiently and == at quiescence; accepted >= completed in
    /// every snapshot)
    /// @{
    std::int64_t submitted = 0; ///< submission attempts
    std::int64_t accepted = 0;  ///< entered the queue
    std::int64_t rejected = 0;  ///< refused at admission (Reject/closed)
    std::int64_t dropped = 0;   ///< displaced by DropOldest
    std::int64_t completed = 0; ///< completions delivered (ok or error)
    std::int64_t failed = 0;    ///< completions that carried an error
    /// @}

    /// @name Fault-tolerance counters
    /// @{
    /** Queries shed with DeadlineExceeded: their enqueue wait blew
     *  the deadline before a dispatcher could serve them. Counted in
     *  failed/completed too (every shed is a delivered error); also
     *  mirrored into serving.deadlineSheds. */
    std::int64_t deadlineSheds = 0;
    /** Per-query re-serves after a fused window aborted: the fallback
     *  path re-dispatched each member individually. Counts queries,
     *  not windows; distinct from serving.retries (the backend's
     *  transient-fault re-attempts). */
    std::int64_t fallbackRetries = 0;
    /// @}

    /// @name Micro-batching counters
    /// @{
    std::int64_t fusedWindows = 0;     ///< dispatch groups of >= 2
    std::int64_t fusedQueries = 0;     ///< queries served fused
    std::int64_t singleDispatches = 0; ///< groups of exactly 1
    /// @}

    std::size_t queueDepth = 0;    ///< current backlog
    std::size_t queueCapacity = 0; ///< configured bound

    /// @name Latency split per query (us): time waiting in the queue
    /// vs time executing on a replica. Computed over a bounded window
    /// of the most recent queries (the engine keeps no per-query
    /// history beyond it).
    /// @{
    double p50EnqueueWaitUs = 0.0;
    double p95EnqueueWaitUs = 0.0;
    double p50ExecuteUs = 0.0;
    double p95ExecuteUs = 0.0;
    /// @}
};

/**
 * Bounded-queue admission + dispatcher threads over a QueryBackend.
 *
 * Thread-safe throughout: any number of producer threads may call
 * submit()/submitBatch() concurrently with each other, with drain(),
 * with stats(), and with one shutdown() caller.
 */
class AsyncServingEngine
{
  public:
    /**
     * Take ownership of any synchronous backend (a ServingEngine, a
     * ShardedEngine, ...) and put the bounded queue + dispatchers in
     * front of it. Prefer CompiledKernel::createAsyncServingEngine()
     * for the replica-pool case, including one replica over a single
     * device.
     */
    AsyncServingEngine(std::unique_ptr<QueryBackend> backend,
                       AsyncServingOptions options = {});

    /** shutdown(): closes admissions, drains accepted work, joins. */
    ~AsyncServingEngine();

    AsyncServingEngine(const AsyncServingEngine &) = delete;
    AsyncServingEngine &operator=(const AsyncServingEngine &) = delete;

    /**
     * Enqueue one query; the future resolves with the result, or
     * rethrows the execution error, or rethrows the admission error
     * (queue rejected the query / a DropOldest displacement evicted
     * it / the engine shut down first). Argument-shape validation
     * happens here, synchronously, so malformed submissions fail on
     * the caller's stack, never inside a dispatcher. Under the Block
     * policy this call waits for queue space -- that wait IS the
     * backpressure. @p deadline_us overrides the engine-wide
     * AsyncServingOptions::deadlineUs for this query (0 = use the
     * engine default; negative = explicitly no deadline).
     */
    std::future<ExecutionResult> submit(std::vector<rt::BufferPtr> args,
                                        std::int64_t deadline_us = 0);

    /**
     * Future-flavored bulk submission, one future per query in input
     * order (admission errors surface through the futures). Every
     * query is validated before any is enqueued: a malformed query
     * anywhere in @p queries throws CompilerError here and nothing of
     * the batch is submitted or served.
     */
    std::vector<std::future<ExecutionResult>>
    submitBatch(const std::vector<std::vector<rt::BufferPtr>> &queries);

    /**
     * Wait until every submission accepted so far has completed (or
     * been dropped) and the queue is empty. Safe to call repeatedly
     * and concurrently with producers -- it waits for *their*
     * submissions too, so quiesce producers first if you want a
     * point-in-time barrier.
     */
    void drain();

    /**
     * Graceful stop: close admissions (pushes fail from now on),
     * serve everything already accepted, join the dispatchers.
     * Idempotent; concurrent submitters see rejections, never UB.
     */
    void shutdown();

    /** True once shutdown() has begun; submissions fail from then on. */
    bool shuttingDown() const;

    AsyncServingStats stats() const;

    /** The wrapped synchronous backend (stats introspection etc.). */
    QueryBackend &backend() { return *backend_; }
    const QueryBackend &backend() const { return *backend_; }

    int numDispatchers() const
    {
        return static_cast<int>(dispatchers_.size());
    }
    const AsyncServingOptions &options() const { return options_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One accepted query riding the queue. */
    struct Pending
    {
        std::vector<rt::BufferPtr> args;
        std::promise<ExecutionResult> promise;
        Clock::time_point enqueued;
        /** Effective enqueue-wait deadline (us); <= 0 = none.
         *  Resolved at submission (per-query override or the engine
         *  default), so the dispatcher just compares. */
        std::int64_t deadlineUs = 0;

        /// @name Tracing (zero / epoch when tracing is off)
        /// @{
        std::uint64_t queryId = 0;
        std::uint64_t rootSpan = 0;
        Clock::time_point admitStart; ///< submit-entry timestamp
        /// @}
    };

    /** Admit one already-validated query: ticket it, push it onto
     *  the queue and return its future. @p deadline_us as in
     *  submit(); @p admit_start opens its "admit" span. */
    std::future<ExecutionResult> enqueue(std::vector<rt::BufferPtr> args,
                                         std::int64_t deadline_us,
                                         Clock::time_point admit_start);
    void dispatchLoop();
    /** @p dispatch_done, when not the epoch default, additionally
     *  records a "deliver" span from that timestamp to now (the
     *  dispatcher path); admission-time deliveries pass nothing. */
    void deliver(Pending &pending, ExecutionResult result,
                 Clock::time_point dispatch_done = {});
    void deliverError(Pending &pending, std::exception_ptr error,
                      Clock::time_point dispatch_done = {});
    /** Record the root "query" span (and optional "deliver" child)
     *  for a completing pending; no-op when tracing is off. */
    void recordCompletionSpans(const Pending &pending,
                               Clock::time_point dispatch_done);
    void recordLatency(double wait_us, double exec_us);
    void notifyProgress();

    std::unique_ptr<QueryBackend> backend_;
    AsyncServingOptions options_;
    support::BoundedQueue<Pending> queue_;

    /** Trace id grouping every span of this engine (0 = tracing off;
     *  shared with the wrapped backend's execute/merge spans). */
    std::uint64_t traceId_ = 0;

    /// @name Monotone counters (atomic: read by stats(), bumped from
    /// producer and dispatcher threads)
    /// @{
    std::atomic<std::int64_t> submitted_{0};
    std::atomic<std::int64_t> accepted_{0};
    std::atomic<std::int64_t> rejected_{0};
    std::atomic<std::int64_t> dropped_{0};
    std::atomic<std::int64_t> completed_{0};
    std::atomic<std::int64_t> failed_{0};
    std::atomic<std::int64_t> fusedWindows_{0};
    std::atomic<std::int64_t> fusedQueries_{0};
    std::atomic<std::int64_t> singleDispatches_{0};
    std::atomic<std::int64_t> deadlineSheds_{0};
    std::atomic<std::int64_t> fallbackRetries_{0};
    /// @}

    /// @name Latency samples (guarded by latencyMutex_)
    ///
    /// Bounded windows over the most recent queries
    /// (support::LatencyWindow): a long-lived engine must not grow
    /// memory per query served (that is the whole point of the
    /// bounded queue), and stats() sorts the window, so the window
    /// also caps the per-poll cost. Percentiles therefore describe
    /// the most recent queries -- the operationally interesting view
    /// for a serving dashboard.
    /// @{
    mutable std::mutex latencyMutex_;
    support::LatencyWindow enqueueWaitsUs_;
    support::LatencyWindow executeUs_;
    /// @}

    /// @name Drain/shutdown coordination
    /// @{
    mutable std::mutex stateMutex_;
    std::condition_variable progress_;
    std::atomic<bool> shutdown_{false};
    /** Serializes close+join; makes shutdown() idempotent under races. */
    std::mutex shutdownMutex_;
    /// @}

    /** Declared last so the loop threads die before the members they
     *  touch (join happens in shutdown(), called by the destructor). */
    std::vector<std::thread> dispatchers_;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_ASYNCSERVINGENGINE_H
