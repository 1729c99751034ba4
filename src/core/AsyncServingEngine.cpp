#include "core/AsyncServingEngine.h"

#include <algorithm>
#include <utility>

#include "support/Error.h"
#include "support/Stats.h"

namespace c4cam::core {

namespace {

/** Queue depth at which dispatchers start coalescing (below it every
 *  dispatch is a single query). */
constexpr std::size_t kFuseMinDepth = 2;

std::exception_ptr
admissionError(const char *what)
{
    return std::make_exception_ptr(AdmissionError(what));
}

} // namespace

AsyncServingEngine::AsyncServingEngine(std::unique_ptr<QueryBackend> backend,
                                       AsyncServingOptions options)
    : backend_(std::move(backend)), options_(options),
      queue_(options.queueCapacity == 0 ? 1 : options.queueCapacity,
             options.policy)
{
    C4CAM_CHECK(backend_, "AsyncServingEngine needs a QueryBackend");
    options_.queueCapacity = queue_.capacity();
    if (options_.trace) {
        // One trace id spans the whole stack: the async layer's
        // admit/wait/dispatch spans and the wrapped backend's
        // execute/merge spans group under it.
        traceId_ = options_.trace->newTraceId();
        backend_->enableTracing(options_.trace, traceId_);
    }
    options_.fuseMaxK = std::max(options_.fuseMaxK, 1);
    int dispatchers = options_.dispatchers > 0 ? options_.dispatchers
                                               : backend_->concurrency();
    options_.dispatchers = dispatchers;
    dispatchers_.reserve(static_cast<std::size_t>(dispatchers));
    for (int i = 0; i < dispatchers; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

AsyncServingEngine::~AsyncServingEngine()
{
    shutdown();
}

void
AsyncServingEngine::shutdown()
{
    shutdown_.store(true);
    // One caller closes and joins; concurrent callers block here until
    // the teardown finished, so shutdown() is idempotent and safe to
    // race (including destructor vs explicit call).
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    queue_.close();
    for (std::thread &t : dispatchers_)
        if (t.joinable())
            t.join();
}

bool
AsyncServingEngine::shuttingDown() const
{
    return shutdown_.load();
}

std::future<ExecutionResult>
AsyncServingEngine::enqueue(std::vector<rt::BufferPtr> args,
                            std::int64_t deadline_us,
                            Clock::time_point admit_start)
{
    Pending pending;
    pending.admitStart = admit_start;
    pending.args = std::move(args);
    pending.deadlineUs =
        deadline_us != 0 ? deadline_us : options_.deadlineUs;
    std::future<ExecutionResult> future = pending.promise.get_future();
    submitted_.fetch_add(1);
    support::TraceCollector *col = options_.trace;
    if (col) {
        pending.queryId = col->newQueryId();
        pending.rootSpan = col->newSpanId();
    }
    pending.enqueued = Clock::now();
    // Copies for the admit span: the push may move pending away (and
    // under the Block policy the push-wait is enqueue-wait time, so
    // the admit span closes at the pre-push `enqueued` stamp).
    const std::uint64_t query_id = pending.queryId;
    const std::uint64_t root_span = pending.rootSpan;
    const Clock::time_point admit_end = pending.enqueued;
    auto result = queue_.push(std::move(pending));
    switch (result.status) {
    case support::BoundedQueue<Pending>::PushStatus::Ok:
        accepted_.fetch_add(1);
        if (col) {
            support::TraceEvent admit;
            admit.name = "admit";
            admit.traceId = traceId_;
            admit.queryId = query_id;
            admit.spanId = col->newSpanId();
            admit.parentSpanId = root_span;
            admit.startUs = col->toUs(admit_start);
            admit.durUs = col->toUs(admit_end) - admit.startUs;
            col->record(admit);
        }
        if (result.displaced) {
            // DropOldest evicted the stalest queued query to admit
            // this one; its submitter still gets a completion.
            dropped_.fetch_add(1);
            deliverError(*result.displaced,
                         admissionError("query dropped: drop-oldest "
                                        "overflow displaced it from the "
                                        "submission queue"));
        }
        break;
    case support::BoundedQueue<Pending>::PushStatus::Rejected:
    case support::BoundedQueue<Pending>::PushStatus::Closed: {
        // Never entered the queue: count as rejected (not completed),
        // and resolve the submission's future with the admission error.
        rejected_.fetch_add(1);
        if (result.returned)
            result.returned->promise.set_exception(admissionError(
                result.status ==
                        support::BoundedQueue<Pending>::PushStatus::Closed
                    ? "query rejected: async serving engine is "
                      "shutting down"
                    : "query rejected: submission queue is full "
                      "(reject policy)"));
        notifyProgress();
        break;
    }
    }
    return future;
}

std::future<ExecutionResult>
AsyncServingEngine::submit(std::vector<rt::BufferPtr> args,
                           std::int64_t deadline_us)
{
    // The admit span opens at submit entry: validation is admission
    // work and belongs to it.
    Clock::time_point admit_start = Clock::now();
    // Fail malformed submissions on the caller's stack, before they
    // consume a queue slot.
    backend_->validateQuery(args);
    return enqueue(std::move(args), deadline_us, admit_start);
}

std::vector<std::future<ExecutionResult>>
AsyncServingEngine::submitBatch(
    const std::vector<std::vector<rt::BufferPtr>> &queries)
{
    // Validate the whole batch first: a malformed query must fail
    // before any of its batch-mates is enqueued, or the caller would
    // lose the futures of queries that are already being served.
    for (const auto &args : queries)
        backend_->validateQuery(args);
    std::vector<std::future<ExecutionResult>> futures;
    futures.reserve(queries.size());
    for (const auto &args : queries)
        futures.push_back(enqueue(args, 0, Clock::now()));
    return futures;
}

void
AsyncServingEngine::recordCompletionSpans(const Pending &pending,
                                          Clock::time_point dispatch_done)
{
    // Recorded after the fulfillment but BEFORE the completed_ bump:
    // once drain() returns, every delivered query's spans are already
    // in the collector.
    support::TraceCollector *col = options_.trace;
    if (!col || pending.rootSpan == 0)
        return;
    Clock::time_point now = Clock::now();
    double now_us = col->toUs(now);
    if (dispatch_done != Clock::time_point{}) {
        support::TraceEvent del;
        del.name = "deliver";
        del.traceId = traceId_;
        del.queryId = pending.queryId;
        del.spanId = col->newSpanId();
        del.parentSpanId = pending.rootSpan;
        del.startUs = col->toUs(dispatch_done);
        del.durUs = now_us - del.startUs;
        col->record(del);
    }
    support::TraceEvent root;
    root.name = "query";
    root.traceId = traceId_;
    root.queryId = pending.queryId;
    root.spanId = pending.rootSpan;
    root.startUs = col->toUs(pending.admitStart);
    root.durUs = now_us - root.startUs;
    col->record(root);
}

void
AsyncServingEngine::deliver(Pending &pending, ExecutionResult result,
                            Clock::time_point dispatch_done)
{
    // Fulfill BEFORE counting: completed_ is what drain() waits on,
    // and once it covers every ticket the corresponding futures must
    // already be ready -- counting first would let drain() return
    // while a future is still being set.
    pending.promise.set_value(std::move(result));
    recordCompletionSpans(pending, dispatch_done);
    completed_.fetch_add(1);
    notifyProgress();
}

void
AsyncServingEngine::deliverError(Pending &pending, std::exception_ptr error,
                                 Clock::time_point dispatch_done)
{
    pending.promise.set_exception(error);
    recordCompletionSpans(pending, dispatch_done);
    failed_.fetch_add(1);
    completed_.fetch_add(1);
    notifyProgress();
}

void
AsyncServingEngine::notifyProgress()
{
    // The empty critical section is load-bearing: it orders this
    // notification after any drain() that already evaluated its
    // predicate and is about to sleep, closing the lost-wakeup window
    // between a waiter's atomic reads and its wait() call. Keep the
    // lock/notify pairing together -- dropping the "pointless" lock
    // reintroduces the race.
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
    }
    progress_.notify_all();
}

void
AsyncServingEngine::recordLatency(double wait_us, double exec_us)
{
    std::lock_guard<std::mutex> lock(latencyMutex_);
    enqueueWaitsUs_.record(wait_us);
    executeUs_.record(exec_us);
}

void
AsyncServingEngine::dispatchLoop()
{
    support::TraceCollector *col = options_.trace;
    // Dispatchers are the hot path: spans batch through a per-thread
    // recorder and hit the collector mutex once per batch. (With
    // tracing off the recorder is a null-check no-op.)
    support::SpanRecorder recorder(col);
    std::vector<support::SpanContext> ctxs;

    std::vector<Pending> group;
    for (;;) {
        group.clear();
        std::size_t n = queue_.popGroup(
            group, static_cast<std::size_t>(options_.fuseMaxK),
            kFuseMinDepth);
        if (n == 0)
            return; // closed and drained
        Clock::time_point popped = Clock::now();

        // Deadline shedding, decided the moment the group comes off
        // the queue: a query whose enqueue wait already blew its
        // deadline is delivered a typed DeadlineExceeded instead of
        // burning device time. The check sits BEFORE dispatch (never
        // mid-serve), so a query that starts executing always runs to
        // completion.
        {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < n; ++i) {
                Pending &p = group[i];
                if (p.deadlineUs > 0 &&
                    std::chrono::duration<double, std::micro>(
                        popped - p.enqueued)
                            .count() >
                        static_cast<double>(p.deadlineUs)) {
                    deadlineSheds_.fetch_add(1);
                    deliverError(
                        p,
                        std::make_exception_ptr(DeadlineExceeded(
                            "query shed: enqueue wait exceeded its "
                            "deadline of " +
                            std::to_string(p.deadlineUs) + " us")),
                        popped);
                } else {
                    if (kept != i)
                        group[kept] = std::move(p);
                    ++kept;
                }
            }
            group.resize(kept);
            n = kept;
        }
        if (n == 0)
            continue; // the whole group expired in the queue

        if (col) {
            // One dispatch span per query (every fused member
            // experienced the whole window); the engine's execute
            // span parents under it via the per-query context.
            ctxs.clear();
            ctxs.reserve(n);
            for (const Pending &p : group)
                ctxs.push_back(support::SpanContext{
                    col, traceId_, p.queryId, col->newSpanId()});
            support::TraceEvent decision;
            decision.name = "fuse-decision";
            decision.traceId = traceId_;
            decision.queryId = group[0].queryId;
            decision.spanId = col->newSpanId();
            decision.startUs = col->toUs(popped);
            decision.durUs = 0.0;
            decision.fusedK =
                n >= 2 ? static_cast<std::int64_t>(n) : 0;
            recorder.record(decision);
        }

        // Execute first, collect the per-query outcomes, THEN record
        // latency and deliver. Delivery must come last: the moment a
        // completion fires, drain() may observe the engine idle and
        // stats() must already contain this group's samples.
        std::vector<ExecutionResult> results(n);
        std::vector<std::exception_ptr> errors(n);
        bool fused_ok = false;
        if (n >= 2) {
            std::vector<std::vector<rt::BufferPtr>> qargs;
            qargs.reserve(n);
            for (const Pending &p : group)
                qargs.push_back(p.args);
            // Args were validated at admission; dispatch through the
            // backend's non-revalidating primitives.
            try {
                results = backend_->serveFusedChunk(
                    qargs, col ? &ctxs : nullptr);
                fusedWindows_.fetch_add(1);
                fusedQueries_.fetch_add(static_cast<std::int64_t>(n));
                fused_ok = true;
            } catch (...) {
                // The fused window aborted (one query poisoned it)
                // and recorded nothing in the engine stats. Re-serve
                // each query alone so its window-mates still succeed;
                // only the actually-broken ones fail. The group
                // counts as single dispatches -- that is how it was
                // ultimately served.
                singleDispatches_.fetch_add(static_cast<std::int64_t>(n));
                fallbackRetries_.fetch_add(static_cast<std::int64_t>(n));
                for (std::size_t i = 0; i < n; ++i) {
                    try {
                        results[i] = backend_->serve(
                            group[i].args, col ? &ctxs[i] : nullptr);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            }
        } else {
            singleDispatches_.fetch_add(1);
            try {
                results[0] = backend_->serve(group[0].args,
                                            col ? &ctxs[0] : nullptr);
            } catch (...) {
                errors[0] = std::current_exception();
            }
        }

        Clock::time_point done = Clock::now();
        // The execute figure is the dispatch-window wall time: for a
        // fused group every member experienced the whole window (its
        // completion waited for it), so each query records the full
        // window duration, mirroring what a caller would measure.
        double exec_us =
            std::chrono::duration<double, std::micro>(done - popped)
                .count();
        for (const Pending &p : group) {
            double wait_us = std::chrono::duration<double, std::micro>(
                                 popped - p.enqueued)
                                 .count();
            recordLatency(wait_us, exec_us);
        }

        if (col) {
            double popped_us = col->toUs(popped);
            double done_us = col->toUs(done);
            for (std::size_t i = 0; i < n; ++i) {
                const Pending &p = group[i];
                support::TraceEvent wait;
                wait.name = "enqueue-wait";
                wait.traceId = traceId_;
                wait.queryId = p.queryId;
                wait.spanId = col->newSpanId();
                wait.parentSpanId = p.rootSpan;
                wait.startUs = col->toUs(p.enqueued);
                wait.durUs = popped_us - wait.startUs;
                recorder.record(wait);

                support::TraceEvent dispatch;
                dispatch.name = "dispatch";
                dispatch.traceId = traceId_;
                dispatch.queryId = p.queryId;
                dispatch.spanId = ctxs[i].parentSpanId;
                dispatch.parentSpanId = p.rootSpan;
                dispatch.startUs = popped_us;
                dispatch.durUs = done_us - popped_us;
                dispatch.fusedK =
                    fused_ok ? static_cast<std::int64_t>(n) : 0;
                recorder.record(dispatch);
            }
            // Flush before delivering: once a completion fires (and
            // certainly once drain() returns) this group's spans must
            // be visible in the collector.
            recorder.flush();
        }

        for (std::size_t i = 0; i < n; ++i) {
            if (errors[i])
                deliverError(group[i], errors[i], done);
            else
                deliver(group[i], std::move(results[i]), done);
        }
    }
}

void
AsyncServingEngine::drain()
{
    std::unique_lock<std::mutex> lock(stateMutex_);
    progress_.wait(lock, [this] {
        // Everything ticketed has been resolved one way or another
        // (completed, dropped via displacement -- already counted in
        // completed_ -- or rejected at admission) and nothing is
        // queued or mid-dispatch.
        return queue_.size() == 0 &&
               completed_.load() + rejected_.load() >= submitted_.load();
    });
}

AsyncServingStats
AsyncServingEngine::stats() const
{
    AsyncServingStats stats;
    stats.serving = backend_->stats();
    // Read outcome counters BEFORE the ticket counters: every outcome
    // (completion, rejection, drop) is preceded by its submission
    // ticket, so sampling outcomes first and tickets last guarantees
    // the conservation invariant completed + rejected <= submitted in
    // every snapshot, even one torn across a running storm. The
    // reverse order can observe a completion whose ticket was counted
    // after submitted_ was read.
    stats.failed = failed_.load();
    stats.dropped = dropped_.load();
    stats.completed = completed_.load();
    stats.rejected = rejected_.load();
    stats.fusedWindows = fusedWindows_.load();
    stats.fusedQueries = fusedQueries_.load();
    stats.singleDispatches = singleDispatches_.load();
    stats.deadlineSheds = deadlineSheds_.load();
    stats.fallbackRetries = fallbackRetries_.load();
    // The backend never sees a shed query; mirror the count into the
    // serving view so one ServingStats snapshot carries the full
    // fault-tolerance story (retries/quarantines come from below).
    stats.serving.deadlineSheds = stats.deadlineSheds;
    stats.accepted = accepted_.load();
    stats.submitted = submitted_.load();
    stats.queueDepth = queue_.size();
    stats.queueCapacity = queue_.capacity();
    // accepted_ is bumped by the producer AFTER the push, so a
    // dispatcher can race a whole serve in between and completed_
    // would transiently exceed it. Every completed query was by
    // definition accepted, so clamping keeps the documented
    // accepted >= completed invariant in every snapshot (and stays
    // monotone: both inputs only grow).
    stats.accepted = std::max(stats.accepted, stats.completed);

    std::vector<double> waits;
    std::vector<double> execs;
    {
        std::lock_guard<std::mutex> lock(latencyMutex_);
        waits = enqueueWaitsUs_.sorted();
        execs = executeUs_.sorted();
    }
    stats.p50EnqueueWaitUs = support::percentile(waits, 50.0);
    stats.p95EnqueueWaitUs = support::percentile(waits, 95.0);
    stats.p50ExecuteUs = support::percentile(execs, 50.0);
    stats.p95ExecuteUs = support::percentile(execs, 95.0);
    return stats;
}

} // namespace c4cam::core
