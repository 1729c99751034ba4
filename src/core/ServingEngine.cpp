#include "core/ServingEngine.h"

#include <algorithm>
#include <thread>

#include "sim/FaultInjector.h"
#include "support/Backoff.h"
#include "support/Error.h"

namespace c4cam::core {

using Clock = std::chrono::steady_clock;

/** Cap on the doubling retry backoff, and the seed of its
 *  deterministic jitter (support/Backoff.h). */
constexpr std::int64_t kMaxBackoffUs = 10'000;
constexpr std::uint64_t kBackoffJitterSeed = 0xBACC0FFull;

class ServingEngine::Lease
{
  public:
    explicit Lease(ServingEngine &engine) : engine_(engine)
    {
        std::unique_lock<std::mutex> lock(engine_.replicaMutex_);
        engine_.replicaFree_.wait(
            lock, [this] { return !engine_.freeReplicas_.empty(); });
        session_ = engine_.freeReplicas_.back();
        engine_.freeReplicas_.pop_back();
    }

    ~Lease()
    {
        {
            std::lock_guard<std::mutex> lock(engine_.replicaMutex_);
            engine_.freeReplicas_.push_back(session_);
        }
        engine_.replicaFree_.notify_one();
    }

    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

    ExecutionSession *operator->() const { return session_; }

  private:
    ServingEngine &engine_;
    ExecutionSession *session_ = nullptr;
};

ServingEngine::ServingEngine(ExecutionSession master, int replicas)
    : recorder_(master.setupReport())
{
    C4CAM_CHECK(replicas >= 1,
                "ServingEngine needs at least 1 replica, got " << replicas);
    // The engine records every span itself; a traced master would
    // double-root its queries.
    master.enableTracing(nullptr);
    replicas_.push_back(
        std::make_unique<ExecutionSession>(std::move(master)));
    for (int i = 1; i < replicas; ++i)
        replicas_.push_back(
            std::make_unique<ExecutionSession>(replicas_[0]->clone()));
    freeReplicas_.reserve(replicas_.size());
    for (auto &replica : replicas_)
        freeReplicas_.push_back(replica.get());
}

void
ServingEngine::attachFaultInjector(
    std::shared_ptr<sim::FaultInjector> injector)
{
    for (auto &replica : replicas_)
        if (sim::CamDevice *device = replica->device())
            device->attachFaultInjector(injector);
}

ExecutionResult
ServingEngine::serve(const std::vector<rt::BufferPtr> &args,
                     const support::SpanContext *ctx)
{
    // Sync serving with engine tracing on: this call owns the query's
    // root span. The async front-end passes its own per-query context
    // (parenting under its dispatch span) and owns the root instead.
    support::SpanContext root;
    bool own_root = recorder_.openRoot(ctx, root);
    Clock::time_point start = Clock::now();
    // Record the root span on every exit (the failed attempts may have
    // recorded execute spans under it; an unresolvable parent would
    // fail c4cam-trace-check on an otherwise complete trace).
    auto record_root = [&](Clock::time_point done) {
        if (own_root)
            ServingRecorder::recordRoot(root, root.collector->toUs(start),
                                        root.collector->toUs(done));
    };

    ExecutionResult result;
    const int max_attempts = std::max(1, retryPolicy_.maxAttempts);
    for (int attempt = 1;; ++attempt) {
        try {
            // The replica rolls its own window back on a throw, so it
            // goes back on the free-list servable either way.
            Lease replica(*this);
            result = replica->serve(args, ctx);
            break;
        } catch (const sim::TransientFault &) {
            if (attempt >= max_attempts) {
                record_root(Clock::now());
                throw;
            }
            retries_.fetch_add(1, std::memory_order_relaxed);
            if (ctx && ctx->collector) {
                support::TraceCollector *col = ctx->collector;
                support::TraceEvent retry;
                retry.name = "retry";
                retry.traceId = ctx->traceId;
                retry.queryId = ctx->queryId;
                retry.spanId = col->newSpanId();
                retry.parentSpanId = ctx->parentSpanId;
                retry.startUs = col->nowUs();
                retry.durUs = 0.0;
                col->record(retry);
            }
            std::int64_t delay_us = support::backoffDelayUs(
                retryPolicy_.backoffUs, attempt, kMaxBackoffUs,
                kBackoffJitterSeed);
            if (delay_us > 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(delay_us));
        } catch (...) {
            // Permanent (ExecutionError / PermanentFault) or
            // programmatic failure: never retried.
            record_root(Clock::now());
            throw;
        }
    }
    Clock::time_point done = Clock::now();
    recorder_.record(result.perf, start, done);
    record_root(done);
    return result;
}

std::vector<ExecutionResult>
ServingEngine::serveFusedChunk(
    const std::vector<std::vector<rt::BufferPtr>> &queries,
    const std::vector<support::SpanContext> *ctxs)
{
    // Sync fused serving with engine tracing on: own one root span per
    // query of the chunk (the async front-end passes @p ctxs and owns
    // its roots itself).
    std::vector<support::SpanContext> roots;
    recorder_.openRoots(ctxs, roots, queries.size());
    Clock::time_point start = Clock::now();
    auto record_roots = [&](Clock::time_point done) {
        for (const support::SpanContext &root : roots)
            ServingRecorder::recordRoot(
                root, root.collector->toUs(start),
                root.collector->toUs(done),
                static_cast<std::int64_t>(queries.size()));
    };

    std::vector<ExecutionResult> results;
    try {
        Lease replica(*this);
        results = replica->serveFusedChunk(queries, ctxs);
    } catch (...) {
        // Nothing is recorded for a failed chunk, so a caller that
        // retries the queries individually (the async front-end's
        // fallback) does not double-count the ones that ran before
        // the failure. Owned roots still close: their children may
        // already be in the trace.
        record_roots(Clock::now());
        throw;
    }
    Clock::time_point done = Clock::now();
    recorder_.recordChunk(results, start, done);
    record_roots(done);
    return results;
}

ServingStats
ServingEngine::stats() const
{
    ServingStats stats = recorder_.stats();
    stats.retries = retries_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace c4cam::core
