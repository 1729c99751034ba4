#include "core/ServingRecorder.h"

namespace c4cam::core {

ServingRecorder::ServingRecorder(const sim::PerfReport &setup)
    : aggregate_(setup)
{
}

void
ServingRecorder::enableTracing(support::TraceCollector *collector,
                               std::uint64_t trace_id)
{
    trace_ = collector;
    if (!collector)
        traceId_ = 0;
    else
        traceId_ = trace_id != 0 ? trace_id : collector->newTraceId();
}

bool
ServingRecorder::openRoot(const support::SpanContext *&ctx,
                          support::SpanContext &root) const
{
    if (ctx || !trace_)
        return false;
    root = support::SpanContext{trace_, traceId_, trace_->newQueryId(),
                                trace_->newSpanId()};
    ctx = &root;
    return true;
}

bool
ServingRecorder::openRoots(const std::vector<support::SpanContext> *&ctxs,
                           std::vector<support::SpanContext> &roots,
                           std::size_t n) const
{
    if (ctxs || !trace_)
        return false;
    roots.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        roots.push_back(support::SpanContext{
            trace_, traceId_, trace_->newQueryId(), trace_->newSpanId()});
    ctxs = &roots;
    return true;
}

void
ServingRecorder::recordRoot(const support::SpanContext &root,
                            double start_us, double end_us,
                            std::int64_t fused_k)
{
    support::TraceEvent ev;
    ev.name = "query";
    ev.traceId = root.traceId;
    ev.queryId = root.queryId;
    ev.spanId = root.parentSpanId; // the root's own id
    ev.startUs = start_us;
    ev.durUs = end_us - start_us;
    ev.fusedK = fused_k;
    root.collector->record(ev);
}

void
ServingRecorder::recordLocked(const sim::PerfReport &perf,
                              Clock::time_point start,
                              Clock::time_point done)
{
    aggregate_.addQueryWindow(perf);
    latenciesUs_.record(
        std::chrono::duration<double, std::micro>(done - start).count());
    if (queriesServed_ == 0 || start < firstSubmit_)
        firstSubmit_ = start;
    if (queriesServed_ == 0 || done > lastDone_)
        lastDone_ = done;
    ++queriesServed_;
}

void
ServingRecorder::record(const sim::PerfReport &perf,
                        Clock::time_point start, Clock::time_point done)
{
    std::lock_guard<std::mutex> lock(mutex_);
    recordLocked(perf, start, done);
}

void
ServingRecorder::recordChunk(const std::vector<ExecutionResult> &results,
                             Clock::time_point start,
                             Clock::time_point done)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const ExecutionResult &r : results)
        recordLocked(r.perf, start, done);
}

std::int64_t
ServingRecorder::queriesServed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queriesServed_;
}

sim::PerfReport
ServingRecorder::aggregate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    sim::PerfReport report = aggregate_;
    report.queriesServed = queriesServed_;
    return report;
}

ServingStats
ServingRecorder::stats() const
{
    ServingStats stats;
    std::vector<double> sorted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats.queriesServed = queriesServed_;
        stats.aggregate = aggregate_;
        stats.aggregate.queriesServed = queriesServed_;
        if (queriesServed_ > 0)
            stats.wallSeconds =
                std::chrono::duration<double>(lastDone_ - firstSubmit_)
                    .count();
        sorted = latenciesUs_.sorted();
    }
    if (stats.wallSeconds > 0.0)
        stats.qps = static_cast<double>(stats.queriesServed) /
                    stats.wallSeconds;
    stats.p50LatencyUs = support::percentile(sorted, 50.0);
    stats.p95LatencyUs = support::percentile(sorted, 95.0);
    stats.planCache = PlanCache::instance().stats();
    return stats;
}

} // namespace c4cam::core
