#ifndef C4CAM_SUPPORT_TRACE_H
#define C4CAM_SUPPORT_TRACE_H

/**
 * @file
 * Per-query span tracing for the serving stack.
 *
 * Aggregate p50/p95 figures (support::Stats) say *that* a query was
 * slow; spans say *why*: the serving layers stamp one TraceEvent per
 * lifecycle stage (admit, enqueue-wait, dispatch, execute, merge, ...)
 * and the simulator attaches the per-window simulated breakdown to the
 * execute span, so wall-clock and simulated time live in one record.
 *
 * Pieces:
 *  - TraceEvent: one completed span (ids + wall-clock interval +
 *    optional simulated breakdown).
 *  - TraceCollector: bounded ring buffer of events shared by every
 *    layer of one serving stack; hands out trace/query/span ids and
 *    owns the wall-clock epoch. Oldest events are overwritten when the
 *    ring is full (a long-lived engine must not grow memory per query
 *    served); `dropped()` counts the overwrites.
 *  - SpanRecorder: per-thread batching front of the collector. Hot
 *    paths (dispatcher loops) record into a local vector and pay one
 *    collector mutex acquisition per batch, not per span.
 *  - SpanContext: the (collector, trace, query, parent-span) tuple
 *    threaded through the layers. A default-constructed context has a
 *    null collector; every tracing call site checks `enabled()` first
 *    and the check inlines to one predictable branch, so tracing is
 *    zero-overhead when off -- no engine option flips behavior at a
 *    distance, absence of a collector IS the off switch.
 *
 * Export: toJson() renders one document that is simultaneously a
 * Chrome `trace_event` file (a top-level "traceEvents" array of "X"
 * phase events -- extra top-level keys are permitted by that format
 * and ignored by chrome://tracing / Perfetto) and a compact spans
 * array ("spans") carrying the full id/sim payload for programmatic
 * consumers (c4cam-trace-check, bench_serving_throughput --replay).
 *
 * Threading: TraceCollector is fully thread-safe; a SpanRecorder
 * belongs to exactly one thread. Recording never throws and never
 * blocks on anything but the collector mutex.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace c4cam {
class JsonValue;
}

namespace c4cam::support {

/** One completed span: ids, wall-clock interval, optional sim data. */
struct TraceEvent
{
    /** Span name; must point at static-lifetime storage (the serving
     *  layers pass string literals -- recording must not allocate). */
    const char *name = "";

    std::uint64_t traceId = 0;      ///< one serving stack / session
    std::uint64_t queryId = 0;      ///< one query's lifecycle (0 = none)
    std::uint64_t spanId = 0;       ///< this span
    std::uint64_t parentSpanId = 0; ///< enclosing span (0 = root)

    /** Small per-thread ordinal (Chrome "tid"); 0 means "fill in at
     *  record time with the calling thread's ordinal". */
    std::uint32_t tid = 0;

    /// @name Wall-clock interval, microseconds since the collector's
    /// epoch (TraceCollector::nowUs / toUs)
    /// @{
    double startUs = 0.0;
    double durUs = 0.0;
    /// @}

    /// @name Simulated per-window breakdown (valid when hasSim; set by
    /// sim::attachWindowBreakdown on execute spans)
    /// @{
    bool hasSim = false;
    double simQueryLatencyNs = 0.0;
    double simQueryEnergyPj = 0.0;
    double simCellEnergyPj = 0.0;
    double simSenseEnergyPj = 0.0;
    double simDriveEnergyPj = 0.0;
    double simMergeEnergyPj = 0.0;
    double simSetupLatencyNs = 0.0;
    double simSetupEnergyPj = 0.0;
    std::int64_t simSearches = 0;
    /// @}

    /** Fused-dispatch width this span rode in (0 = not fused). */
    std::int64_t fusedK = 0;
};

/**
 * Bounded ring buffer of TraceEvents plus the id/epoch authority for
 * one traced serving stack. Thread-safe throughout.
 */
class TraceCollector
{
  public:
    /** @p capacity is clamped to >= 1. */
    explicit TraceCollector(std::size_t capacity = 65536);

    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const;

    /** Events overwritten because the ring was full. */
    std::int64_t dropped() const;

    /// @name Id allocation (monotone from 1; 0 everywhere means "none")
    /// @{
    std::uint64_t newTraceId() { return nextTraceId_.fetch_add(1); }
    std::uint64_t newQueryId() { return nextQueryId_.fetch_add(1); }
    std::uint64_t newSpanId() { return nextSpanId_.fetch_add(1); }
    /// @}

    /** Microseconds since this collector's construction. */
    double nowUs() const { return toUs(std::chrono::steady_clock::now()); }

    /** Convert a caller-taken timestamp to epoch-relative us. All
     *  layers stamp with the same clock, so span intervals built from
     *  shared time points telescope exactly. The result is a whole
     *  number of 1/1024 us ticks (just under 1 ns): differences and
     *  sums of such values are exact doubles, so a span's start plus
     *  its duration lands bit for bit on the next span's start. */
    double
    toUs(std::chrono::steady_clock::time_point tp) const
    {
        double ns =
            std::chrono::duration<double, std::nano>(tp - epoch_).count();
        return std::floor(ns * 1.024) / 1024.0;
    }

    /** Append one event (one mutex acquisition). */
    void record(TraceEvent ev);

    /** Append a batch and clear @p events (one mutex acquisition for
     *  the whole batch -- the SpanRecorder drain path). */
    void recordBatch(std::vector<TraceEvent> &events);

    /** Copy of the buffered events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Full trace document: {"schema": "c4cam-trace-v1", "spans":
     * [...], "traceEvents": [...], "dropped": N}. Loadable directly in
     * chrome://tracing (which reads "traceEvents" and ignores the
     * rest) and by compact-span consumers (which read "spans").
     */
    JsonValue toJson() const;

    /** Write toJson() to @p path; false (no throw) on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    /** Requires mutex_ held. */
    std::uint32_t threadOrdinalLocked();
    void recordLocked(TraceEvent &&ev);

    const std::size_t capacity_;
    const std::chrono::steady_clock::time_point epoch_;

    std::atomic<std::uint64_t> nextTraceId_{1};
    std::atomic<std::uint64_t> nextQueryId_{1};
    std::atomic<std::uint64_t> nextSpanId_{1};

    mutable std::mutex mutex_;
    std::vector<TraceEvent> ring_; ///< grows to capacity_, then wraps
    std::size_t next_ = 0;         ///< overwrite cursor once full
    std::int64_t dropped_ = 0;
    std::unordered_map<std::thread::id, std::uint32_t> threadOrdinals_;
};

/**
 * The tracing handle threaded through the serving layers: which
 * collector (null = tracing off), which trace/query, and the span the
 * next layer should parent under. Plain value type; copying is two
 * pointers wide.
 */
struct SpanContext
{
    TraceCollector *collector = nullptr;
    std::uint64_t traceId = 0;
    std::uint64_t queryId = 0;
    std::uint64_t parentSpanId = 0;

    /** The zero-overhead-off check every tracing site makes first. */
    bool enabled() const { return collector != nullptr; }
};

/**
 * Per-thread batching recorder: spans land in a local vector and are
 * flushed to the collector in batches, so a dispatcher's hot loop pays
 * one mutex acquisition per batch. With a null collector every call is
 * an inlined early-return no-op.
 */
class SpanRecorder
{
  public:
    SpanRecorder() = default; ///< disabled recorder

    explicit SpanRecorder(TraceCollector *collector,
                          std::size_t batchCapacity = 64)
        : collector_(collector),
          batchCapacity_(batchCapacity == 0 ? 1 : batchCapacity)
    {
        if (collector_)
            batch_.reserve(batchCapacity_);
    }

    ~SpanRecorder() { flush(); }

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return collector_ != nullptr; }

    void
    record(TraceEvent ev)
    {
        if (!collector_)
            return;
        batch_.push_back(ev);
        if (batch_.size() >= batchCapacity_)
            flush();
    }

    void
    flush()
    {
        if (!collector_ || batch_.empty())
            return;
        collector_->recordBatch(batch_);
    }

  private:
    TraceCollector *collector_ = nullptr;
    std::size_t batchCapacity_ = 64;
    std::vector<TraceEvent> batch_;
};

} // namespace c4cam::support

#endif // C4CAM_SUPPORT_TRACE_H
