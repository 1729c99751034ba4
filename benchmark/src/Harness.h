#ifndef C4CAM_BENCHMARK_HARNESS_H
#define C4CAM_BENCHMARK_HARNESS_H

/**
 * @file
 * Shared pieces of the c4cam_bench harness: the metric set every run
 * prints, per-operation statistics, clocks, peak memory, and the
 * benchmark's own trace spans around the public calls it makes.
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "sim/Timing.h"
#include "support/Trace.h"

namespace c4cam::bench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
usBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

inline std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The metrics one run reports, in the order they were set. */
class MetricSet
{
  public:
    /** Set (or overwrite) @p name. */
    void set(const std::string &name, double value, const std::string &unit);

    const Metric *find(const std::string &name) const;
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p of @p values (0 when empty). */
double percentileOf(std::vector<double> values, double p);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * Simulated device figures of one query (one query row of a kernel, one
 * sample of a decision tree). The device model is deterministic, so
 * every operation of a workload must reproduce them exactly.
 */
struct SimFigures
{
    double latencyNs = 0.0;
    double energyPj = 0.0;
    double cellEnergyPj = 0.0;
    double senseEnergyPj = 0.0;
    double driveEnergyPj = 0.0;
    double mergeEnergyPj = 0.0;
    double setupLatencyNs = 0.0;
    double setupEnergyPj = 0.0;
    double searches = 0.0;

    bool operator==(const SimFigures &) const = default;

    /** Query fields of @p perf divided by @p queries; setup as is. */
    static SimFigures perQuery(const sim::PerfReport &perf, double queries);
};

/** Bit-for-bit equality of two reports, every field included. */
bool sameReport(const sim::PerfReport &a, const sim::PerfReport &b);

/** One measured operation. */
struct OpRecord
{
    /** When it completed or failed, seconds after the phase began. */
    double doneS = 0.0;
    /** Latency in microseconds; meaningless when it failed. */
    double latencyUs = 0.0;
    /** Threw or was refused. */
    bool failed = false;
};

/** What one measured phase of a workload observed. */
struct OpStats
{
    std::vector<OpRecord> ops;
    /** Completed operations whose answer the host reference rejects. */
    std::int64_t wrong = 0;
    /** Start of the phase to the last completion. */
    double elapsedS = 0.0;
    /**
     * Consecutive operations that make one full mix of the workload
     * (dse-sweep: a round over every kernel and candidate). A segment
     * takes whole mixes only, by the completion of a mix's last
     * operation, so every segment measures the same mix.
     */
    std::size_t mixOps = 1;
    /** Per-query simulated figures of this phase. */
    SimFigures sim;
    /** Operations whose simulated figures differ from the reference. */
    std::int64_t simMismatches = 0;

    std::int64_t attempted() const
    {
        return static_cast<std::int64_t>(ops.size());
    }
    std::int64_t failed() const;
    /** Record a completed operation whose answer was checked. */
    void complete(double done_s, double latency_us, bool correct);
    /** Record an operation that threw or was refused. */
    void fail(double done_s) { ops.push_back({done_s, 0.0, true}); }
};

/**
 * Host-time figures of one measured phase. The phase is cut into
 * whole segments by completion time, and each figure is the best any
 * segment reached: the rest of the host can only add time to the
 * library's, so a segment spent on a CPU a neighbour slowed down reads
 * worse, never better, and the best segment is the one it disturbed
 * least.
 */
struct PhaseSummary
{
    std::size_t segments = 0;
    /** Highest rate of a segment: its completed operations over the
     *  time from the first one's start to the last one's completion. */
    double qps = 0.0;
    /** Lowest nearest-rank latency percentiles of a segment. */
    double p50Us = 0.0;
    double p90Us = 0.0;
    double p99Us = 0.0;
};

/** Summarize @p stats in segments of @p segment_s seconds. */
PhaseSummary summarize(const OpStats &stats, double segment_s);

/**
 * Keeps every thread of this process on one CPU at a time, and moves
 * them all together to the next CPU the process may use every
 * @p period_s seconds, from construction until destruction, which
 * gives each thread its original affinity back.
 *
 * On a few virtual CPUs of a shared host, a hand-off between threads
 * on different CPUs waits for the host to run the other virtual CPU,
 * and one CPU can run far slower than the rest for seconds while a
 * neighbour is busy. On one CPU at a time the hand-offs stay local;
 * rotating samples every CPU in turn instead of whichever one the run
 * landed on. A no-op where thread affinity is not available.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(double period_s);
    ~CpuRotation();

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    void run(std::stop_token stop, double period_s);

    std::vector<int> cpus_;
    std::mutex mutex_;
    std::condition_variable_any wake_;
    /** Declared last: it reads the members above. */
    std::jthread thread_;
};

/**
 * The benchmark's own spans around the public calls it makes, recorded
 * into the run's trace collector under one trace id. Every call is a
 * no-op without a collector, so untraced runs pay nothing.
 */
class Spans
{
  public:
    /** An open span; pass it as the parent of nested spans. */
    struct Open
    {
        const char *name = "";
        std::uint64_t query = 0;
        std::uint64_t span = 0;
        std::uint64_t parent = 0;
        double startUs = 0.0;
    };

    explicit Spans(support::TraceCollector *collector = nullptr);

    bool enabled() const { return collector_ != nullptr; }
    support::TraceCollector *collector() const { return collector_; }

    /** Open a span; a null @p parent starts a new root (new query id).
     *  @p name must be a string literal. */
    Open begin(const char *name, const Open *parent = nullptr);

    /** Close @p open at the current time. */
    void end(const Open &open);

  private:
    support::TraceCollector *collector_ = nullptr;
    std::uint64_t traceId_ = 0;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Spans &spans, const char *name,
               const Spans::Open *parent = nullptr)
        : spans_(spans), open_(spans.begin(name, parent))
    {
    }
    ~ScopedSpan() { spans_.end(open_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    const Spans::Open *get() const { return &open_; }

  private:
    Spans &spans_;
    Spans::Open open_;
};

} // namespace c4cam::bench

#endif // C4CAM_BENCHMARK_HARNESS_H
