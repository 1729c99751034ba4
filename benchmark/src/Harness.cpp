#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include <sys/resource.h>
#ifdef __linux__
#include <sched.h>
#include <unistd.h>
#endif

#include "support/Json.h"
#include "support/Stats.h"

namespace c4cam::bench {

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

const Metric *
MetricSet::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentileOf(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return support::percentile(values, p);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

std::int64_t
OpStats::failed() const
{
    return std::count_if(ops.begin(), ops.end(),
                         [](const OpRecord &op) { return op.failed; });
}

void
OpStats::complete(double done_s, double latency_us, bool correct)
{
    if (!correct)
        ++wrong;
    ops.push_back({done_s, latency_us, false});
}

PhaseSummary
summarize(const OpStats &stats, double segment_s)
{
    // Operations that complete after the last whole segment, such as
    // the one in flight when the phase's time ran out, count in it.
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::floor(stats.elapsedS / segment_s + 1e-6)));
    struct Segment
    {
        std::vector<double> latency; ///< of the completed operations
        double firstStartS = 0.0;
        double lastDoneS = 0.0;
    };
    std::vector<Segment> seg(n);
    const std::size_t mix = std::max<std::size_t>(stats.mixOps, 1);
    for (std::size_t i = 0; i < stats.ops.size(); ++i) {
        const OpRecord &op = stats.ops[i];
        if (op.failed)
            continue;
        const std::size_t last =
            std::min(i / mix * mix + mix, stats.ops.size()) - 1;
        Segment &into = seg[std::min(
            static_cast<std::size_t>(stats.ops[last].doneS / segment_s),
            n - 1)];
        const double start_s = op.doneS - op.latencyUs * 1e-6;
        if (into.latency.empty() || start_s < into.firstStartS)
            into.firstStartS = start_s;
        into.lastDoneS = std::max(into.lastDoneS, op.doneS);
        into.latency.push_back(op.latencyUs);
    }
    PhaseSummary s;
    for (Segment &x : seg) {
        if (x.latency.empty())
            continue;
        std::sort(x.latency.begin(), x.latency.end());
        const double p50 = support::percentile(x.latency, 50.0);
        const double p90 = support::percentile(x.latency, 90.0);
        const double p99 = support::percentile(x.latency, 99.0);
        s.p50Us = s.segments == 0 ? p50 : std::min(s.p50Us, p50);
        s.p90Us = s.segments == 0 ? p90 : std::min(s.p90Us, p90);
        s.p99Us = s.segments == 0 ? p99 : std::min(s.p99Us, p99);
        ++s.segments;
        // From the first start to the last completion, so a segment of
        // whole mixes is not charged the part of a mix it does not hold.
        if (x.lastDoneS > x.firstStartS)
            s.qps = std::max(s.qps, static_cast<double>(x.latency.size()) /
                                        (x.lastDoneS - x.firstStartS));
    }
    return s;
}

#ifdef __linux__
namespace {

/** Give every thread of this process but @p except the CPUs in @p set.
 *  A thread that ends meanwhile just fails the call. */
void
pinThreads(const std::vector<int> &set, pid_t except)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int cpu : set)
        CPU_SET(cpu, &mask);
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        auto tid = static_cast<pid_t>(
            std::strtol(entry.path().filename().c_str(), nullptr, 10));
        if (tid > 0 && tid != except)
            sched_setaffinity(tid, sizeof mask, &mask);
    }
}

} // namespace
#endif

CpuRotation::CpuRotation(double period_s)
{
#ifdef __linux__
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus_.push_back(cpu);
    if (cpus_.size() < 2)
        return;
    pinThreads({cpus_[0]}, 0);
    thread_ = std::jthread(
        [this, period_s](std::stop_token stop) { run(stop, period_s); });
#else
    (void)period_s;
#endif
}

CpuRotation::~CpuRotation()
{
    if (!thread_.joinable())
        return;
    thread_.request_stop();
    thread_.join();
#ifdef __linux__
    pinThreads(cpus_, 0);
#endif
}

void
CpuRotation::run(std::stop_token stop, double period_s)
{
#ifdef __linux__
    // This thread sleeps nearly all the time, so it may run anywhere.
    const pid_t self = gettid();
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int cpu : cpus_)
        CPU_SET(cpu, &mask);
    sched_setaffinity(0, sizeof mask, &mask);

    const Clock::time_point start = Clock::now();
    std::unique_lock lock(mutex_);
    for (std::size_t k = 1;; ++k) {
        const auto next =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            period_s * static_cast<double>(k)));
        wake_.wait_until(lock, stop, next, [] { return false; });
        if (stop.stop_requested())
            return;
        pinThreads({cpus_[k % cpus_.size()]}, self);
    }
#else
    (void)stop;
    (void)period_s;
#endif
}

SimFigures
SimFigures::perQuery(const sim::PerfReport &perf, double queries)
{
    SimFigures f;
    f.latencyNs = perf.queryLatencyNs / queries;
    f.energyPj = perf.queryEnergyPj / queries;
    f.cellEnergyPj = perf.cellEnergyPj / queries;
    f.senseEnergyPj = perf.senseEnergyPj / queries;
    f.driveEnergyPj = perf.driveEnergyPj / queries;
    f.mergeEnergyPj = perf.mergeEnergyPj / queries;
    f.setupLatencyNs = perf.setupLatencyNs;
    f.setupEnergyPj = perf.setupEnergyPj;
    f.searches = static_cast<double>(perf.searches) / queries;
    return f;
}

bool
sameReport(const sim::PerfReport &a, const sim::PerfReport &b)
{
    // The JSON prints every double with all its digits.
    return a.toJson().dump() == b.toJson().dump();
}

Spans::Spans(support::TraceCollector *collector) : collector_(collector)
{
    if (collector_)
        traceId_ = collector_->newTraceId();
}

Spans::Open
Spans::begin(const char *name, const Open *parent)
{
    Open open;
    if (!collector_)
        return open;
    open.name = name;
    open.query = parent ? parent->query : collector_->newQueryId();
    open.parent = parent ? parent->span : 0;
    open.span = collector_->newSpanId();
    open.startUs = collector_->nowUs();
    return open;
}

void
Spans::end(const Open &open)
{
    if (!collector_)
        return;
    support::TraceEvent ev;
    ev.name = open.name;
    ev.traceId = traceId_;
    ev.queryId = open.query;
    ev.spanId = open.span;
    ev.parentSpanId = open.parent;
    ev.startUs = open.startUs;
    ev.durUs = collector_->nowUs() - open.startUs;
    collector_->record(ev);
}

} // namespace c4cam::bench
