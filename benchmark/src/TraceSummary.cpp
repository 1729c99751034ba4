#include "TraceSummary.h"

#include <algorithm>
#include <map>
#include <utility>

#include "Harness.h"

namespace c4cam::bench {

namespace {

/** "core.admit" for the serving tier's "admit", etc.: span names the
 *  library records get their layer prefix; the benchmark's own spans
 *  already carry one. */
std::string
layerMetricName(const std::string &span_name)
{
    if (span_name.find('.') != std::string::npos)
        return span_name;
    if (span_name == "plan-replay" || span_name == "plan-compile" ||
        span_name == "plan-cache-hit")
        return "runtime." + span_name;
    if (span_name == "request" || span_name == "candidate")
        return "bench." + span_name;
    return "core." + span_name;
}

} // namespace

std::vector<StageStats>
summarizeTrace(const std::vector<support::TraceEvent> &events,
               const std::string &root_name, double since_us)
{
    using Key = std::pair<std::uint64_t, std::uint64_t>; // (trace, span)
    std::map<Key, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events[i].parentSpanId != 0)
            children[{events[i].traceId, events[i].parentSpanId}]
                .push_back(i);

    struct Acc
    {
        std::vector<double> durations;
        double selfUs = 0.0;
    };
    std::map<std::string, Acc> by_name;
    double root_us = 0.0;

    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const support::TraceEvent &root = events[i];
        if (root.parentSpanId != 0 || root_name != root.name ||
            root.startUs < since_us)
            continue;
        root_us += root.durUs;
        stack.assign(1, i);
        while (!stack.empty()) {
            const support::TraceEvent &ev = events[stack.back()];
            stack.pop_back();
            const double begin = ev.startUs;
            const double end = ev.startUs + ev.durUs;
            // Union of the children's intervals, clipped to this span.
            std::vector<std::pair<double, double>> covered;
            auto it = children.find({ev.traceId, ev.spanId});
            if (it != children.end()) {
                for (std::size_t c : it->second) {
                    const support::TraceEvent &child = events[c];
                    covered.emplace_back(
                        std::max(begin, child.startUs),
                        std::min(end, child.startUs + child.durUs));
                    stack.push_back(c);
                }
            }
            std::sort(covered.begin(), covered.end());
            double covered_us = 0.0;
            double reach = begin;
            for (const auto &[lo, hi] : covered) {
                double from = std::max(lo, reach);
                if (hi > from) {
                    covered_us += hi - from;
                    reach = hi;
                }
            }
            Acc &acc = by_name[ev.name];
            acc.durations.push_back(ev.durUs);
            acc.selfUs += ev.durUs - covered_us;
        }
    }

    std::vector<StageStats> out;
    for (auto &[name, acc] : by_name) {
        StageStats s;
        s.metric = layerMetricName(name);
        s.p50Us = percentileOf(acc.durations, 50.0);
        s.p99Us = percentileOf(acc.durations, 99.0);
        s.share = root_us > 0.0 ? acc.selfUs / root_us : 0.0;
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace c4cam::bench
