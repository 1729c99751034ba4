#ifndef C4CAM_BENCHMARK_TRACESUMMARY_H
#define C4CAM_BENCHMARK_TRACESUMMARY_H

/**
 * @file
 * Per-stage statistics of a recorded trace: for every span name inside
 * the operation trees, the p50/p99 of its duration and its share of
 * the operations' time. A span's self time is its duration minus the
 * part of its interval its child spans cover; shares are self time
 * over the summed duration of the root spans. Across all names of the
 * trees they add up to 1, or to more where sibling spans run in
 * parallel (the shards of one scatter).
 */

#include <string>
#include <vector>

#include "support/Trace.h"

namespace c4cam::bench {

struct StageStats
{
    /** Span name with its layer prefix, e.g. "core.enqueue-wait". */
    std::string metric;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double share = 0.0;
};

/**
 * Summarize the span trees rooted at root spans named @p root_name
 * (parent 0) that start at or after @p since_us.
 */
std::vector<StageStats>
summarizeTrace(const std::vector<support::TraceEvent> &events,
               const std::string &root_name, double since_us);

} // namespace c4cam::bench

#endif // C4CAM_BENCHMARK_TRACESUMMARY_H
