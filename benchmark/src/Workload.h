#ifndef C4CAM_BENCHMARK_WORKLOAD_H
#define C4CAM_BENCHMARK_WORKLOAD_H

/**
 * @file
 * The workload interface the harness drives. A workload owns its
 * seeded inputs and host references, builds the program under test
 * (timed by the harness for setup_s), and runs measured phases.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "Harness.h"

namespace c4cam::support {
class TraceCollector;
}

namespace c4cam::bench {

struct RunConfig
{
    std::uint64_t seed = 1;
    /** Shrink inputs so the whole workload runs in well under 2 s. */
    bool smoke = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Query rows (or samples) one operation carries. */
    virtual double queriesPerOp() const { return 1.0; }

    /** Drop the program built by build(); untimed. */
    virtual void teardown() = 0;

    /**
     * Build the program under test from the inputs, the way a user of
     * the library would before serving its first operation. @p trace,
     * when set, receives the serving tier's spans.
     */
    virtual void build(support::TraceCollector *trace) = 0;

    /**
     * Run @p ops untimed operations on the built program. Their
     * answers are checked too. @return the number of wrong answers.
     */
    virtual std::int64_t warmUp(std::size_t ops) = 0;

    /**
     * Measure for @p seconds, or until @p max_ops operations. @p spans
     * records the benchmark's own spans when tracing.
     */
    virtual OpStats measure(double seconds, std::size_t max_ops,
                            Spans &spans) = 0;

    /** Root span name of one operation's span tree in the trace. */
    virtual const char *rootSpanName() const { return "query"; }

    /**
     * core.fused_windows, core.single_dispatches and core.mean_fused_k
     * of the serving tier over everything the current build served;
     * zero for workloads that do not go through one.
     */
    virtual void servingCounters(MetricSet &out) const;

    /**
     * Layer probes of the traced run: time each layer's public entry
     * points on this workload's shapes and add the per-layer metrics
     * to @p out.
     */
    virtual void probe(Spans &spans, MetricSet &out) = 0;
};

/** The workload names, in benchmark order. */
const std::vector<std::string> &workloadNames();

/** @return nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunConfig &config);

/// @name Factories (one per implementation file)
/// @{
std::unique_ptr<Workload> makeServingWorkload(const std::string &name,
                                              const RunConfig &config);
std::unique_ptr<Workload> makeDseWorkload(const RunConfig &config);
std::unique_ptr<Workload> makeDtreeWorkload(const RunConfig &config);
/// @}

} // namespace c4cam::bench

#endif // C4CAM_BENCHMARK_WORKLOAD_H
