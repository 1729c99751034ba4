#ifndef C4CAM_BENCHMARK_PROBES_H
#define C4CAM_BENCHMARK_PROBES_H

/**
 * @file
 * Layer probes of the traced run. Each probe times one layer's public
 * entry points from outside, on the shapes a workload serves:
 *
 *  - frontend: frontend::parseTorchScriptModule;
 *  - passes: the compiler's own per-pass timings (timePasses);
 *  - runtime: core::tryCompilePlan on a cleared PlanCache, and the
 *    exact instruction count of one QueryOnly plan replay;
 *  - sim: a standalone sim::CamDevice programmed with the kernel's
 *    tile layout, timing search + read alone.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "Harness.h"
#include "Reference.h"
#include "arch/ArchSpec.h"
#include "core/Compiler.h"
#include "runtime/Buffer.h"
#include "sim/CamDevice.h"

namespace c4cam::bench {

/** A kernel compiled by compileInSteps. */
struct CompileSteps
{
    /** The lowered kernel; it holds no plan of its own. */
    std::unique_ptr<core::CompiledKernel> kernel;
    std::shared_ptr<const rt::ExecutionPlan> plan;
    double parseMs = 0.0;
    double lowerMs = 0.0;
    double planMs = 0.0;
};

/**
 * Compiler::compileTorchScript as its public steps, each timed under
 * its own span: frontend.parse (parseTorchScriptModule), passes.lower
 * (compileModule with plan compilation switched off) and
 * runtime.plan-compile (core::tryCompilePlan, which goes through the
 * PlanCache). The module and plan are the ones compileTorchScript
 * would produce; run them with core::runKernelOnce.
 */
CompileSteps compileInSteps(const std::string &source,
                            const core::CompilerOptions &options,
                            Spans &spans, const Spans::Open *parent);

/** One compiled-kernel shape to probe. */
struct KernelShape
{
    std::string source;
    arch::ArchSpec spec;
    /** Setup arguments: (query, stored). */
    std::vector<rt::BufferPtr> args;
    /** Query rows per kernel call. */
    std::int64_t queries = 1;
};

/**
 * Compile-layer probe over @p shapes: for each shape the median over
 * @p reps of every timing, then the mean over shapes. Adds
 * frontend.parse_ms, passes.<pass>_ms (the compiler's own timings),
 * runtime.plan_compile_ms (on a cleared PlanCache) and
 * runtime.ops_per_query (exact, per query row).
 */
void probeCompile(const std::vector<KernelShape> &shapes, int reps,
                  Spans &spans, const Spans::Open *parent, MetricSet &out);

/**
 * A standalone device programmed the way the cam-map pass lays a
 * (stored rows x features) kernel out on @p spec: row x column tiles,
 * packed several to a subarray under selective search. search() runs
 * one query row against every tile (search + read), exactly the
 * device calls a plan replay makes.
 */
class TiledDevice
{
  public:
    TiledDevice(const arch::ArchSpec &spec, const Matrix &stored,
                bool euclidean);

    /** Cut @p query into the per-tile column slices search() takes. */
    std::vector<std::vector<float>>
    sliceQuery(const std::vector<float> &query) const;

    /** Search every tile with the pre-cut @p slices. */
    void search(const std::vector<std::vector<float>> &slices);

    /** Searches issued so far. */
    std::int64_t searches() const { return device_.report().searches; }

  private:
    struct Tile
    {
        sim::Handle handle;
        int rowBegin;
        int rowEnd;
        std::size_t colOff;
        std::size_t cols;
    };

    sim::CamDevice device_;
    bool euclidean_;
    bool selective_;
    std::vector<Tile> tiles_;
};

/** Timings of one sim probe. */
struct SimProbe
{
    double programMs = 0.0;
    double searchUs = 0.0;
    double queries = 0.0;
    double searches = 0.0;
};

/**
 * Add sim.program_ms and sim.search_us_per_query from @p probe, and
 * check that the probe issued exactly @p expected_searches device
 * searches: what the served PerfReports count for the same queries.
 * Throws std::runtime_error when it did not.
 */
void reportSimProbe(const SimProbe &probe, double expected_searches,
                    MetricSet &out);

/** Add the sim.* device figures of @p sim. */
void reportSimFigures(const SimFigures &sim, MetricSet &out);

} // namespace c4cam::bench

#endif // C4CAM_BENCHMARK_PROBES_H
