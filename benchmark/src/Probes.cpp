#include "Probes.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/Compiler.h"
#include "core/PlanCache.h"
#include "dialects/AllDialects.h"
#include "frontend/TorchScriptFrontend.h"
#include "runtime/ExecutionPlan.h"

namespace c4cam::bench {

namespace {

double
msSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now()) * 1e3;
}

} // namespace

CompileSteps
compileInSteps(const std::string &source,
               const core::CompilerOptions &options, Spans &spans,
               const Spans::Open *parent)
{
    CompileSteps steps;
    auto ctx = std::make_shared<ir::Context>();
    dialects::loadAllDialects(*ctx);
    Clock::time_point start = Clock::now();
    ir::Module module = [&] {
        ScopedSpan span(spans, "frontend.parse", parent);
        return frontend::parseTorchScriptModule(*ctx, source);
    }();
    steps.parseMs = msSince(start);

    // Tree-walk execution makes the kernel skip its eager plan compile;
    // lowering does not depend on it.
    core::CompilerOptions lower_only = options;
    lower_only.treeWalkExecution = true;
    start = Clock::now();
    {
        ScopedSpan span(spans, "passes.lower", parent);
        steps.kernel = std::make_unique<core::CompiledKernel>(
            core::Compiler(lower_only).compileModule(ctx,
                                                     std::move(module)));
    }
    steps.lowerMs = msSince(start);

    start = Clock::now();
    {
        ScopedSpan span(spans, "runtime.plan-compile", parent);
        steps.plan = core::tryCompilePlan(std::as_const(*steps.kernel).module(),
                                          steps.kernel->entryPoint(),
                                          options);
    }
    steps.planMs = msSince(start);
    if (!steps.plan)
        throw std::runtime_error("kernel has no execution plan");
    return steps;
}

void
probeCompile(const std::vector<KernelShape> &shapes, int reps, Spans &spans,
             const Spans::Open *parent, MetricSet &out)
{
    double parse_sum = 0.0;
    double plan_sum = 0.0;
    double ops_sum = 0.0;
    std::map<std::string, double> pass_sums;
    for (const KernelShape &shape : shapes) {
        core::CompilerOptions options;
        options.spec = shape.spec;
        options.timePasses = true;

        std::vector<double> parse;
        std::vector<double> plan;
        std::map<std::string, std::vector<double>> passes;
        CompileSteps steps;
        for (int r = 0; r < reps; ++r) {
            core::PlanCache::instance().clear();
            steps = compileInSteps(shape.source, options, spans, parent);
            parse.push_back(steps.parseMs);
            plan.push_back(steps.planMs);
            for (const ir::PassManager::Timing &t :
                 steps.kernel->passTimings())
                passes[t.pass].push_back(t.millis);
        }
        parse_sum += median(parse);
        plan_sum += median(plan);
        for (const auto &[name, ms] : passes)
            pass_sums[name] += median(ms);

        // Exact instruction count of one query's plan replay, the way
        // a persistent session replays it: setup once, then QueryOnly.
        rt::PlanFrame frame = steps.plan->makeFrame();
        sim::CamDevice device(shape.spec);
        std::vector<rt::RtValue> args = rt::toRtValues(shape.args);
        steps.plan->run(frame, &device, args,
                        rt::ExecutionPlan::ExecPhase::SetupOnly);
        device.beginQueryWindow();
        std::uint64_t ops = 0;
        steps.plan->run(frame, &device, args,
                        rt::ExecutionPlan::ExecPhase::QueryOnly, &ops);
        ops_sum += static_cast<double>(ops) /
                   static_cast<double>(shape.queries);
    }
    const double n = static_cast<double>(shapes.size());
    out.set("frontend.parse_ms", parse_sum / n, "ms");
    for (const auto &[name, sum] : pass_sums)
        out.set("passes." + name + "_ms", sum / n, "ms");
    out.set("runtime.plan_compile_ms", plan_sum / n, "ms");
    out.set("runtime.ops_per_query", ops_sum / n, "count");
}

TiledDevice::TiledDevice(const arch::ArchSpec &spec, const Matrix &stored,
                         bool euclidean)
    : device_(spec), euclidean_(euclidean), selective_(spec.selectiveSearch)
{
    // Tile geometry of passes::MappingPlan, recomputed here so the probe
    // depends only on the device API.
    const auto n = static_cast<std::int64_t>(stored.size());
    const auto d = static_cast<std::int64_t>(stored.front().size());
    const std::int64_t batch_rows = std::min<std::int64_t>(n, spec.rows);
    const std::int64_t col_tiles = ceilDiv(d, spec.cols);
    const std::int64_t logical = ceilDiv(n, spec.rows) * col_tiles;
    std::int64_t per_sub = 1;
    if (spec.selectiveSearch && batch_rows < spec.rows)
        per_sub = std::max<std::int64_t>(1, spec.rows / batch_rows);
    const std::int64_t physical = ceilDiv(logical, per_sub);

    std::vector<sim::Handle> subs;
    sim::Handle bank = 0, mat = 0, array = 0;
    for (std::int64_t p = 0; p < physical; ++p) {
        std::int64_t in_array = p % spec.subarraysPerArray;
        std::int64_t array_id = p / spec.subarraysPerArray;
        if (in_array == 0) {
            if (array_id % spec.arraysPerMat == 0) {
                std::int64_t mat_id = array_id / spec.arraysPerMat;
                if (mat_id % spec.matsPerBank == 0)
                    bank = device_.allocBank(spec.rows, spec.cols);
                mat = device_.allocMat(bank);
            }
            array = device_.allocArray(mat);
        }
        subs.push_back(device_.allocSubarray(array));
    }

    for (std::int64_t t = 0; t < logical; ++t) {
        std::int64_t row_off = (t / col_tiles) * batch_rows;
        std::int64_t rows_here = std::min(batch_rows, n - row_off);
        std::int64_t col_off = (t % col_tiles) * spec.cols;
        std::int64_t cols_here = std::min<std::int64_t>(spec.cols,
                                                        d - col_off);
        Matrix slice;
        for (std::int64_t r = 0; r < rows_here; ++r) {
            const auto &row = stored[static_cast<std::size_t>(row_off + r)];
            slice.emplace_back(row.begin() + col_off,
                               row.begin() + col_off + cols_here);
        }
        int row_begin = static_cast<int>((t % per_sub) * batch_rows);
        sim::Handle handle = subs[static_cast<std::size_t>(t / per_sub)];
        device_.writeValue(handle, slice, row_begin);
        tiles_.push_back({handle, row_begin,
                          row_begin + static_cast<int>(rows_here),
                          static_cast<std::size_t>(col_off),
                          static_cast<std::size_t>(cols_here)});
    }
}

std::vector<std::vector<float>>
TiledDevice::sliceQuery(const std::vector<float> &query) const
{
    std::vector<std::vector<float>> slices;
    slices.reserve(tiles_.size());
    for (const Tile &tile : tiles_)
        slices.emplace_back(
            query.begin() + static_cast<std::ptrdiff_t>(tile.colOff),
            query.begin() +
                static_cast<std::ptrdiff_t>(tile.colOff + tile.cols));
    return slices;
}

void
TiledDevice::search(const std::vector<std::vector<float>> &slices)
{
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
        const Tile &tile = tiles_[i];
        device_.search(tile.handle, slices[i], arch::SearchKind::Best,
                       euclidean_, tile.rowBegin, tile.rowEnd, 0.0,
                       selective_);
        device_.read(tile.handle);
    }
}

void
reportSimProbe(const SimProbe &probe, double expected_searches,
               MetricSet &out)
{
    if (probe.searches != expected_searches)
        throw std::runtime_error(
            "sim probe issued " + std::to_string(probe.searches) +
            " searches for " + std::to_string(probe.queries) +
            " queries; the served PerfReports count " +
            std::to_string(expected_searches));
    out.set("sim.program_ms", probe.programMs, "ms");
    out.set("sim.search_us_per_query", probe.searchUs / probe.queries, "us");
}

void
reportSimFigures(const SimFigures &sim, MetricSet &out)
{
    out.set("sim.searches_per_query", sim.searches, "count");
    out.set("sim.cell_energy_pj", sim.cellEnergyPj, "pJ/query");
    out.set("sim.sense_energy_pj", sim.senseEnergyPj, "pJ/query");
    out.set("sim.drive_energy_pj", sim.driveEnergyPj, "pJ/query");
    out.set("sim.merge_energy_pj", sim.mergeEnergyPj, "pJ/query");
    out.set("sim.setup_latency_ns", sim.setupLatencyNs, "ns");
    out.set("sim.setup_energy_pj", sim.setupEnergyPj, "pJ");
}

} // namespace c4cam::bench
