/**
 * @file
 * dse-sweep: the paper's design-space exploration (§IV-C) over the 20
 * standard architecture candidates for four kernels. Every operation
 * evaluates one candidate -- compile, allocate and program a device,
 * run four queries -- so this is the workload where compile and
 * programming cost show.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "Probes.h"
#include "Reference.h"
#include "Workload.h"
#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/DseExplorer.h"
#include "core/PlanCache.h"

namespace c4cam::bench {

namespace {

constexpr std::int64_t kQueries = 4;

/** One kernel of the sweep with its inputs and host references. */
struct DseKernel
{
    std::string source;
    bool dot = false;
    int k = 1;
    Matrix queries;
    Matrix stored;
    std::vector<TopKReference> refs; ///< one per query row
    std::vector<rt::BufferPtr> args; ///< set by build()
};

class DseWorkload : public Workload
{
  public:
    explicit DseWorkload(const RunConfig &config)
        : candidates_(core::DseExplorer::standardCandidates())
    {
        Rng rng(config.seed);
        // Sized so the costliest candidate takes a few tens of
        // milliseconds: a sweep then holds enough candidates for a
        // median, and each one is short next to the host's stalls.
        const std::int64_t hdc_dims = config.smoke ? 1024 : 2048;
        const std::int64_t knn_dims = config.smoke ? 256 : 512;
        addKernel(rng, true, 10, hdc_dims, 1);
        addKernel(rng, true, 26, hdc_dims, 1);
        addKernel(rng, false, config.smoke ? 64 : 128, knn_dims, 5);
        addKernel(rng, false, config.smoke ? 128 : 256, knn_dims, 5);
    }

    const char *rootSpanName() const override { return "candidate"; }

    void
    teardown() override
    {
        for (DseKernel &kernel : kernels_)
            kernel.args.clear();
    }

    /** A sweep's only set-up: marshalling each kernel's arguments. */
    void
    build(support::TraceCollector *) override
    {
        for (DseKernel &kernel : kernels_)
            kernel.args = {rt::Buffer::fromMatrix(kernel.queries),
                           rt::Buffer::fromMatrix(kernel.stored)};
    }

    /** Outputs are checked here, once per kernel on the 32x32 base
     *  candidate: DseExplorer reports only the simulated cost. */
    std::int64_t
    warmUp(std::size_t) override
    {
        std::int64_t wrong = 0;
        arch::ArchSpec spec =
            arch::ArchSpec::dseSetup(32, arch::OptTarget::Base);
        for (const DseKernel &kernel : kernels_) {
            core::CompilerOptions options;
            options.spec = spec;
            core::CompiledKernel compiled =
                core::Compiler(options).compileTorchScript(kernel.source);
            if (!accepts(kernel, compiled.run(kernel.args)))
                ++wrong;
        }
        return wrong;
    }

    OpStats
    measure(double seconds, std::size_t max_ops, Spans &spans) override
    {
        OpStats stats;
        stats.mixOps = kernels_.size() * candidates_.size();
        const Clock::time_point start = Clock::now();
        do {
            core::PlanCache::instance().clear();
            for (std::size_t k = 0; k < kernels_.size(); ++k)
                for (std::size_t c = 0; c < candidates_.size(); ++c)
                    runCandidate(k, c, spans, start, stats);
            stats.elapsedS = secondsBetween(start, Clock::now());
        } while (stats.elapsedS < seconds &&
                 static_cast<std::size_t>(stats.attempted()) < max_ops);
        stats.sim = sim_;
        return stats;
    }

    void
    probe(Spans &spans, MetricSet &out) override
    {
        ScopedSpan root(spans, "probe");
        std::vector<KernelShape> shapes;
        for (const DseKernel &kernel : kernels_)
            for (const arch::ArchSpec &spec : candidates_)
                shapes.push_back({kernel.source, spec, kernel.args, kQueries});
        probeCompile(shapes, 1, spans, root.get(), out);

        // sim: per candidate, program a standalone device with the
        // candidate's tile layout and search the kernel's query rows.
        SimProbe sim;
        double expected = 0.0;
        for (std::size_t k = 0; k < kernels_.size(); ++k) {
            const DseKernel &kernel = kernels_[k];
            for (std::size_t c = 0; c < candidates_.size(); ++c) {
                ScopedSpan span(spans, "sim.candidate", root.get());
                Clock::time_point start = Clock::now();
                TiledDevice device(candidates_[c], kernel.stored,
                                   !kernel.dot);
                sim.programMs += secondsBetween(start, Clock::now()) * 1e3;
                std::vector<std::vector<std::vector<float>>> cut;
                for (const auto &query : kernel.queries)
                    cut.push_back(device.sliceQuery(query));
                start = Clock::now();
                for (const auto &slices : cut)
                    device.search(slices);
                sim.searchUs += usBetween(start, Clock::now());
                sim.queries += static_cast<double>(kQueries);
                sim.searches += static_cast<double>(device.searches());
                expected += static_cast<double>(reports_[k][c].searches);
            }
        }
        sim.programMs /= static_cast<double>(shapes.size());
        reportSimProbe(sim, expected, out);
    }

  private:
    void
    addKernel(Rng &rng, bool dot, std::int64_t rows, std::int64_t dims,
              int k)
    {
        DseKernel kernel;
        kernel.dot = dot;
        kernel.k = k;
        Alphabet alphabet{dot, 2};
        kernel.source = dot ? apps::dotSimilaritySource(kQueries, rows,
                                                         dims, k)
                            : apps::knnEuclideanSource(kQueries, rows, dims,
                                                       k);
        kernel.stored = randomMatrix(rng, rows, dims, alphabet);
        for (std::int64_t q = 0; q < kQueries; ++q) {
            kernel.queries.push_back(
                perturbedRow(rng, kernel.stored, dims / 10, alphabet));
            kernel.refs.push_back(topKReference(kernel.queries.back(),
                                                kernel.stored, k, dot));
        }
        kernels_.push_back(std::move(kernel));
    }

    bool
    accepts(const DseKernel &kernel, const core::ExecutionResult &r) const
    {
        if (r.outputs.size() != 2)
            return false;
        std::vector<double> values = r.outputs[0].asBuffer()->toVector();
        std::vector<double> indices = r.outputs[1].asBuffer()->toVector();
        const auto k = static_cast<std::size_t>(kernel.k);
        if (values.size() != kQueries * k || indices.size() != values.size())
            return false;
        for (std::size_t q = 0; q < kernel.refs.size(); ++q)
            if (!acceptsTopK(kernel.refs[q], values.data() + q * k,
                             indices.data() + q * k, kernel.k))
                return false;
        return true;
    }

    /**
     * Evaluate candidate @p c for kernel @p k. Untraced this is one
     * DseExplorer::explore call; traced, the same work runs as its
     * public steps (parse, lower, plan compile, run) under spans, and
     * must reproduce the explorer's PerfReport bit for bit.
     */
    void
    runCandidate(std::size_t k, std::size_t c, Spans &spans,
                 Clock::time_point start, OpStats &stats)
    {
        const DseKernel &kernel = kernels_[k];
        const arch::ArchSpec &spec = candidates_[c];
        sim::PerfReport perf;
        bool ok = true;
        Clock::time_point t0 = Clock::now();
        try {
            if (!spans.enabled()) {
                core::DseResult result = core::DseExplorer().explore(
                    kernel.source, {spec}, kernel.args, 1);
                perf = result.points.front().perf;
            } else {
                ScopedSpan root(spans, "candidate");
                core::CompilerOptions options;
                options.spec = spec;
                CompileSteps steps = compileInSteps(kernel.source, options,
                                                    spans, root.get());
                ScopedSpan span(spans, "runtime.kernel-run", root.get());
                core::ExecutionResult result = core::runKernelOnce(
                    steps.kernel->module(), steps.kernel->entryPoint(),
                    options, kernel.args, steps.plan.get());
                ok = accepts(kernel, result);
                perf = result.perf;
            }
        } catch (const std::exception &) {
            stats.fail(secondsBetween(start, Clock::now()));
            return;
        }
        Clock::time_point t1 = Clock::now();

        // Independent count: every query row searches every row x
        // column tile of the stored matrix once.
        const auto rows = static_cast<std::int64_t>(kernel.stored.size());
        const auto dims =
            static_cast<std::int64_t>(kernel.stored.front().size());
        if (perf.searches !=
            kQueries * ceilDiv(rows, spec.rows) * ceilDiv(dims, spec.cols))
            ok = false;
        stats.complete(secondsBetween(start, t1), usBetween(t0, t1), ok);

        if (reports_.size() < kernels_.size())
            reports_.resize(kernels_.size());
        if (reports_[k].size() <= c) {
            reports_[k].push_back(perf);
            accumulateSim(perf);
        } else if (!sameReport(perf, reports_[k][c])) {
            ++stats.simMismatches;
        }
    }

    /** Mean per-query figures over the first round, in sweep order. */
    void
    accumulateSim(const sim::PerfReport &perf)
    {
        SimFigures f = SimFigures::perQuery(perf, kQueries);
        const double n = static_cast<double>(kernels_.size() *
                                             candidates_.size());
        sim_.latencyNs += f.latencyNs / n;
        sim_.energyPj += f.energyPj / n;
        sim_.cellEnergyPj += f.cellEnergyPj / n;
        sim_.senseEnergyPj += f.senseEnergyPj / n;
        sim_.driveEnergyPj += f.driveEnergyPj / n;
        sim_.mergeEnergyPj += f.mergeEnergyPj / n;
        sim_.setupLatencyNs += f.setupLatencyNs / n;
        sim_.setupEnergyPj += f.setupEnergyPj / n;
        sim_.searches += f.searches / n;
    }

    std::vector<arch::ArchSpec> candidates_;
    std::vector<DseKernel> kernels_;
    /** Explorer reports of the first round, [kernel][candidate]. */
    std::vector<std::vector<sim::PerfReport>> reports_;
    SimFigures sim_;
};

} // namespace

std::unique_ptr<Workload>
makeDseWorkload(const RunConfig &config)
{
    return std::make_unique<DseWorkload>(config);
}

} // namespace c4cam::bench
