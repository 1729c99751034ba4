/**
 * @file
 * The two serving workloads: similarity kernels behind the async
 * front-end, driven by one closed-loop client (hdc-closed, knn-shard).
 */

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "Probes.h"
#include "Reference.h"
#include "Workload.h"
#include "apps/Workloads.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/ShardedEngine.h"

namespace c4cam::bench {

namespace {

/** Everything that distinguishes one serving workload. */
struct ServingShape
{
    std::int64_t storedRows = 0;
    std::int64_t dims = 0;
    int k = 1;
    /** Dot similarity on +-1 vectors (HDC) vs Euclidean kNN. */
    bool dot = false;
    Alphabet alphabet;
    arch::ArchSpec spec;
    /** Stored-axis shards; 0 serves from one device. */
    int shards = 0;
    /** Coordinates each query changes in the stored row it copies. */
    std::int64_t changes = 0;
    /** Distinct queries; operation n sends query n % pool. */
    std::size_t pool = 1024;
};

ServingShape
shapeFor(const std::string &name, bool smoke)
{
    ServingShape s;
    if (name == "hdc-closed") {
        s.storedRows = smoke ? 32 : 128;
        s.dims = smoke ? 256 : 1024;
        s.dot = true;
        s.alphabet = {true, 2};
        s.spec = arch::ArchSpec::dseSetup(32, arch::OptTarget::Base);
    } else {
        s.storedRows = smoke ? 48 : 192;
        s.dims = smoke ? 192 : 768;
        s.k = 5;
        s.alphabet = {false, 4};
        s.spec = arch::ArchSpec::dseSetup(16, arch::OptTarget::Base);
        s.spec.camType = arch::CamDeviceType::Mcam;
        s.spec.bitsPerCell = 2;
        s.shards = 2;
    }
    s.changes = s.dims / 10;
    s.pool = smoke ? 64 : 1024;
    return s;
}

class ServingWorkload : public Workload
{
  public:
    ServingWorkload(const std::string &name, const RunConfig &config)
        : shape_(shapeFor(name, config.smoke)), smoke_(config.smoke)
    {
        Rng rng(config.seed);
        stored_ = randomMatrix(rng, shape_.storedRows, shape_.dims,
                               shape_.alphabet);
        storedBuf_ = rt::Buffer::fromMatrix(stored_);
        for (std::size_t q = 0; q < shape_.pool; ++q) {
            queries_.push_back(
                perturbedRow(rng, stored_, shape_.changes, shape_.alphabet));
            refs_.push_back(topKReference(queries_.back(), stored_,
                                          shape_.k, shape_.dot));
            args_.push_back(
                {rt::Buffer::fromMatrix({queries_.back()}), storedBuf_});
        }
        source_ = sourceFor(shape_.storedRows);
        options_.spec = shape_.spec;
    }

    void
    teardown() override
    {
        engine_.reset();
        kernel_.reset();
    }

    void
    build(support::TraceCollector *trace) override
    {
        core::AsyncServingOptions async;
        async.trace = trace;
        if (shape_.shards > 0) {
            core::ShardedEngineOptions sharding;
            sharding.shards = shape_.shards;
            engine_ = std::make_unique<core::AsyncServingEngine>(
                std::make_unique<core::ShardedEngine>(options_, source_,
                                                      args_[0], sharding),
                async);
        } else {
            kernel_ = std::make_unique<core::CompiledKernel>(
                core::Compiler(options_).compileTorchScript(source_));
            engine_ = kernel_->createAsyncServingEngine(args_[0], 1, async);
        }
    }

    std::int64_t
    warmUp(std::size_t ops) override
    {
        std::int64_t wrong = 0;
        for (std::size_t n = 0; n < ops; ++n) {
            std::size_t qi = n % queries_.size();
            core::ExecutionResult r = engine_->submit(args_[qi]).get();
            if (!haveRef_) {
                ref_ = r.perf;
                refSim_ = SimFigures::perQuery(ref_, 1.0);
                haveRef_ = true;
            }
            if (!accepts(qi, r) ||
                SimFigures::perQuery(r.perf, 1.0) != refSim_)
                ++wrong;
        }
        return wrong;
    }

    /** One closed-loop client on the calling thread: the next query is
     *  submitted when the previous one's future is ready. */
    OpStats
    measure(double seconds, std::size_t max_ops, Spans &) override
    {
        OpStats stats;
        const Clock::time_point start = Clock::now();
        const Clock::time_point deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        for (std::size_t n = 0; n < max_ops && Clock::now() < deadline;
             ++n) {
            std::size_t qi = n % queries_.size();
            Clock::time_point t0 = Clock::now();
            try {
                core::ExecutionResult r = engine_->submit(args_[qi]).get();
                Clock::time_point t1 = Clock::now();
                score(stats, qi, r, secondsBetween(start, t1),
                      usBetween(t0, t1));
            } catch (const std::exception &) {
                stats.fail(secondsBetween(start, Clock::now()));
            }
            stats.elapsedS = stats.ops.back().doneS;
        }
        stats.sim = refSim_;
        return stats;
    }

    void
    servingCounters(MetricSet &out) const override
    {
        core::AsyncServingStats s = engine_->stats();
        out.set("core.fused_windows", static_cast<double>(s.fusedWindows),
                "count");
        out.set("core.single_dispatches",
                static_cast<double>(s.singleDispatches), "count");
        out.set("core.mean_fused_k",
                s.fusedWindows > 0 ? static_cast<double>(s.fusedQueries) /
                                         static_cast<double>(s.fusedWindows)
                                   : 0.0,
                "queries");
    }

    void
    probe(Spans &spans, MetricSet &out) override
    {
        ScopedSpan root(spans, "probe");
        const int reps = smoke_ ? 2 : 7;

        // The kernels the devices actually replay: one per shard slice
        // (equal slices, so one shape) or the whole stored matrix.
        const int parts = std::max(shape_.shards, 1);
        const std::int64_t slice_rows = shape_.storedRows / parts;
        std::vector<Matrix> slices;
        for (int p = 0; p < parts; ++p)
            slices.emplace_back(stored_.begin() + p * slice_rows,
                                stored_.begin() + (p + 1) * slice_rows);
        std::vector<std::vector<rt::BufferPtr>> part_args;
        for (const Matrix &slice : slices)
            part_args.push_back(
                {args_[0][0], rt::Buffer::fromMatrix(slice)});

        KernelShape shape{sourceFor(slice_rows), shape_.spec, part_args[0],
                          1};
        probeCompile({shape}, reps, spans, root.get(), out);

        // sim: standalone devices with the served tile layout.
        SimProbe sim;
        std::vector<TiledDevice> devices;
        {
            ScopedSpan span(spans, "sim.program", root.get());
            Clock::time_point start = Clock::now();
            for (const Matrix &slice : slices)
                devices.emplace_back(shape_.spec, slice, !shape_.dot);
            sim.programMs = secondsBetween(start, Clock::now()) * 1e3;
        }
        const std::size_t probe_queries = smoke_ ? 8 : 256;
        std::vector<std::vector<std::vector<std::vector<float>>>> cut;
        for (std::size_t q = 0; q < probe_queries; ++q) {
            cut.emplace_back();
            for (const TiledDevice &device : devices)
                cut.back().push_back(
                    device.sliceQuery(queries_[q % queries_.size()]));
        }
        {
            ScopedSpan span(spans, "sim.search", root.get());
            Clock::time_point start = Clock::now();
            for (const auto &per_device : cut)
                for (std::size_t d = 0; d < devices.size(); ++d)
                    devices[d].search(per_device[d]);
            sim.searchUs = usBetween(start, Clock::now());
        }
        sim.queries = static_cast<double>(probe_queries);
        for (const TiledDevice &device : devices)
            sim.searches += static_cast<double>(device.searches());
        reportSimProbe(sim,
                       static_cast<double>(ref_.searches) * sim.queries,
                       out);

        probeCore(part_args, reps, spans, root.get(), out);
    }

  private:
    std::string
    sourceFor(std::int64_t rows) const
    {
        return shape_.dot
                   ? apps::dotSimilaritySource(1, rows, shape_.dims, shape_.k)
                   : apps::knnEuclideanSource(1, rows, shape_.dims,
                                              shape_.k);
    }

    bool
    accepts(std::size_t qi, const core::ExecutionResult &r) const
    {
        if (r.outputs.size() != 2)
            return false;
        std::vector<double> values = r.outputs[0].asBuffer()->toVector();
        std::vector<double> indices = r.outputs[1].asBuffer()->toVector();
        return values.size() == static_cast<std::size_t>(shape_.k) &&
               indices.size() == values.size() &&
               acceptsTopK(refs_[qi], values.data(), indices.data(),
                           shape_.k);
    }

    /** Score one completed operation into @p stats. */
    void
    score(OpStats &stats, std::size_t qi, const core::ExecutionResult &r,
          double done_s, double latency_us) const
    {
        stats.complete(done_s, latency_us, accepts(qi, r));
        if (SimFigures::perQuery(r.perf, 1.0) != refSim_)
            ++stats.simMismatches;
    }

    /** core.* probes: session creation and serial session serving
     *  with no serving tier in front. */
    void
    probeCore(const std::vector<std::vector<rt::BufferPtr>> &part_args,
              int reps, Spans &spans, const Spans::Open *parent,
              MetricSet &out)
    {
        std::vector<std::unique_ptr<core::CompiledKernel>> kernels;
        for (const auto &args : part_args)
            kernels.push_back(std::make_unique<core::CompiledKernel>(
                core::Compiler(options_).compileTorchScript(sourceFor(
                    args[1]->shape()[0]))));

        std::vector<double> create;
        std::vector<core::ExecutionSession> sessions;
        for (int r = 0; r < reps; ++r) {
            sessions.clear();
            ScopedSpan span(spans, "core.session-create", parent);
            Clock::time_point start = Clock::now();
            for (std::size_t p = 0; p < kernels.size(); ++p)
                sessions.push_back(kernels[p]->createSession(part_args[p]));
            create.push_back(secondsBetween(start, Clock::now()) * 1e3);
        }
        out.set("core.session_create_ms", median(create), "ms");

        const std::size_t serial = std::min<std::size_t>(200, queries_.size());
        ScopedSpan span(spans, "core.session-serial", parent);
        Clock::time_point start = Clock::now();
        for (std::size_t q = 0; q < serial; ++q)
            for (std::size_t p = 0; p < sessions.size(); ++p)
                sessions[p].runQuery({args_[q][0], part_args[p][1]});
        out.set("core.session_us_per_query",
                usBetween(start, Clock::now()) / static_cast<double>(serial),
                "us");
    }

    ServingShape shape_;
    bool smoke_;
    core::CompilerOptions options_;
    std::string source_;
    Matrix stored_;
    rt::BufferPtr storedBuf_;
    Matrix queries_;
    std::vector<TopKReference> refs_;
    std::vector<std::vector<rt::BufferPtr>> args_;

    /** Simulated report every query must reproduce (first warm-up). */
    sim::PerfReport ref_;
    SimFigures refSim_;
    bool haveRef_ = false;

    /** Declared before the engine, which borrows the kernel. */
    std::unique_ptr<core::CompiledKernel> kernel_;
    std::unique_ptr<core::AsyncServingEngine> engine_;
};

} // namespace

std::unique_ptr<Workload>
makeServingWorkload(const std::string &name, const RunConfig &config)
{
    return std::make_unique<ServingWorkload>(name, config);
}

} // namespace c4cam::bench
