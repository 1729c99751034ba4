/**
 * @file
 * dtree-acam: decision-tree inference on an analog CAM through
 * apps::runTreeOnAcam. The only path through range programming
 * (writeRanges), wildcard cells and exact-match search; it skips the
 * compiler, the plan and the serving tier.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include "Probes.h"
#include "Workload.h"
#include "apps/Datasets.h"
#include "apps/DecisionTree.h"
#include "sim/CamDevice.h"
#include "support/Rng.h"

namespace c4cam::bench {

namespace {

/** Samples per request: one runTreeOnAcam call, which programs the
 *  ACAM and then classifies the batch. Requests of a few milliseconds
 *  give a median that a moment of the host running someone else's
 *  work does not move. */
constexpr std::size_t kBatch = 10;

class DtreeWorkload : public Workload
{
  public:
    explicit DtreeWorkload(const RunConfig &config)
    {
        // The tree's leaf count sets what a request costs (one search
        // per subarray of leaves), so it is trained on one fixed
        // dataset and every seed serves the same tree; the seed draws
        // the test samples each request carries.
        const std::uint64_t dataset_seed = 11;
        apps::Dataset ds =
            config.smoke
                ? apps::makePneumoniaLike(1000, 2000, 32, 0.8, dataset_seed)
                : apps::makePneumoniaLike(8000, 40000, 32, 0.8,
                                          dataset_seed);
        tree_ = std::make_unique<apps::DecisionTree>(
            apps::DecisionTree::fit(ds, config.smoke ? 8 : 14));
        spec_ = arch::ArchSpec::dseSetup(64, arch::OptTarget::Base);
        spec_.camType = arch::CamDeviceType::Acam;
        spec_.bitsPerCell = 2;
        Rng rng(config.seed);
        for (std::size_t r = 0; r < ds.testX.size() / kBatch; ++r) {
            batches_.emplace_back();
            labels_.emplace_back();
            for (std::size_t i = 0; i < kBatch; ++i) {
                batches_.back().push_back(
                    ds.testX[rng.nextBelow(ds.testX.size())]);
                labels_.back().push_back(
                    tree_->predict(batches_.back().back()));
            }
        }
    }

    double queriesPerOp() const override { return kBatch; }
    const char *rootSpanName() const override { return "request"; }

    void teardown() override {}

    /** The tree's set-up: map the leaves and program the ACAM. */
    void
    build(support::TraceCollector *) override
    {
        apps::runTreeOnAcam(*tree_, spec_, {});
    }

    std::int64_t
    warmUp(std::size_t ops) override
    {
        std::int64_t wrong = 0;
        for (std::size_t n = 0; n < ops; ++n) {
            std::size_t b = n % batches_.size();
            apps::AcamTreeRunResult r =
                apps::runTreeOnAcam(*tree_, spec_, batches_[b]);
            if (!haveRef_) {
                ref_ = r.perf;
                haveRef_ = true;
            }
            if (r.predictions != labels_[b] || !sameReport(r.perf, ref_))
                ++wrong;
        }
        return wrong;
    }

    OpStats
    measure(double seconds, std::size_t max_ops, Spans &spans) override
    {
        OpStats stats;
        const Clock::time_point start = Clock::now();
        const Clock::time_point deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        for (std::size_t n = 0;
             n < max_ops && Clock::now() < deadline; ++n) {
            std::size_t b = n % batches_.size();
            Clock::time_point t0 = Clock::now();
            apps::AcamTreeRunResult r;
            try {
                ScopedSpan root(spans, "request");
                ScopedSpan call(spans, "apps.run-tree", root.get());
                r = apps::runTreeOnAcam(*tree_, spec_, batches_[b]);
            } catch (const std::exception &) {
                stats.fail(secondsBetween(start, Clock::now()));
                continue;
            }
            Clock::time_point t1 = Clock::now();
            stats.complete(secondsBetween(start, t1), usBetween(t0, t1),
                           r.predictions == labels_[b]);
            if (!sameReport(r.perf, ref_))
                ++stats.simMismatches;
        }
        stats.elapsedS = stats.ops.empty() ? 0.0 : stats.ops.back().doneS;
        stats.sim = SimFigures::perQuery(ref_, kBatch);
        return stats;
    }

    /** sim: the leaf boxes programmed into a standalone device the way
     *  runTreeOnAcam packs them, then exact-match searches alone. */
    void
    probe(Spans &spans, MetricSet &out) override
    {
        ScopedSpan root(spans, "probe");
        std::vector<apps::DecisionTree::LeafBox> boxes = tree_->leafBoxes();
        SimProbe sim;
        std::vector<sim::Handle> subs;
        Clock::time_point start = Clock::now();
        sim::CamDevice device(spec_);
        {
            ScopedSpan span(spans, "sim.program", root.get());
            sim::Handle bank = 0, mat = 0, array = 0;
            for (std::size_t placed = 0, p = 0; placed < boxes.size();
                 placed += static_cast<std::size_t>(spec_.rows), ++p) {
                auto in_array = static_cast<int>(p) % spec_.subarraysPerArray;
                auto array_id = static_cast<int>(p) / spec_.subarraysPerArray;
                if (in_array == 0) {
                    if (array_id % spec_.arraysPerMat == 0) {
                        if ((array_id / spec_.arraysPerMat) %
                                spec_.matsPerBank == 0)
                            bank = device.allocBank(spec_.rows, spec_.cols);
                        mat = device.allocMat(bank);
                    }
                    array = device.allocArray(mat);
                }
                sim::Handle sub = device.allocSubarray(array);
                std::size_t count = std::min<std::size_t>(
                    static_cast<std::size_t>(spec_.rows),
                    boxes.size() - placed);
                std::vector<std::vector<sim::CamCell>> cells(count);
                for (std::size_t r = 0; r < count; ++r) {
                    const auto &box = boxes[placed + r];
                    for (std::size_t f = 0; f < box.lo.size(); ++f) {
                        sim::CamCell cell;
                        if (!box.dontCare[f])
                            cell = {box.lo[f], box.hi[f], false};
                        cells[r].push_back(cell);
                    }
                }
                device.writeRanges(sub, cells, 0);
                subs.push_back(sub);
                rows_.push_back(static_cast<int>(count));
            }
        }
        sim.programMs = secondsBetween(start, Clock::now()) * 1e3;

        ScopedSpan span(spans, "sim.search", root.get());
        start = Clock::now();
        for (const auto &batch : batches_) {
            for (const auto &sample : batch) {
                for (std::size_t s = 0; s < subs.size(); ++s) {
                    device.search(subs[s], sample, arch::SearchKind::Exact,
                                  false, 0, rows_[s]);
                    device.read(subs[s]);
                }
            }
            sim.queries += static_cast<double>(kBatch);
            if (sim.queries >= 2000.0)
                break;
        }
        sim.searchUs = usBetween(start, Clock::now());
        sim.searches = static_cast<double>(device.report().searches);
        // No compiled plan: a request replays no plan instructions.
        out.set("runtime.ops_per_query", 0.0, "count");
        reportSimProbe(sim,
                       static_cast<double>(ref_.searches) / kBatch *
                           sim.queries,
                       out);
    }

  private:
    std::unique_ptr<apps::DecisionTree> tree_;
    arch::ArchSpec spec_;
    /** Requests of kBatch test samples and the tree's own labels. */
    std::vector<std::vector<std::vector<float>>> batches_;
    std::vector<std::vector<int>> labels_;
    /** Rows programmed per probe subarray. */
    std::vector<int> rows_;

    sim::PerfReport ref_;
    bool haveRef_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeDtreeWorkload(const RunConfig &config)
{
    return std::make_unique<DtreeWorkload>(config);
}

} // namespace c4cam::bench
