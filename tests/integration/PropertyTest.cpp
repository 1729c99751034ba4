/** @file Parameterized property tests across configurations. */

#include <gtest/gtest.h>

#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "passes/CamMapping.h"
#include "support/Rng.h"

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;

namespace {

/** Host argmin-of-hamming reference on +-1 data. */
std::vector<int>
hostTop1(const std::vector<std::vector<float>> &queries,
         const std::vector<std::vector<float>> &stored)
{
    std::vector<int> out;
    for (const auto &q : queries) {
        int best = 0;
        double best_dot = -1e18;
        for (std::size_t r = 0; r < stored.size(); ++r) {
            double dot = 0.0;
            for (std::size_t d = 0; d < q.size(); ++d)
                dot += double(q[d]) * stored[r][d];
            if (dot > best_dot) {
                best_dot = dot;
                best = static_cast<int>(r);
            }
        }
        out.push_back(best);
    }
    return out;
}

std::vector<std::vector<float>>
randomSigns(std::size_t rows, std::size_t dims, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<float>> out(rows, std::vector<float>(dims));
    for (auto &row : out)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : -1.0f;
    return out;
}

} // namespace

/**
 * Property: for every subarray size and optimization target, the CAM
 * path returns the same nearest neighbor as the host reference, and
 * the timing accounts are internally consistent.
 */
class ConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, OptTarget>>
{};

TEST_P(ConfigSweep, CamEqualsHostAndAccountingConsistent)
{
    auto [size, target] = GetParam();
    ArchSpec spec = ArchSpec::dseSetup(size, target);

    const std::size_t rows = 12;
    const std::size_t dims = 256;
    auto stored = randomSigns(rows, dims, 1000 + size);
    auto queries = randomSigns(4, dims, 2000 + size);
    // Ensure at least one exact hit.
    queries[0] = stored[7];

    core::CompilerOptions options;
    options.spec = spec;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(4, rows, dims, 1));
    core::ExecutionResult result =
        kernel.run({rt::Buffer::fromMatrix(queries),
                    rt::Buffer::fromMatrix(stored)});

    auto reference = hostTop1(queries, stored);
    for (std::int64_t q = 0; q < 4; ++q)
        EXPECT_EQ(result.outputs[1].asBuffer()->atInt({q, 0}),
                  reference[static_cast<std::size_t>(q)])
            << "size " << size << " target " << toString(target)
            << " query " << q;
    EXPECT_EQ(result.outputs[1].asBuffer()->atInt({0, 0}), 7);

    // Accounting invariants.
    EXPECT_GT(result.perf.queryLatencyNs, 0.0);
    EXPECT_GT(result.perf.queryEnergyPj, 0.0);
    EXPECT_GT(result.perf.searches, 0);
    EXPECT_GE(result.perf.subarraysAllocated, result.perf.subarraysUsed);
    EXPECT_GT(result.perf.banksUsed, 0);

    // The mapping plan agrees with what actually ran.
    EXPECT_EQ(kernel.plan().physicalSubarrays,
              result.perf.subarraysUsed);
    EXPECT_EQ(kernel.plan().banks, result.perf.banksUsed);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndTargets, ConfigSweep,
    ::testing::Combine(::testing::Values(16, 32, 64, 128),
                       ::testing::Values(OptTarget::Base,
                                         OptTarget::Power,
                                         OptTarget::Density,
                                         OptTarget::PowerDensity)),
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "_" +
               std::string(toString(std::get<1>(info.param)) ==
                                   std::string("power+density")
                               ? "powerdensity"
                               : toString(std::get<1>(info.param)));
    });

/**
 * Property: the mapping plan's closed forms satisfy their invariants
 * for arbitrary workload shapes.
 */
class PlanSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(PlanSweep, PlanInvariants)
{
    auto [size, n, d] = GetParam();
    for (OptTarget target : {OptTarget::Base, OptTarget::Density}) {
        ArchSpec spec = ArchSpec::dseSetup(size, target);
        auto plan = passes::MappingPlan::compute(spec, 7, n, d);

        // Tiles cover the data exactly.
        EXPECT_GE(plan.rowTiles * spec.rows, n);
        EXPECT_GE(plan.colTiles * spec.cols, d);
        EXPECT_LT((plan.rowTiles - 1) * spec.rows, n);
        EXPECT_LT((plan.colTiles - 1) * spec.cols, d);
        EXPECT_EQ(plan.logicalTiles, plan.rowTiles * plan.colTiles);

        // Physical subarrays cover all logical tiles.
        EXPECT_GE(plan.physicalSubarrays * plan.batchesPerSubarray,
                  plan.logicalTiles);
        // Batching never exceeds the row budget.
        EXPECT_LE(plan.batchesPerSubarray * plan.batchRows, spec.rows);
        // Banks cover all physical subarrays.
        EXPECT_GE(plan.banks * spec.subarraysPerBank(),
                  plan.physicalSubarrays);
        if (target == OptTarget::Base) {
            EXPECT_EQ(plan.batchesPerSubarray, 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanSweep,
    ::testing::Combine(::testing::Values(16, 32, 64, 128, 256),
                       ::testing::Values(2, 10, 100, 5216),
                       ::testing::Values(64, 1024, 8192)),
    [](const auto &info) {
        return "s" + std::to_string(std::get<0>(info.param)) + "_n" +
               std::to_string(std::get<1>(info.param)) + "_d" +
               std::to_string(std::get<2>(info.param));
    });

/**
 * Property: latency ordering between targets holds for every size
 * (base <= power, base <= density+power).
 */
class TargetOrdering : public ::testing::TestWithParam<int>
{};

TEST_P(TargetOrdering, PowerConfigsAreSlower)
{
    int size = GetParam();
    auto stored = randomSigns(10, 512, 42);
    auto queries = randomSigns(2, 512, 43);

    auto run = [&](OptTarget target) {
        core::CompilerOptions options;
        options.spec = ArchSpec::dseSetup(size, target);
        core::Compiler compiler(options);
        auto kernel = compiler.compileTorchScript(
            apps::dotSimilaritySource(2, 10, 512, 1));
        return kernel
            .run({rt::Buffer::fromMatrix(queries),
                  rt::Buffer::fromMatrix(stored)})
            .perf;
    };

    auto base = run(OptTarget::Base);
    auto power = run(OptTarget::Power);
    EXPECT_GE(power.queryLatencyNs, base.queryLatencyNs);
    EXPECT_LE(power.avgPowerMw(), base.avgPowerMw() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TargetOrdering,
                         ::testing::Values(16, 32, 64, 128));

/**
 * Property: fused-window accounting is conservative for random batch
 * widths and query mixes. For any K and any mix of repeated /
 * stored-row / random queries, runFusedBatch totals must equal the
 * sum of the serial query windows EXACTLY (fusion re-attributes cost,
 * it never creates or destroys any), and the amortized per-query
 * shares must multiply back to the totals.
 */
class FusedAccountingSweep : public ::testing::TestWithParam<int>
{};

TEST_P(FusedAccountingSweep, FusedTotalsEqualSerialSumForRandomMixes)
{
    const int trial = GetParam();
    Rng rng(7000 + static_cast<std::uint64_t>(trial));

    const std::int64_t rows = 4 + static_cast<std::int64_t>(
                                      rng.nextBelow(9)); // 4..12
    const std::int64_t dims = 32 * (1 + static_cast<std::int64_t>(
                                            rng.nextBelow(3))); // 32..96
    const int k = 1 + static_cast<int>(rng.nextBelow(6));       // 1..6

    auto stored = randomSigns(static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(dims),
                              9000 + static_cast<std::uint64_t>(trial));
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::dotSimilaritySource(1, rows, dims, 1));

    // Random query mix: stored rows, duplicates, fresh random rows.
    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int q = 0; q < k; ++q) {
        std::vector<float> row;
        if (rng.nextBool(0.6)) {
            row = stored[rng.nextBelow(stored.size())];
        } else {
            row.resize(static_cast<std::size_t>(dims));
            for (auto &v : row)
                v = rng.nextBool() ? 1.0f : -1.0f;
        }
        queries.push_back({rt::Buffer::fromMatrix({row}), stored_buf});
    }

    core::ExecutionSession serial = kernel.createSession(queries[0]);
    std::vector<core::ExecutionResult> serial_results =
        serial.runBatch(queries);

    core::ExecutionSession fused_session =
        kernel.createSession(queries[0]);
    core::FusedBatchResult fused = fused_session.runFusedBatch(queries);

    ASSERT_EQ(fused.results.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(fused.fusedReport.fusedBatchK, k);
    EXPECT_EQ(fused.fusedReport.queriesServed, k);

    double lat = 0.0, energy = 0.0, cell = 0.0, sense = 0.0;
    double drive = 0.0, merge = 0.0;
    std::int64_t searches = 0;
    for (int q = 0; q < k; ++q) {
        const sim::PerfReport &s =
            serial_results[static_cast<std::size_t>(q)].perf;
        lat += s.queryLatencyNs;
        energy += s.queryEnergyPj;
        cell += s.cellEnergyPj;
        sense += s.senseEnergyPj;
        drive += s.driveEnergyPj;
        merge += s.mergeEnergyPj;
        searches += s.searches;
        // Per-query results inside the fused pass stay bit-identical
        // to serial serving.
        const sim::PerfReport &f =
            fused.results[static_cast<std::size_t>(q)].perf;
        EXPECT_EQ(f.queryLatencyNs, s.queryLatencyNs) << "query " << q;
        EXPECT_EQ(f.queryEnergyPj, s.queryEnergyPj) << "query " << q;
        EXPECT_EQ(f.searches, s.searches) << "query " << q;
        EXPECT_EQ(fused.results[static_cast<std::size_t>(q)]
                      .outputs[1]
                      .asBuffer()
                      ->toVector(),
                  serial_results[static_cast<std::size_t>(q)]
                      .outputs[1]
                      .asBuffer()
                      ->toVector())
            << "query " << q;
    }

    // Exact equality: the fused totals ARE the serial sum (the same
    // doubles folded in the same order), not an approximation of it.
    EXPECT_EQ(fused.fusedReport.queryLatencyNs, lat);
    EXPECT_EQ(fused.fusedReport.queryEnergyPj, energy);
    EXPECT_EQ(fused.fusedReport.cellEnergyPj, cell);
    EXPECT_EQ(fused.fusedReport.senseEnergyPj, sense);
    EXPECT_EQ(fused.fusedReport.driveEnergyPj, drive);
    EXPECT_EQ(fused.fusedReport.mergeEnergyPj, merge);
    EXPECT_EQ(fused.fusedReport.searches, searches);

    // Amortized per-query shares multiply back to the totals (one
    // rounding each way at most -- DOUBLE_EQ, not exact).
    const double dk = static_cast<double>(k);
    EXPECT_DOUBLE_EQ(fused.fusedReport.avgQueryLatencyNs() * dk, lat);
    EXPECT_DOUBLE_EQ(fused.fusedReport.avgQueryEnergyPj() * dk, energy);
    EXPECT_DOUBLE_EQ(fused.fusedReport.fusedDriveEnergyPerQueryPj() * dk,
                     drive);

    // The setup share multiplies back too: setup is the session's
    // one-time cost, paid once, not once per fused query.
    const sim::PerfReport &report = fused.fusedReport;
    EXPECT_DOUBLE_EQ(report.fusedSetupEnergyPerQueryPj() * dk,
                     report.setupEnergyPj);
    EXPECT_EQ(report.setupLatencyNs,
              fused_session.setupReport().setupLatencyNs);
    EXPECT_EQ(report.setupEnergyPj,
              fused_session.setupReport().setupEnergyPj);
}

TEST_P(FusedAccountingSweep, TrueFusedNeverExceedsSerialAndKeepsOutputs)
{
    // The flag-on counterpart: under sim::FusionModel::TrueFused the
    // fused pass drives each subarray once, so for any K >= 2 the
    // amortizable totals come in strictly below the serial sum while
    // sense/merge work, search counts and outputs stay exactly those
    // of serial serving. A K=1 "pass" has nothing to amortize and must
    // equal serial exactly.
    const int trial = GetParam();
    Rng rng(7000 + static_cast<std::uint64_t>(trial));

    const std::int64_t rows = 4 + static_cast<std::int64_t>(
                                      rng.nextBelow(9)); // 4..12
    const std::int64_t dims = 32 * (1 + static_cast<std::int64_t>(
                                            rng.nextBelow(3))); // 32..96
    const int k = 1 + static_cast<int>(rng.nextBelow(6));       // 1..6

    auto stored = randomSigns(static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(dims),
                              9000 + static_cast<std::uint64_t>(trial));
    auto stored_buf = rt::Buffer::fromMatrix(stored);

    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    core::Compiler serial_compiler(options);
    core::CompiledKernel serial_kernel = serial_compiler.compileTorchScript(
        apps::dotSimilaritySource(1, rows, dims, 1));
    core::CompilerOptions fused_options = options;
    fused_options.fusionModel = sim::FusionModel::TrueFused;
    core::Compiler fused_compiler(fused_options);
    core::CompiledKernel fused_kernel = fused_compiler.compileTorchScript(
        apps::dotSimilaritySource(1, rows, dims, 1));

    // Same random query mix as the flag-off sweep (same draw order).
    std::vector<std::vector<rt::BufferPtr>> queries;
    for (int q = 0; q < k; ++q) {
        std::vector<float> row;
        if (rng.nextBool(0.6)) {
            row = stored[rng.nextBelow(stored.size())];
        } else {
            row.resize(static_cast<std::size_t>(dims));
            for (auto &v : row)
                v = rng.nextBool() ? 1.0f : -1.0f;
        }
        queries.push_back({rt::Buffer::fromMatrix({row}), stored_buf});
    }

    core::ExecutionSession serial = serial_kernel.createSession(queries[0]);
    std::vector<core::ExecutionResult> serial_results =
        serial.runBatch(queries);

    core::ExecutionSession fused_session =
        fused_kernel.createSession(queries[0]);
    core::FusedBatchResult fused = fused_session.runFusedBatch(queries);

    ASSERT_EQ(fused.results.size(), static_cast<std::size_t>(k));

    double lat = 0.0, energy = 0.0, cell = 0.0, sense = 0.0;
    double drive = 0.0, merge = 0.0;
    std::int64_t searches = 0;
    for (int q = 0; q < k; ++q) {
        const sim::PerfReport &s =
            serial_results[static_cast<std::size_t>(q)].perf;
        lat += s.queryLatencyNs;
        energy += s.queryEnergyPj;
        cell += s.cellEnergyPj;
        sense += s.senseEnergyPj;
        drive += s.driveEnergyPj;
        merge += s.mergeEnergyPj;
        searches += s.searches;
        // Outputs stay bit-identical in every fusion model.
        EXPECT_EQ(fused.results[static_cast<std::size_t>(q)]
                      .outputs[1]
                      .asBuffer()
                      ->toVector(),
                  serial_results[static_cast<std::size_t>(q)]
                      .outputs[1]
                      .asBuffer()
                      ->toVector())
            << "query " << q;
    }

    // Non-amortizable components match serial exactly.
    EXPECT_EQ(fused.fusedReport.senseEnergyPj, sense);
    EXPECT_EQ(fused.fusedReport.mergeEnergyPj, merge);
    EXPECT_EQ(fused.fusedReport.searches, searches);
    if (k >= 2) {
        // Amortizable components shrink -- strictly.
        EXPECT_LT(fused.fusedReport.queryLatencyNs, lat);
        EXPECT_LT(fused.fusedReport.queryEnergyPj, energy);
        EXPECT_LT(fused.fusedReport.cellEnergyPj, cell);
        EXPECT_LT(fused.fusedReport.driveEnergyPj, drive);
    } else {
        // A single-query pass drives everything itself: exact serial.
        EXPECT_EQ(fused.fusedReport.queryLatencyNs, lat);
        EXPECT_EQ(fused.fusedReport.queryEnergyPj, energy);
        EXPECT_EQ(fused.fusedReport.cellEnergyPj, cell);
        EXPECT_EQ(fused.fusedReport.driveEnergyPj, drive);
    }
    EXPECT_EQ(fused.fusedReport.fusedBatchK, k);
    EXPECT_EQ(fused.fusedReport.queriesServed, k);
}

INSTANTIATE_TEST_SUITE_P(RandomMixes, FusedAccountingSweep,
                         ::testing::Range(0, 8));
