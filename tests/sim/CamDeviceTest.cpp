/** @file Hierarchical CAM device tests. */

#include <gtest/gtest.h>

#include <limits>

#include "sim/CamDevice.h"
#include "support/Error.h"

using namespace c4cam;
using namespace c4cam::sim;
using c4cam::arch::ArchSpec;
using c4cam::arch::SearchKind;

namespace {

// CamDevice::search takes a span, which a braced list cannot bind to.
const std::vector<float> kAlternating = {1, 0, 1, 0};
const std::vector<float> kOnes = {1, 1, 1, 1};

ArchSpec
smallSpec()
{
    ArchSpec spec;
    spec.rows = 4;
    spec.cols = 4;
    spec.subarraysPerArray = 2;
    spec.arraysPerMat = 2;
    spec.matsPerBank = 2;
    return spec;
}

} // namespace

TEST(CamDevice, AllocationHierarchy)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle mat = device.allocMat(bank);
    Handle array = device.allocArray(mat);
    Handle sub0 = device.allocSubarray(array);
    Handle sub1 = device.allocSubarray(array);
    EXPECT_EQ(device.numBanks(), 1);
    EXPECT_EQ(device.numAllocatedSubarrays(), 2);
    EXPECT_EQ(device.subarrayAt(0, 0, 0, 0), sub0);
    EXPECT_EQ(device.subarrayAt(0, 0, 0, 1), sub1);
}

TEST(CamDevice, AllocationLimitsEnforced)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle mat = device.allocMat(bank);
    Handle array = device.allocArray(mat);
    device.allocSubarray(array);
    device.allocSubarray(array);
    EXPECT_THROW(device.allocSubarray(array), CompilerError); // max 2
    device.allocArray(mat);
    EXPECT_THROW(device.allocArray(mat), CompilerError); // max 2
    device.allocMat(bank);
    EXPECT_THROW(device.allocMat(bank), CompilerError); // max 2
}

TEST(CamDevice, FixedBankCountEnforced)
{
    ArchSpec spec = smallSpec();
    spec.numBanks = 1;
    CamDevice device(spec);
    device.allocBank(4, 4);
    EXPECT_THROW(device.allocBank(4, 4), CompilerError);
}

TEST(CamDevice, GeometryMustMatchSpec)
{
    CamDevice device(smallSpec());
    EXPECT_THROW(device.allocBank(8, 8), CompilerError);
}

TEST(CamDevice, WrongHandleKindRejected)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    EXPECT_THROW(device.allocArray(bank), CompilerError);
    EXPECT_THROW(device.allocMat(999), CompilerError);
    EXPECT_THROW(device.subarrayAt(0, 0, 0, 0), CompilerError);
}

TEST(CamDevice, SearchReadRoundTrip)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub = device.allocSubarray(
        device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}, {0, 1, 0, 1}});
    device.search(sub, kAlternating, SearchKind::Best, false, 0, 2);
    const SearchResult &r = device.read(sub);
    ASSERT_EQ(r.values.size(), 2u);
    EXPECT_FLOAT_EQ(r.values[0], 0.0f);
    EXPECT_FLOAT_EQ(r.values[1], 4.0f);
}

TEST(CamDevice, ReadBeforeSearchRejected)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub = device.allocSubarray(
        device.allocArray(device.allocMat(bank)));
    EXPECT_THROW(device.read(sub), CompilerError);
}

TEST(CamDevice, WritesAccountAsSetupSearchesAsQuery)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub = device.allocSubarray(
        device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}});
    PerfReport after_write = device.report();
    EXPECT_GT(after_write.setupLatencyNs, 0.0);
    EXPECT_DOUBLE_EQ(after_write.queryLatencyNs, 0.0);
    EXPECT_EQ(after_write.writes, 1);

    device.search(sub, kAlternating, SearchKind::Best, false);
    PerfReport after_search = device.report();
    EXPECT_GT(after_search.queryLatencyNs, 0.0);
    EXPECT_GT(after_search.queryEnergyPj, 0.0);
    EXPECT_EQ(after_search.searches, 1);
    EXPECT_DOUBLE_EQ(after_search.setupLatencyNs,
                     after_write.setupLatencyNs);
}

TEST(CamDevice, SelectiveSearchUsesLessEnergy)
{
    ArchSpec spec = smallSpec();
    spec.rows = 32;
    CamDevice device(spec);
    Handle bank = device.allocBank(32, 4);
    Handle mat = device.allocMat(bank);
    Handle array = device.allocArray(mat);
    Handle full = device.allocSubarray(array);
    Handle windowed = device.allocSubarray(array);
    device.writeValue(full, {{1, 0, 1, 0}});
    device.writeValue(windowed, {{1, 0, 1, 0}});

    device.search(full, kAlternating, SearchKind::Best, false);
    double full_energy = device.report().queryEnergyPj;
    device.search(windowed, kAlternating, SearchKind::Best, false, 0, 4,
                  0.0, /*selective=*/true);
    double windowed_energy =
        device.report().queryEnergyPj - full_energy;
    EXPECT_LT(windowed_energy, full_energy);
}

TEST(CamDevice, ParallelScopesShapeLatency)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle array = device.allocArray(device.allocMat(bank));
    Handle a = device.allocSubarray(array);
    Handle b = device.allocSubarray(array);
    device.writeValue(a, {{1, 1, 1, 1}});
    device.writeValue(b, {{0, 0, 0, 0}});

    device.timing().beginScope(/*parallel=*/true);
    device.search(a, kOnes, SearchKind::Best, false);
    device.search(b, kOnes, SearchKind::Best, false);
    device.timing().endScope();
    double parallel_latency = device.report().queryLatencyNs;

    CamDevice device2(smallSpec());
    Handle bank2 = device2.allocBank(4, 4);
    Handle array2 = device2.allocArray(device2.allocMat(bank2));
    Handle c = device2.allocSubarray(array2);
    Handle d = device2.allocSubarray(array2);
    device2.writeValue(c, {{1, 1, 1, 1}});
    device2.writeValue(d, {{0, 0, 0, 0}});
    device2.timing().beginScope(/*parallel=*/false);
    device2.search(c, kOnes, SearchKind::Best, false);
    device2.search(d, kOnes, SearchKind::Best, false);
    device2.timing().endScope();
    double sequential_latency = device2.report().queryLatencyNs;

    EXPECT_DOUBLE_EQ(sequential_latency, 2.0 * parallel_latency);
    EXPECT_DOUBLE_EQ(device.report().queryEnergyPj,
                     device2.report().queryEnergyPj);
}

TEST(CamDevice, UtilizationTracking)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle array = device.allocArray(device.allocMat(bank));
    Handle used = device.allocSubarray(array);
    device.allocSubarray(array); // allocated but never written
    device.writeValue(used, {{1, 0, 1, 0}});
    PerfReport report = device.report();
    EXPECT_EQ(report.subarraysAllocated, 2);
    EXPECT_EQ(report.subarraysUsed, 1);
    EXPECT_DOUBLE_EQ(report.utilization(), 0.5);
}

TEST(CamDevice, MergeAndTransferCosts)
{
    CamDevice device(smallSpec());
    device.postMerge(16);
    device.postQueryTransfer(64);
    PerfReport report = device.report();
    EXPECT_GT(report.queryLatencyNs, 0.0);
    EXPECT_GT(report.queryEnergyPj, 0.0);
}

//
// Misuse paths: malformed handles and out-of-order data-path calls
// must surface located CompilerErrors, never UB or raw std exceptions.
//

TEST(CamDevice, RejectsInvalidHandles)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));
    (void)sub;

    // Negative and out-of-range handles are user errors, not UB.
    EXPECT_THROW(device.writeValue(-1, {{1, 1, 1, 1}}), CompilerError);
    EXPECT_THROW(device.writeValue(9999, {{1, 1, 1, 1}}), CompilerError);
    EXPECT_THROW(device.search(-7, kOnes, SearchKind::Best, false),
                 CompilerError);
    EXPECT_THROW(device.read(std::numeric_limits<Handle>::min()),
                 CompilerError);
    EXPECT_THROW(device.allocMat(-1), CompilerError);
    EXPECT_THROW(device.allocArray(1000), CompilerError);
    EXPECT_THROW(device.subarray(-1), CompilerError);
}

TEST(CamDevice, RejectsWrongHierarchyLevelHandles)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle mat = device.allocMat(bank);
    Handle array = device.allocArray(mat);
    Handle sub = device.allocSubarray(array);

    // A bank handle is not a subarray handle (and vice versa).
    EXPECT_THROW(device.writeValue(bank, {{1, 1, 1, 1}}), CompilerError);
    EXPECT_THROW(device.search(mat, std::vector<float>{1}, SearchKind::Best,
                               false),
                 CompilerError);
    EXPECT_THROW(device.allocMat(sub), CompilerError);
    EXPECT_THROW(device.allocSubarray(mat), CompilerError);
    // The diagnostic names both hierarchy levels.
    try {
        device.read(bank);
        FAIL() << "expected CompilerError";
    } catch (const CompilerError &err) {
        EXPECT_NE(std::string(err.what()).find("bank"), std::string::npos);
        EXPECT_NE(std::string(err.what()).find("subarray"),
                  std::string::npos);
    }
}

TEST(CamDevice, ReadBeforeSearchIsDiagnosed)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}});

    try {
        device.read(sub);
        FAIL() << "expected CompilerError";
    } catch (const CompilerError &err) {
        // The error names the subarray and the missing search.
        std::string msg = err.what();
        EXPECT_NE(msg.find("subarray"), std::string::npos);
        EXPECT_NE(msg.find("search"), std::string::npos);
    }
    // After a search, read works.
    device.search(sub, kAlternating, SearchKind::Best, false);
    EXPECT_EQ(device.read(sub).values.size(), 4u);
}

TEST(CamDevice, RejectsOutOfBoundsWrites)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));

    EXPECT_THROW(device.writeValue(sub, {{1, 1, 1, 1}}, /*row_offset=*/-1),
                 CompilerError);
    EXPECT_THROW(device.writeValue(sub, {{1}, {1}, {1}, {1}, {1}}),
                 CompilerError);
    EXPECT_THROW(device.writeValue(sub, {{1, 1, 1, 1, 1}}), CompilerError);
}

TEST(CamDevice, QueryWindowResetsQueryCostsOnly)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}});
    device.search(sub, kAlternating, SearchKind::Best, false);

    PerfReport first = device.report();
    EXPECT_GT(first.queryLatencyNs, 0.0);
    EXPECT_GT(first.setupLatencyNs, 0.0);
    EXPECT_EQ(first.searches, 1);

    device.beginQueryWindow();
    PerfReport cleared = device.report();
    EXPECT_EQ(cleared.queryLatencyNs, 0.0);
    EXPECT_EQ(cleared.queryEnergyPj, 0.0);
    EXPECT_EQ(cleared.searches, 0);
    // Setup costs, programmed data and allocations survive.
    EXPECT_EQ(cleared.setupLatencyNs, first.setupLatencyNs);
    EXPECT_EQ(cleared.writes, first.writes);
    EXPECT_EQ(cleared.subarraysUsed, first.subarraysUsed);

    // Stale results do not leak across windows: reading before the new
    // window's search is diagnosed exactly like on a fresh device.
    EXPECT_THROW(device.read(sub), CompilerError);

    // A second identical query window reproduces the first bit-for-bit.
    device.search(sub, kAlternating, SearchKind::Best, false);
    PerfReport second = device.report();
    EXPECT_EQ(second.queryLatencyNs, first.queryLatencyNs);
    EXPECT_EQ(second.queryEnergyPj, first.queryEnergyPj);
    EXPECT_EQ(second.cellEnergyPj, first.cellEnergyPj);
    EXPECT_EQ(second.senseEnergyPj, first.senseEnergyPj);
}

TEST(CamDevice, CloneProgrammedReportsIdenticalSetup)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}, {0, 1, 0, 1}});

    std::unique_ptr<CamDevice> clone = device.cloneProgrammed();
    PerfReport original = device.report();
    PerfReport copied = clone->report();
    // Setup accounting and allocation state are bit-identical...
    EXPECT_EQ(copied.setupLatencyNs, original.setupLatencyNs);
    EXPECT_EQ(copied.setupEnergyPj, original.setupEnergyPj);
    EXPECT_EQ(copied.writes, original.writes);
    EXPECT_EQ(copied.subarraysUsed, original.subarraysUsed);
    EXPECT_EQ(copied.subarraysAllocated, original.subarraysAllocated);
    EXPECT_EQ(copied.banksUsed, original.banksUsed);
    // ...and the clone starts inside a fresh query window.
    EXPECT_EQ(copied.queryLatencyNs, 0.0);
    EXPECT_EQ(copied.searches, 0);
}

TEST(CamDevice, CloneProgrammedIsIndependent)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}});

    std::unique_ptr<CamDevice> clone = device.cloneProgrammed();

    // Handle numbering carries over: the same handle addresses the
    // same (copied) subarray on the clone.
    clone->search(sub, kAlternating, SearchKind::Best, false);
    const SearchResult &result = clone->read(sub);
    ASSERT_FALSE(result.matchedRows.empty());
    EXPECT_EQ(result.matchedRows[0], 0);

    // The original never saw that search.
    EXPECT_EQ(device.report().searches, 0);
    EXPECT_THROW(device.read(sub), CompilerError);

    // Identical queries on original and clone cost exactly the same.
    device.search(sub, kAlternating, SearchKind::Best, false);
    PerfReport a = device.report();
    PerfReport b = clone->report();
    EXPECT_EQ(a.queryLatencyNs, b.queryLatencyNs);
    EXPECT_EQ(a.queryEnergyPj, b.queryEnergyPj);
    EXPECT_EQ(a.searches, b.searches);

    // Writing to the clone does not touch the original's cells.
    clone->writeValue(sub, {{0, 0, 0, 0}});
    device.search(sub, kAlternating, SearchKind::Best, false);
    EXPECT_EQ(device.read(sub).matchedRows[0], 0);
}

TEST(CamDevice, AbortQueryWindowDropsResultsAndSearches)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}});
    device.timing().beginScope(/*parallel=*/false);
    device.search(sub, kAlternating, SearchKind::Best, false);
    ASSERT_EQ(device.read(sub).values.size(), 4u);

    // An unwound query's results are as unreadable as a finished
    // window's, and its searches are not counted.
    device.abortQueryWindow();
    EXPECT_THROW(device.read(sub), CompilerError);
    EXPECT_EQ(device.report().searches, 0);
    EXPECT_EQ(device.timing().depth(), 0);

    device.search(sub, kAlternating, SearchKind::Best, false, 0, 1);
    EXPECT_EQ(device.read(sub).matchedRows, std::vector<std::int32_t>{0});
    EXPECT_EQ(device.report().searches, 1);
}

TEST(CamDevice, CloneCannotReadTheOriginalsLastResult)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle sub =
        device.allocSubarray(device.allocArray(device.allocMat(bank)));
    device.writeValue(sub, {{1, 0, 1, 0}});
    device.search(sub, kAlternating, SearchKind::Best, false);

    std::unique_ptr<CamDevice> clone = device.cloneProgrammed();
    EXPECT_THROW(clone->read(sub), CompilerError);
    // The original still reads its own result.
    EXPECT_EQ(device.read(sub).values.size(), 4u);
}

TEST(CamDevice, ReadReferenceSurvivesLaterAllocations)
{
    CamDevice device(smallSpec());
    Handle bank = device.allocBank(4, 4);
    Handle array = device.allocArray(device.allocMat(bank));
    Handle sub = device.allocSubarray(array);
    device.writeValue(sub, {{1, 0, 1, 0}, {0, 1, 0, 1}});
    device.search(sub, kAlternating, SearchKind::Best, false, 0, 2);
    const SearchResult &result = device.read(sub);
    CamSubarray &cells = device.subarray(sub);

    // Grow every level of the hierarchy after taking the references.
    device.allocSubarray(array);
    Handle more = device.allocArray(device.allocMat(bank));
    device.allocSubarray(more);
    device.allocSubarray(more);

    ASSERT_EQ(result.values.size(), 2u);
    EXPECT_FLOAT_EQ(result.values[0], 0.0f);
    EXPECT_FLOAT_EQ(result.values[1], 4.0f);
    EXPECT_EQ(&result, &device.read(sub));
    EXPECT_EQ(&cells, &device.subarray(sub));
    EXPECT_EQ(cells.writtenRows(), 2);
}

TEST(CamDevice, CloneProgrammedRejectsOpenScopes)
{
    CamDevice device(smallSpec());
    device.timing().beginScope(/*parallel=*/false);
    EXPECT_THROW(device.cloneProgrammed(), CompilerError);
    device.timing().endScope();
    EXPECT_NO_THROW(device.cloneProgrammed());
}

//
// Fused multi-query passes
//

namespace {

/** Program one subarray and return its handle. */
Handle
programOneSubarray(CamDevice &device)
{
    Handle bank = device.allocBank(4, 4);
    Handle mat = device.allocMat(bank);
    Handle array = device.allocArray(mat);
    Handle sub = device.allocSubarray(array);
    device.writeValue(sub, {{1, 0, 1, 0}, {0, 1, 0, 1}}, 0);
    return sub;
}

} // namespace

TEST(CamDevice, FusedPassMisuseDiagnosed)
{
    CamDevice device(smallSpec());
    programOneSubarray(device);

    // Ending a pass that is not open.
    EXPECT_THROW(device.endFusedPass(), CompilerError);
    device.beginFusedPass();
    // Fused passes do not nest.
    EXPECT_THROW(device.beginFusedPass(), CompilerError);
    // Cloning or switching the fusion model mid-pass is rejected.
    EXPECT_THROW(device.cloneProgrammed(), CompilerError);
    EXPECT_THROW(device.setFusionModel(FusionModel::TrueFused),
                 CompilerError);
    device.endFusedPass();
    EXPECT_THROW(device.endFusedPass(), CompilerError);
    // abortQueryWindow closes an open pass.
    device.beginFusedPass();
    device.abortQueryWindow();
    EXPECT_THROW(device.endFusedPass(), CompilerError);
    EXPECT_NE(device.cloneProgrammed(), nullptr);
}
