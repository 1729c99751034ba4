/** @file Functional CAM subarray tests. */

#include <cmath>

#include <gtest/gtest.h>

#include "sim/CamSubarray.h"
#include "support/Error.h"

using namespace c4cam;
using namespace c4cam::sim;
using c4cam::arch::CamDeviceType;
using c4cam::arch::SearchKind;

namespace {

CamSubarray
makeTcam()
{
    CamSubarray sub(8, 8, CamDeviceType::Tcam, 1);
    // Rows 0..3 hold distinct bit patterns.
    sub.write({{0, 0, 0, 0, 0, 0, 0, 0},
               {1, 1, 1, 1, 1, 1, 1, 1},
               {1, 0, 1, 0, 1, 0, 1, 0},
               {1, 1, 0, 0, 1, 1, 0, 0}},
              0);
    return sub;
}

} // namespace

TEST(CamSubarray, ExactMatchFindsIdenticalRow)
{
    CamSubarray sub = makeTcam();
    // Restrict to the written rows; unwritten rows are wildcards and
    // would exact-match any query.
    SearchResult r = sub.search({1, 0, 1, 0, 1, 0, 1, 0},
                                SearchKind::Exact, false, 0, 4);
    ASSERT_EQ(r.matchedRows.size(), 1u);
    EXPECT_EQ(r.matchedRows[0], 2);
}

TEST(CamSubarray, UnwrittenRowsActAsWildcards)
{
    CamSubarray sub = makeTcam();
    SearchResult r = sub.search({1, 0, 1, 0, 1, 0, 1, 0},
                                SearchKind::Exact, false);
    // Row 2 matches plus the four unwritten (all-wildcard) rows.
    EXPECT_EQ(r.matchedRows.size(), 5u);
}

TEST(CamSubarray, ExactMatchMissesWhenNoRowMatches)
{
    CamSubarray sub = makeTcam();
    // No stored row equals this pattern among the written rows; rows
    // 4..7 are wildcards and match everything, so restrict the window.
    SearchResult r = sub.search({0, 1, 0, 1, 0, 1, 0, 1},
                                SearchKind::Exact, false, 0, 4);
    EXPECT_TRUE(r.matchedRows.empty());
}

TEST(CamSubarray, HammingDistancesAreExact)
{
    CamSubarray sub = makeTcam();
    SearchResult r =
        sub.search({0, 0, 0, 0, 0, 0, 0, 0}, SearchKind::Best, false, 0, 4);
    ASSERT_EQ(r.values.size(), 4u);
    EXPECT_FLOAT_EQ(r.values[0], 0.0f); // row 0: all zeros
    EXPECT_FLOAT_EQ(r.values[1], 8.0f); // row 1: all ones
    EXPECT_FLOAT_EQ(r.values[2], 4.0f);
    EXPECT_FLOAT_EQ(r.values[3], 4.0f);
    ASSERT_EQ(r.matchedRows.size(), 1u);
    EXPECT_EQ(r.matchedRows[0], 0);
}

TEST(CamSubarray, BestMatchReportsTies)
{
    CamSubarray sub = makeTcam();
    // Equidistant from rows 2 and 3 (distance 2 each).
    SearchResult r =
        sub.search({1, 0, 1, 0, 1, 1, 0, 0}, SearchKind::Best, false, 0, 4);
    EXPECT_FLOAT_EQ(r.values[2], 2.0f);
    EXPECT_FLOAT_EQ(r.values[3], 2.0f);
    ASSERT_EQ(r.matchedRows.size(), 2u);
}

TEST(CamSubarray, RangeMatchThreshold)
{
    CamSubarray sub = makeTcam();
    SearchResult r = sub.search({0, 0, 0, 0, 0, 0, 0, 1},
                                SearchKind::Range, false, 0, 4, 1.0);
    // Row 0 at distance 1 passes; others are >= 3.
    ASSERT_EQ(r.matchedRows.size(), 1u);
    EXPECT_EQ(r.matchedRows[0], 0);
}

TEST(CamSubarray, SelectiveRowWindow)
{
    CamSubarray sub = makeTcam();
    // Search only rows [2, 4): row 0 is invisible even though closer.
    SearchResult r = sub.search({0, 0, 0, 0, 0, 0, 0, 0},
                                SearchKind::Best, false, 2, 4);
    ASSERT_EQ(r.values.size(), 2u);
    EXPECT_EQ(r.indices[0], 2);
    EXPECT_EQ(r.indices[1], 3);
}

TEST(CamSubarray, WildcardCellsMatchEverything)
{
    CamSubarray sub(2, 4, CamDeviceType::Tcam, 1);
    float nan = std::nanf("");
    sub.write({{1, nan, 0, nan}, {0, 0, 0, 0}}, 0);
    SearchResult r =
        sub.search({1, 1, 0, 0}, SearchKind::Exact, false, 0, 2);
    ASSERT_EQ(r.matchedRows.size(), 1u);
    EXPECT_EQ(r.matchedRows[0], 0);
    r = sub.search({1, 0, 0, 1}, SearchKind::Exact, false, 0, 2);
    ASSERT_EQ(r.matchedRows.size(), 1u);
    EXPECT_EQ(r.matchedRows[0], 0);
}

TEST(CamSubarray, BinaryQuantizationClampsNegatives)
{
    // HDC convention: +-1 data lands on {0, 1} levels.
    CamSubarray sub(1, 2, CamDeviceType::Tcam, 1);
    sub.write({{-1.0f, 1.0f}}, 0);
    SearchResult r = sub.search({-1.0f, 1.0f}, SearchKind::Exact, false,
                                0, 1);
    EXPECT_EQ(r.matchedRows.size(), 1u);
}

TEST(CamSubarray, MultiBitEuclideanDistance)
{
    CamSubarray sub(2, 3, CamDeviceType::Mcam, 2);
    sub.write({{0, 1, 2}, {3, 3, 3}}, 0);
    SearchResult r =
        sub.search({0, 1, 3}, SearchKind::Best, true, 0, 2);
    EXPECT_FLOAT_EQ(r.values[0], 1.0f);       // (2-3)^2
    EXPECT_FLOAT_EQ(r.values[1], 9.0f + 4.0f); // (3)^2+(2)^2+(0)^2
    EXPECT_EQ(r.matchedRows[0], 0);
}

TEST(CamSubarray, MultiBitQuantizationClamps)
{
    CamSubarray sub(1, 1, CamDeviceType::Mcam, 2);
    sub.write({{9.0f}}, 0); // clamps to 3
    SearchResult r = sub.search({3.0f}, SearchKind::Exact, true, 0, 1);
    EXPECT_EQ(r.matchedRows.size(), 1u);
}

TEST(CamSubarray, AcamStoresRanges)
{
    CamSubarray sub(2, 2, CamDeviceType::Acam, 2);
    std::vector<std::vector<CamCell>> cells(2,
                                            std::vector<CamCell>(2));
    cells[0][0] = {0.2f, 0.4f, false};
    cells[0][1] = {0.0f, 1.0f, false};
    cells[1][0] = {0.8f, 0.9f, false};
    cells[1][1] = {0.0f, 0.1f, false};
    sub.writeRanges(cells, 0);
    SearchResult r =
        sub.search({0.3f, 0.5f}, SearchKind::Exact, false, 0, 2);
    ASSERT_EQ(r.matchedRows.size(), 1u);
    EXPECT_EQ(r.matchedRows[0], 0);
}

TEST(CamSubarray, RangeProgrammingRequiresAcam)
{
    CamSubarray sub(1, 1, CamDeviceType::Tcam, 1);
    EXPECT_THROW(sub.writeRanges({{CamCell{0, 1, false}}}, 0),
                 CompilerError);
}

TEST(CamSubarray, WriteAtRowOffsetTracksWrittenRows)
{
    CamSubarray sub(8, 4, CamDeviceType::Tcam, 1);
    EXPECT_EQ(sub.writtenRows(), 0);
    sub.write({{1, 1, 1, 1}}, 5);
    EXPECT_EQ(sub.writtenRows(), 6);
}

TEST(CamSubarray, OutOfBoundsRejected)
{
    CamSubarray sub(2, 2, CamDeviceType::Tcam, 1);
    EXPECT_THROW(sub.write({{1, 1}, {1, 1}, {1, 1}}, 0), CompilerError);
    EXPECT_THROW(sub.write({{1, 1, 1}}, 0), CompilerError);
    EXPECT_THROW(sub.search({1, 1, 1}, SearchKind::Exact, false),
                 CompilerError);
    EXPECT_THROW(sub.search({1}, SearchKind::Exact, false, 0, 5),
                 CompilerError);
    EXPECT_THROW(CamSubarray(0, 4, CamDeviceType::Tcam, 1),
                 CompilerError);
}

TEST(CamSubarray, ShorterQueryUsesPrefixColumns)
{
    CamSubarray sub = makeTcam();
    // 4-column query against 8-column rows: only cells 0..3 compared.
    SearchResult r =
        sub.search({1, 0, 1, 0}, SearchKind::Best, false, 0, 4);
    EXPECT_FLOAT_EQ(r.values[2], 0.0f);
}

TEST(CamSubarray, BestMatchFlagsTheMinimumReportedValue)
{
    // ACAM distances are summed in double and reported as float. The
    // best row must be flagged even when its double distance (here
    // 0.1f squared) is not exactly representable as a float.
    CamSubarray sub(3, 1, CamDeviceType::Acam, 2);
    sub.writeRanges({{CamCell{0.1f, 0.1f, false}},
                     {CamCell{0.5f, 0.6f, false}},
                     {CamCell{0.3f, 0.4f, false}}},
                    0);
    SearchResult r = sub.search({0.0f}, SearchKind::Best, true, 0, 3);
    ASSERT_EQ(r.values.size(), 3u);
    const double exact = static_cast<double>(0.1f) * 0.1f;
    ASSERT_NE(static_cast<double>(r.values[0]), exact);
    ASSERT_EQ(r.matchedRows.size(), 1u);
    EXPECT_EQ(r.matchedRows[0], 0);
}

TEST(CamSubarray, SearchIntoReplacesThePreviousResult)
{
    CamSubarray sub = makeTcam();
    SearchResult result;
    std::vector<float> scratch;
    // The result-reusing search takes a span, which a braced list
    // cannot bind to.
    const std::vector<float> alternating = {1, 0, 1, 0, 1, 0, 1, 0};
    const std::vector<float> ones = {1, 1, 1, 1, 1, 1, 1, 1};
    sub.search(alternating, SearchKind::Best, false, 0, 8, 0.0, result,
               scratch);
    ASSERT_EQ(result.values.size(), 8u);

    // A narrower window into the same result: nothing of the first
    // search survives, and the by-value search agrees.
    sub.search(ones, SearchKind::Exact, false, 1, 3, 0.0, result, scratch);
    SearchResult fresh =
        sub.search({1, 1, 1, 1, 1, 1, 1, 1}, SearchKind::Exact, false, 1, 3);
    EXPECT_EQ(result.values, fresh.values);
    EXPECT_EQ(result.indices, (std::vector<std::int32_t>{1, 2}));
    EXPECT_EQ(result.matchedRows, (std::vector<std::int32_t>{1}));

    // Rejected arguments leave the result untouched.
    EXPECT_THROW(sub.search(std::vector<float>{1}, SearchKind::Exact, false,
                            0, 9, 0.0, result, scratch),
                 CompilerError);
    EXPECT_EQ(result.matchedRows, (std::vector<std::int32_t>{1}));
}

TEST(CamSubarray, WriteRangesRejectsRowsWiderThanTheSubarray)
{
    CamSubarray sub(2, 2, CamDeviceType::Acam, 2);
    const CamCell cell{0.0f, 1.0f, false};
    // As write() does, a row wider than the subarray is diagnosed
    // instead of losing its extra columns, and nothing is programmed.
    EXPECT_THROW(sub.writeRanges({{cell, cell}, {cell, cell, cell}}, 0),
                 CompilerError);
    EXPECT_EQ(sub.writtenRows(), 0);
    SearchResult r = sub.search({5.0f, 5.0f}, SearchKind::Exact, false);
    EXPECT_EQ(r.matchedRows, (std::vector<std::int32_t>{0, 1}));

    // Rows as wide as the subarray, or narrower, still program.
    sub.writeRanges({{cell, cell}, {cell}}, 0);
    EXPECT_EQ(sub.writtenRows(), 2);
    r = sub.search({5.0f, 5.0f}, SearchKind::Exact, false);
    EXPECT_EQ(r.matchedRows, (std::vector<std::int32_t>{}));
}
