#ifndef C4CAM_SIM_CAMSUBARRAY_H
#define C4CAM_SIM_CAMSUBARRAY_H

/**
 * @file
 * Functional model of one CAM subarray.
 *
 * Stores ternary / multi-bit / analog cells and evaluates exact, best
 * and range (threshold) matches under Hamming or Euclidean metrics
 * (paper §II-B). Selective row search [27] restricts the active row
 * window so multiple data batches can share one subarray.
 *
 * The serving path searches a span of the caller's query into a
 * caller-owned SearchResult and quantize scratch (CamDevice keeps one
 * result per subarray), so a steady-state search copies no query and
 * allocates nothing; the by-value search() taking a vector is a thin
 * wrapper for one-off callers.
 */

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "arch/ArchSpec.h"
#include "arch/TechModel.h"

namespace c4cam::sim {

/** One CAM cell: a [lo, hi] acceptance range or a wildcard. */
struct CamCell
{
    float lo = 0.0f;
    float hi = 0.0f;
    bool wildcard = true; ///< unwritten cells match everything

    /** @return true when @p q falls inside the acceptance range. */
    bool
    matches(float q) const
    {
        return wildcard || (q >= lo && q <= hi);
    }

    /** Distance contribution of this cell for @p q. */
    double
    distanceTo(float q) const
    {
        if (wildcard)
            return 0.0;
        // Distance to the stored level (midpoint for ACAM ranges).
        return 0.5 * (lo + hi) - q;
    }
};

/** Result of reading back one search: per-row values and row indices. */
struct SearchResult
{
    /** Distance (hamming/eucl) per considered row; matches have the
     *  semantics of the issued search kind. */
    std::vector<float> values;
    /** Global row index per entry of @p values. */
    std::vector<std::int32_t> indices;
    /** Rows flagged as matching (exact: dist == 0; range: dist <= thr;
     *  best: rows whose value is the minimum of @p values). */
    std::vector<std::int32_t> matchedRows;
};

/**
 * Functional CAM subarray with R x C cells.
 */
class CamSubarray
{
  public:
    CamSubarray(int rows, int cols, arch::CamDeviceType type,
                int bits_per_cell);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    /**
     * Program @p data (row-major, data[r][c]) starting at @p row_offset.
     * Values are quantized to the cell's level count (2^bits levels for
     * TCAM/MCAM); NaN values encode don't-care (wildcard) cells.
     */
    void write(const std::vector<std::vector<float>> &data, int row_offset);

    /**
     * Program analog acceptance ranges (ACAM): lo/hi per cell. Rows
     * wider than the subarray are diagnosed, as in write().
     */
    void writeRanges(const std::vector<std::vector<CamCell>> &cells,
                     int row_offset);

    /**
     * Search @p query against rows [row_begin, row_end) into @p result,
     * reusing its vectors' capacity; @p quantized is scratch for the
     * quantized query. Neither is touched when the arguments are
     * rejected.
     * @param kind exact / best / range matching
     * @param euclidean euclidean (else hamming) distance
     * @param threshold range-match threshold (ignored otherwise)
     */
    void search(std::span<const float> query, arch::SearchKind kind,
                bool euclidean, int row_begin, int row_end,
                double threshold, SearchResult &result,
                std::vector<float> &quantized) const;

    /** By-value search of rows [row_begin, row_end). */
    SearchResult
    search(const std::vector<float> &query, arch::SearchKind kind,
           bool euclidean, int row_begin, int row_end,
           double threshold = 0.0) const
    {
        SearchResult result;
        std::vector<float> quantized;
        search(query, kind, euclidean, row_begin, row_end, threshold,
               result, quantized);
        return result;
    }

    /** Search the full row window. */
    SearchResult
    search(const std::vector<float> &query, arch::SearchKind kind,
           bool euclidean) const
    {
        return search(query, kind, euclidean, 0, rows_);
    }

    /** Number of rows that contain written (non-wildcard) data. */
    int writtenRows() const { return writtenRows_; }

    /** Quantize @p v to the representable cell levels. */
    float quantize(float v) const;

  private:
    int rows_;
    int cols_;
    arch::CamDeviceType type_;
    int bits_;
    int writtenRows_ = 0;
    std::vector<std::vector<CamCell>> cells_; ///< [row][col]
};

} // namespace c4cam::sim

#endif // C4CAM_SIM_CAMSUBARRAY_H
