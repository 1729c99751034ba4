#include "sim/CamSubarray.h"

#include <algorithm>
#include <cmath>

#include "support/Error.h"

namespace c4cam::sim {

CamSubarray::CamSubarray(int rows, int cols, arch::CamDeviceType type,
                         int bits_per_cell)
    : rows_(rows), cols_(cols), type_(type), bits_(bits_per_cell)
{
    C4CAM_CHECK(rows > 0 && cols > 0, "subarray dims must be positive");
    cells_.assign(rows_, std::vector<CamCell>(cols_));
}

float
CamSubarray::quantize(float v) const
{
    if (type_ == arch::CamDeviceType::Acam)
        return v; // analog cells store continuous levels
    int levels = 1 << bits_;
    float q = std::round(v);
    q = std::clamp(q, 0.0f, float(levels - 1));
    return q;
}

void
CamSubarray::write(const std::vector<std::vector<float>> &data,
                   int row_offset)
{
    C4CAM_CHECK(row_offset >= 0 &&
                    row_offset + static_cast<int>(data.size()) <= rows_,
                "write exceeds subarray rows: offset " << row_offset
                << " + " << data.size() << " > " << rows_);
    for (std::size_t r = 0; r < data.size(); ++r) {
        C4CAM_CHECK(static_cast<int>(data[r].size()) <= cols_,
                    "write exceeds subarray columns: " << data[r].size()
                    << " > " << cols_);
        for (std::size_t c = 0; c < data[r].size(); ++c) {
            CamCell &cell = cells_[row_offset + r][c];
            float v = data[r][c];
            if (std::isnan(v)) {
                cell = CamCell{}; // don't care
            } else {
                float q = quantize(v);
                cell.lo = q;
                cell.hi = q;
                cell.wildcard = false;
            }
        }
    }
    writtenRows_ = std::max(writtenRows_,
                            row_offset + static_cast<int>(data.size()));
}

void
CamSubarray::writeRanges(const std::vector<std::vector<CamCell>> &cells,
                         int row_offset)
{
    C4CAM_CHECK(type_ == arch::CamDeviceType::Acam,
                "range programming requires an ACAM device");
    C4CAM_CHECK(row_offset >= 0 &&
                    row_offset + static_cast<int>(cells.size()) <= rows_,
                "writeRanges exceeds subarray rows");
    for (const std::vector<CamCell> &row : cells)
        C4CAM_CHECK(static_cast<int>(row.size()) <= cols_,
                    "writeRanges exceeds subarray columns: " << row.size()
                    << " > " << cols_);
    for (std::size_t r = 0; r < cells.size(); ++r)
        std::copy(cells[r].begin(), cells[r].end(),
                  cells_[row_offset + r].begin());
    writtenRows_ = std::max(writtenRows_,
                            row_offset + static_cast<int>(cells.size()));
}

void
CamSubarray::search(std::span<const float> query, arch::SearchKind kind,
                    bool euclidean, int row_begin, int row_end,
                    double threshold, SearchResult &result,
                    std::vector<float> &quantized) const
{
    C4CAM_CHECK(row_begin >= 0 && row_end <= rows_ && row_begin <= row_end,
                "search row window [" << row_begin << ", " << row_end
                << ") outside subarray with " << rows_ << " rows");
    C4CAM_CHECK(static_cast<int>(query.size()) <= cols_,
                "query wider than subarray: " << query.size() << " > "
                << cols_);

    // The quantized query is broadcast to every row; hoist the
    // per-element rounding/clamping out of the row loop.
    quantized.resize(query.size());
    for (std::size_t c = 0; c < query.size(); ++c)
        quantized[c] = quantize(query[c]);

    result.values.clear();
    result.indices.clear();
    result.matchedRows.clear();
    result.values.reserve(static_cast<std::size_t>(row_end - row_begin));
    result.indices.reserve(static_cast<std::size_t>(row_end - row_begin));
    // The minimum of the reported float values: a best match must flag
    // the rows whose value equals it, even when the double distance is
    // not exactly representable as a float.
    float best = std::numeric_limits<float>::infinity();
    for (int r = row_begin; r < row_end; ++r) {
        double dist = 0.0;
        const std::vector<CamCell> &row = cells_[static_cast<std::size_t>(r)];
        // Bounded by quantized, the query's width: with the span's size
        // as the bound GCC 12 lays the mismatch path out with an extra
        // jump, ~10% slower on hdc-shaped queries.
        for (std::size_t c = 0; c < quantized.size(); ++c) {
            const CamCell &cell = row[c];
            float q = quantized[c];
            if (euclidean) {
                double d = cell.distanceTo(q);
                dist += d * d;
            } else {
                dist += cell.matches(q) ? 0.0 : 1.0;
            }
        }
        const float value = static_cast<float>(dist);
        result.values.push_back(value);
        result.indices.push_back(r);
        best = std::min(best, value);
    }

    for (std::size_t i = 0; i < result.values.size(); ++i) {
        double d = result.values[i];
        bool matched = false;
        switch (kind) {
          case arch::SearchKind::Exact:
            matched = d == 0.0;
            break;
          case arch::SearchKind::Range:
            matched = d <= threshold;
            break;
          case arch::SearchKind::Best:
            matched = d == best;
            break;
        }
        if (matched)
            result.matchedRows.push_back(result.indices[i]);
    }
}

} // namespace c4cam::sim
