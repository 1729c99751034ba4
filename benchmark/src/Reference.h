#ifndef C4CAM_BENCHMARK_REFERENCE_H
#define C4CAM_BENCHMARK_REFERENCE_H

/**
 * @file
 * Seeded input generation and independent host references for the
 * benchmark's similarity kernels. The references never call into the
 * library under test: they recompute each query's distance to every
 * stored row on the host and accept any top-k answer that is correct
 * up to ties.
 */

#include <cstdint>
#include <vector>

#include "support/Rng.h"

namespace c4cam::bench {

using Matrix = std::vector<std::vector<float>>;

/**
 * Cell alphabet of a kernel's data: {-1, +1} for HDC dot similarity
 * (stored as bits on a TCAM), else the levels 0 .. levels-1.
 */
struct Alphabet
{
    bool signs = false;
    int levels = 2;
};

/** @p rows x @p dims values drawn uniformly from @p alphabet. */
Matrix randomMatrix(Rng &rng, std::int64_t rows, std::int64_t dims,
                    Alphabet alphabet);

/**
 * A random stored row with @p changes coordinates (distinct positions)
 * replaced by another value of @p alphabet.
 */
std::vector<float> perturbedRow(Rng &rng, const Matrix &stored,
                                std::int64_t changes, Alphabet alphabet);

/** One query's reference: its distance to every stored row. */
struct TopKReference
{
    /** Per stored row, in the unit the device reports: Hamming
     *  distance for dot similarity, squared Euclidean otherwise. */
    std::vector<double> dist;
    /** The k smallest distances, ascending. */
    std::vector<double> smallest;
};

/**
 * Reference for @p query against @p stored. Dot similarity on +-1
 * vectors ranks rows exactly like Hamming distance (D - dot) / 2, which
 * is what a TCAM accumulates.
 */
TopKReference topKReference(const std::vector<float> &query,
                            const Matrix &stored, int k, bool dot);

/**
 * True when (@p values, @p indices) is a valid top-k answer: k distinct
 * in-range rows, each reported value equal to that row's reference
 * distance, and the values equal to the k smallest distances. Any
 * order among tied rows is accepted.
 */
bool acceptsTopK(const TopKReference &ref, const double *values,
                 const double *indices, int k);

} // namespace c4cam::bench

#endif // C4CAM_BENCHMARK_REFERENCE_H
