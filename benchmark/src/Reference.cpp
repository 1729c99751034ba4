#include "Reference.h"

#include <algorithm>
#include <unordered_set>

namespace c4cam::bench {

namespace {

float
drawValue(Rng &rng, Alphabet alphabet)
{
    if (alphabet.signs)
        return rng.nextBool() ? 1.0f : -1.0f;
    return static_cast<float>(
        rng.nextBelow(static_cast<std::uint64_t>(alphabet.levels)));
}

} // namespace

Matrix
randomMatrix(Rng &rng, std::int64_t rows, std::int64_t dims,
             Alphabet alphabet)
{
    Matrix m(static_cast<std::size_t>(rows),
             std::vector<float>(static_cast<std::size_t>(dims)));
    for (auto &row : m)
        for (float &v : row)
            v = drawValue(rng, alphabet);
    return m;
}

std::vector<float>
perturbedRow(Rng &rng, const Matrix &stored, std::int64_t changes,
             Alphabet alphabet)
{
    std::vector<float> row = stored[rng.nextBelow(stored.size())];
    std::unordered_set<std::uint64_t> touched;
    while (static_cast<std::int64_t>(touched.size()) < changes) {
        std::uint64_t c = rng.nextBelow(row.size());
        if (!touched.insert(c).second)
            continue;
        float old = row[c];
        if (alphabet.signs) {
            row[c] = -old;
        } else {
            // Another level, uniformly among the other levels-1.
            auto shift = 1 + rng.nextBelow(
                                 static_cast<std::uint64_t>(alphabet.levels - 1));
            row[c] = static_cast<float>(
                (static_cast<std::uint64_t>(old) + shift) %
                static_cast<std::uint64_t>(alphabet.levels));
        }
    }
    return row;
}

TopKReference
topKReference(const std::vector<float> &query, const Matrix &stored, int k,
              bool dot)
{
    TopKReference ref;
    ref.dist.reserve(stored.size());
    for (const auto &row : stored) {
        double acc = 0.0;
        for (std::size_t c = 0; c < query.size(); ++c) {
            double q = query[c];
            double s = row[c];
            acc += dot ? q * s : (q - s) * (q - s);
        }
        ref.dist.push_back(
            dot ? (static_cast<double>(query.size()) - acc) / 2.0 : acc);
    }
    ref.smallest = ref.dist;
    std::sort(ref.smallest.begin(), ref.smallest.end());
    ref.smallest.resize(static_cast<std::size_t>(k));
    return ref;
}

bool
acceptsTopK(const TopKReference &ref, const double *values,
            const double *indices, int k)
{
    std::vector<double> got;
    std::unordered_set<std::int64_t> rows;
    for (int i = 0; i < k; ++i) {
        auto row = static_cast<std::int64_t>(indices[i]);
        if (row < 0 || row >= static_cast<std::int64_t>(ref.dist.size()) ||
            static_cast<double>(row) != indices[i] || !rows.insert(row).second)
            return false;
        if (values[i] != ref.dist[static_cast<std::size_t>(row)])
            return false;
        got.push_back(values[i]);
    }
    std::sort(got.begin(), got.end());
    return got == ref.smallest;
}

} // namespace c4cam::bench
