#include "runtime/HostKernels.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>

#include "support/Error.h"

namespace c4cam::rt::host {

BufferPtr
transpose2d(const BufferPtr &in)
{
    C4CAM_CHECK(in->rank() == 2, "transpose requires a rank-2 tensor");
    auto out = Buffer::alloc(in->dtype(), {in->shape()[1], in->shape()[0]});
    for (std::int64_t i = 0; i < in->shape()[0]; ++i)
        for (std::int64_t j = 0; j < in->shape()[1]; ++j)
            out->set({j, i}, in->at({i, j}));
    return out;
}

BufferPtr
matmul(const BufferPtr &a, const BufferPtr &b)
{
    C4CAM_CHECK(a->rank() == 2 && b->rank() == 2,
                "matmul requires rank-2 tensors");
    C4CAM_CHECK(a->shape()[1] == b->shape()[0],
                "matmul inner dims mismatch: " << a->shape()[1] << " vs "
                << b->shape()[0]);
    auto out = Buffer::alloc(DType::F32, {a->shape()[0], b->shape()[1]});
    for (std::int64_t i = 0; i < a->shape()[0]; ++i) {
        for (std::int64_t j = 0; j < b->shape()[1]; ++j) {
            double acc = 0.0;
            for (std::int64_t k = 0; k < a->shape()[1]; ++k)
                acc += a->at({i, k}) * b->at({k, j});
            out->set({i, j}, acc);
        }
    }
    return out;
}

namespace {

/** Row-major delinearization of @p i into @p index for @p shape. */
void
delinearize(std::int64_t i, const std::vector<std::int64_t> &shape,
            std::vector<std::int64_t> &index)
{
    std::int64_t rem = i;
    for (int d = static_cast<int>(shape.size()) - 1; d >= 0; --d) {
        index[static_cast<std::size_t>(d)] =
            rem % shape[static_cast<std::size_t>(d)];
        rem /= shape[static_cast<std::size_t>(d)];
    }
}

} // namespace

BufferPtr
subBroadcast(const BufferPtr &a, const BufferPtr &b)
{
    if (a->shape() == b->shape()) {
        auto out = Buffer::alloc(DType::F32, a->shape());
        std::vector<double> av = a->toVector();
        std::vector<double> bv = b->toVector();
        std::vector<std::int64_t> index(a->rank(), 0);
        for (std::int64_t i = 0; i < a->numElements(); ++i) {
            delinearize(i, a->shape(), index);
            out->set(index, av[static_cast<std::size_t>(i)] -
                                bv[static_cast<std::size_t>(i)]);
        }
        return out;
    }
    // KNN broadcast: (QxD) - (NxD) -> QxNxD.
    C4CAM_CHECK(a->rank() == 2 && b->rank() == 2 &&
                    a->shape()[1] == b->shape()[1],
                "sub broadcast requires QxD and NxD operands");
    std::int64_t q_count = a->shape()[0];
    std::int64_t n_count = b->shape()[0];
    std::int64_t depth = a->shape()[1];
    auto out = Buffer::alloc(DType::F32, {q_count, n_count, depth});
    for (std::int64_t q = 0; q < q_count; ++q)
        for (std::int64_t n = 0; n < n_count; ++n)
            for (std::int64_t d = 0; d < depth; ++d)
                out->set({q, n, d}, a->at({q, d}) - b->at({n, d}));
    return out;
}

BufferPtr
elementwiseDiv(const BufferPtr &a, const BufferPtr &b)
{
    C4CAM_CHECK(a->numElements() == b->numElements(),
                "elementwise div shape mismatch");
    auto out = Buffer::alloc(DType::F32, a->shape());
    std::vector<double> av = a->toVector();
    std::vector<double> bv = b->toVector();
    std::vector<std::int64_t> index(a->rank(), 0);
    for (std::int64_t i = 0; i < a->numElements(); ++i) {
        delinearize(i, a->shape(), index);
        out->set(index, av[static_cast<std::size_t>(i)] /
                            bv[static_cast<std::size_t>(i)]);
    }
    return out;
}

BufferPtr
elementwiseAdd(const BufferPtr &a, const BufferPtr &b)
{
    C4CAM_CHECK(a->numElements() == b->numElements(),
                "elementwise add size mismatch");
    auto out = Buffer::alloc(DType::F32, a->shape());
    std::vector<double> av = a->toVector();
    std::vector<double> bv = b->toVector();
    std::vector<std::int64_t> index(out->rank(), 0);
    for (std::int64_t i = 0; i < out->numElements(); ++i) {
        delinearize(i, out->shape(), index);
        out->set(index, av[static_cast<std::size_t>(i)] +
                            bv[static_cast<std::size_t>(i)]);
    }
    return out;
}

BufferPtr
cosineDiv(const BufferPtr &m, const BufferPtr &qn, const BufferPtr &sn)
{
    C4CAM_CHECK(m->rank() == 2, "cosine div requires a QxN matrix");
    auto out = Buffer::alloc(DType::F32, m->shape());
    std::vector<double> qv = qn->toVector();
    std::vector<double> sv = sn->toVector();
    for (std::int64_t q = 0; q < m->shape()[0]; ++q)
        for (std::int64_t n = 0; n < m->shape()[1]; ++n)
            out->set({q, n},
                     m->at({q, n}) /
                         (qv[static_cast<std::size_t>(q)] *
                          sv[static_cast<std::size_t>(n)] + 1e-12));
    return out;
}

BufferPtr
normLastDim(const BufferPtr &in, int p)
{
    C4CAM_CHECK(in->rank() >= 1, "norm requires rank >= 1");
    std::vector<std::int64_t> out_shape(in->shape().begin(),
                                        in->shape().end() - 1);
    if (out_shape.empty())
        out_shape.push_back(1);
    auto out = Buffer::alloc(DType::F32, out_shape);
    std::int64_t inner = in->shape().back();
    std::int64_t outer = in->numElements() / std::max<std::int64_t>(inner, 1);
    std::vector<double> flat = in->toVector();
    std::vector<std::int64_t> index(out->rank(), 0);
    for (std::int64_t o = 0; o < outer; ++o) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < inner; ++i) {
            double v = flat[static_cast<std::size_t>(o * inner + i)];
            acc += p == 1 ? std::abs(v) : v * v;
        }
        double result = p == 1 ? acc : std::sqrt(acc);
        delinearize(o, out->shape(), index);
        out->set(index, result);
    }
    return out;
}

void
copyInto(const BufferPtr &src, const BufferPtr &dst, const char *what)
{
    C4CAM_CHECK(src->numElements() == dst->numElements(),
                what << " size mismatch: " << src->numElements() << " vs "
                << dst->numElements());
    dst->copyElementsFrom(*src);
}

void
storeElement(Buffer &dst, const std::vector<std::int64_t> &index,
             const RtValue &value)
{
    if (value.isInt())
        dst.setInt(index, value.asInt());
    else
        dst.set(index, value.asFloat());
}

void
addInto(const BufferPtr &acc, const BufferPtr &partial, const char *what)
{
    C4CAM_CHECK(acc->numElements() == partial->numElements(),
                what << " size mismatch: " << acc->numElements() << " vs "
                << partial->numElements());
    acc->addFrom(*partial);
}

namespace {

/**
 * Top-k of each of the @p outer rows of @p inner elements of @p flat
 * into the dense outer x k @p values and @p indices.
 */
template <typename T>
void
topkRows(std::span<const T> flat, std::int64_t outer, std::int64_t inner,
         std::int64_t k, bool largest, std::span<float> values,
         std::span<std::int64_t> indices)
{
    std::vector<std::int64_t> order(static_cast<std::size_t>(inner));
    for (std::int64_t o = 0; o < outer; ++o) {
        const T *row = flat.data() + o * inner;
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::int64_t a, std::int64_t b) {
                             return largest ? row[a] > row[b]
                                            : row[a] < row[b];
                         });
        for (std::int64_t j = 0; j < k; ++j) {
            const auto out = static_cast<std::size_t>(o * k + j);
            const std::int64_t pick = order[static_cast<std::size_t>(j)];
            values[out] = static_cast<float>(row[pick]);
            indices[out] = pick;
        }
    }
}

} // namespace

std::pair<BufferPtr, BufferPtr>
topk(const BufferPtr &in, std::int64_t k, bool largest)
{
    C4CAM_CHECK(k >= 1, "topk requires k >= 1");
    std::int64_t inner = in->rank() >= 1 ? in->shape().back() : 1;
    C4CAM_CHECK(k <= inner, "topk k=" << k << " exceeds dimension size "
                << inner);
    std::int64_t outer = in->numElements() / std::max<std::int64_t>(inner, 1);

    std::vector<std::int64_t> out_shape = in->shape();
    if (out_shape.empty())
        out_shape.push_back(k);
    else
        out_shape.back() = k;
    auto values = Buffer::alloc(DType::F32, out_shape);
    auto indices = Buffer::alloc(DType::I64, std::move(out_shape));
    if (in->dtype() == DType::F32) {
        std::vector<float> scratch;
        topkRows(in->elements<float>(scratch), outer, inner, k, largest,
                 values->denseElements<float>(),
                 indices->denseElements<std::int64_t>());
    } else {
        std::vector<std::int64_t> scratch;
        topkRows(in->elements<std::int64_t>(scratch), outer, inner, k,
                 largest, values->denseElements<float>(),
                 indices->denseElements<std::int64_t>());
    }
    return {values, indices};
}

BufferPtr
offsetIndices(const BufferPtr &in, std::int64_t offset)
{
    auto out = Buffer::alloc(DType::I64, in->shape());
    std::vector<std::int64_t> scratch;
    std::span<const std::int64_t> from = in->elements<std::int64_t>(scratch);
    std::span<std::int64_t> to = out->denseElements<std::int64_t>();
    for (std::size_t i = 0; i < from.size(); ++i)
        to[i] = from[i] + offset;
    return out;
}

} // namespace c4cam::rt::host
