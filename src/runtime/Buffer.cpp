#include "runtime/Buffer.h"

#include <algorithm>
#include <sstream>

namespace c4cam::rt {

std::shared_ptr<Buffer>
Buffer::create()
{
    return std::make_shared<Buffer>(Private{});
}

std::shared_ptr<Buffer>
Buffer::alloc(DType dtype, std::vector<std::int64_t> shape)
{
    auto buf = create();
    buf->dtype_ = dtype;
    buf->shape_ = std::move(shape);
    buf->strides_.assign(buf->shape_.size(), 1);
    for (int i = static_cast<int>(buf->shape_.size()) - 2; i >= 0; --i)
        buf->strides_[i] = buf->strides_[i + 1] * buf->shape_[i + 1];
    buf->storage_ = std::make_shared<std::vector<double>>(
        static_cast<std::size_t>(buf->numElements()), 0.0);
    return buf;
}

std::shared_ptr<Buffer>
Buffer::fromMatrix(const std::vector<std::vector<float>> &rows)
{
    C4CAM_CHECK(!rows.empty(), "fromMatrix: empty data");
    const std::size_t cols = rows[0].size();
    auto buf = alloc(DType::F32, {static_cast<std::int64_t>(rows.size()),
                                  static_cast<std::int64_t>(cols)});
    auto out = buf->storage_->begin();
    for (const std::vector<float> &row : rows) {
        C4CAM_CHECK(row.size() == cols, "fromMatrix: ragged rows");
        out = std::copy(row.begin(), row.end(), out);
    }
    return buf;
}

std::int64_t
Buffer::linearIndex(const std::vector<std::int64_t> &index) const
{
    C4CAM_ASSERT(index.size() == shape_.size(),
                 "index rank " << index.size() << " != buffer rank "
                 << shape_.size());
    std::int64_t linear = offset_;
    for (std::size_t i = 0; i < index.size(); ++i) {
        C4CAM_ASSERT(index[i] >= 0 && index[i] < shape_[i],
                     "index " << index[i] << " out of bounds for dim " << i
                     << " with extent " << shape_[i]);
        linear += index[i] * strides_[i];
    }
    return linear;
}

double
Buffer::at(const std::vector<std::int64_t> &index) const
{
    return (*storage_)[static_cast<std::size_t>(linearIndex(index))];
}

void
Buffer::set(const std::vector<std::int64_t> &index, double value)
{
    (*storage_)[static_cast<std::size_t>(linearIndex(index))] = value;
}

std::int64_t
Buffer::atInt(const std::vector<std::int64_t> &index) const
{
    return static_cast<std::int64_t>(at(index));
}

void
Buffer::setInt(const std::vector<std::int64_t> &index, std::int64_t value)
{
    set(index, static_cast<double>(value));
}

std::shared_ptr<Buffer>
Buffer::subview(const std::vector<std::int64_t> &offsets,
                const std::vector<std::int64_t> &sizes) const
{
    auto view = create();
    view->assignSubview(*this, offsets, sizes);
    return view;
}

void
Buffer::assignSubview(const Buffer &base,
                      const std::vector<std::int64_t> &offsets,
                      const std::vector<std::int64_t> &sizes)
{
    // Everything is read from base before this view changes: base may
    // be this very object.
    C4CAM_ASSERT(offsets.size() == base.shape_.size() &&
                     sizes.size() == base.shape_.size(),
                 "subview rank mismatch");
    std::int64_t offset = base.offset_;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        C4CAM_ASSERT(offsets[i] >= 0 && sizes[i] >= 0 &&
                         offsets[i] + sizes[i] <= base.shape_[i],
                     "subview window [" << offsets[i] << ", "
                     << offsets[i] + sizes[i] << ") outside dim " << i
                     << " extent " << base.shape_[i]);
        offset += offsets[i] * base.strides_[i];
    }
    dtype_ = base.dtype_;
    strides_ = base.strides_;
    shape_ = sizes;
    offset_ = offset;
    if (storage_ != base.storage_)
        storage_ = base.storage_;
}

double *
Buffer::soleDenseStorage(DType dtype, std::int64_t n)
{
    if (dtype_ != dtype || shape_.size() != 1 || shape_[0] != n ||
        strides_[0] != 1 || storage_.use_count() != 1)
        return nullptr;
    return storage_->data() + offset_;
}

namespace {

/**
 * Row-major walk over every index of @p shape. Templated on the
 * callback so the per-element call inlines (this sits under every
 * elementwise buffer op -- a std::function here costs an indirect
 * call plus possible allocation per element).
 */
template <typename Fn>
void
forEachIndex(const std::vector<std::int64_t> &shape, Fn &&fn)
{
    std::vector<std::int64_t> index(shape.size(), 0);
    while (true) {
        fn(index);
        int dim = static_cast<int>(shape.size()) - 1;
        while (dim >= 0) {
            if (++index[static_cast<std::size_t>(dim)] <
                shape[static_cast<std::size_t>(dim)])
                break;
            index[static_cast<std::size_t>(dim)] = 0;
            --dim;
        }
        if (dim < 0)
            break;
    }
}

} // namespace

bool
Buffer::isContiguous() const
{
    // Dense row-major modulo extent-1 dims (their stride is never
    // stepped, so it cannot break contiguity).
    std::int64_t expected = 1;
    for (int i = static_cast<int>(shape_.size()) - 1; i >= 0; --i) {
        if (shape_[static_cast<std::size_t>(i)] == 1)
            continue;
        if (strides_[static_cast<std::size_t>(i)] != expected)
            return false;
        expected *= shape_[static_cast<std::size_t>(i)];
    }
    return true;
}

template <typename Fn>
void
Buffer::forEachLinear(Fn &&fn) const
{
    std::size_t n = static_cast<std::size_t>(numElements());
    if (n == 0)
        return;
    if (isContiguous()) {
        for (std::size_t e = 0; e < n; ++e)
            fn(static_cast<std::size_t>(offset_) + e);
        return;
    }
    std::vector<std::int64_t> index(shape_.size(), 0);
    std::int64_t linear = offset_;
    for (std::size_t e = 0; e < n; ++e) {
        fn(static_cast<std::size_t>(linear));
        for (int dim = static_cast<int>(shape_.size()) - 1; dim >= 0;
             --dim) {
            auto d = static_cast<std::size_t>(dim);
            linear += strides_[d];
            if (++index[d] < shape_[d])
                break;
            linear -= shape_[d] * strides_[d];
            index[d] = 0;
        }
    }
}

void
Buffer::copyFromFlat(const std::vector<double> &flat)
{
    C4CAM_ASSERT(flat.size() == static_cast<std::size_t>(numElements()),
                 "copyFromFlat element count mismatch: " << flat.size()
                 << " vs " << numElements());
    std::size_t i = 0;
    forEachLinear([&](std::size_t linear) {
        (*storage_)[linear] = flat[i++];
    });
}

void
Buffer::addFrom(const Buffer &src)
{
    C4CAM_ASSERT(src.numElements() == numElements(),
                 "addFrom element count mismatch: " << src.numElements()
                 << " vs " << numElements());
    // A dense source that shares no storage with this view is read in
    // place; otherwise snapshot it first, so an aliasing source is
    // read before any element of it is written.
    std::vector<double> snapshot;
    const double *from = nullptr;
    if (src.isContiguous() && src.storage_ != storage_) {
        from = src.storage_->data() + src.offset_;
    } else {
        src.readInto(snapshot);
        from = snapshot.data();
    }
    std::size_t i = 0;
    forEachLinear([&](std::size_t linear) {
        (*storage_)[linear] += from[i++];
    });
}

void
Buffer::copyFrom(const Buffer &src)
{
    C4CAM_ASSERT(shape_ == src.shape(), "copyFrom shape mismatch");
    if (numElements() == 0)
        return;
    forEachIndex(shape_, [&](const std::vector<std::int64_t> &index) {
        set(index, src.at(index));
    });
}

void
Buffer::fill(double value)
{
    if (numElements() == 0)
        return;
    forEachIndex(shape_, [&](const std::vector<std::int64_t> &index) {
        set(index, value);
    });
}

void
Buffer::readInto(std::vector<double> &out) const
{
    out.clear();
    std::size_t n = static_cast<std::size_t>(numElements());
    if (n == 0)
        return;
    if (isContiguous()) {
        // Dense view: one block copy instead of an index walk.
        auto begin = storage_->begin() +
                     static_cast<std::ptrdiff_t>(offset_);
        out.assign(begin, begin + static_cast<std::ptrdiff_t>(n));
        return;
    }
    out.reserve(n);
    // Strided view: odometer walk with an incrementally maintained
    // linear index (no per-element stride recomputation).
    forEachLinear([&](std::size_t linear) {
        out.push_back((*storage_)[linear]);
    });
}

std::vector<double>
Buffer::toVector() const
{
    std::vector<double> out;
    readInto(out);
    return out;
}

std::vector<std::vector<float>>
Buffer::toMatrix() const
{
    C4CAM_ASSERT(rank() == 2, "toMatrix requires a rank-2 buffer, got rank "
                 << rank());
    std::vector<std::vector<float>> out(
        static_cast<std::size_t>(shape_[0]),
        std::vector<float>(static_cast<std::size_t>(shape_[1])));
    for (std::int64_t r = 0; r < shape_[0]; ++r) {
        std::int64_t row_base = offset_ + r * strides_[0];
        for (std::int64_t c = 0; c < shape_[1]; ++c)
            out[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
                static_cast<float>((*storage_)[static_cast<std::size_t>(
                    row_base + c * strides_[1])]);
    }
    return out;
}

std::string
Buffer::str() const
{
    std::ostringstream oss;
    oss << (dtype_ == DType::F32 ? "f32" : "i64") << "[";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        if (i)
            oss << "x";
        oss << shape_[i];
    }
    oss << "]{";
    auto flat = toVector();
    for (std::size_t i = 0; i < flat.size() && i < 8; ++i) {
        if (i)
            oss << ", ";
        oss << flat[i];
    }
    if (flat.size() > 8)
        oss << ", ...";
    oss << "}";
    return oss.str();
}

std::vector<RtValue>
toRtValues(const std::vector<BufferPtr> &args)
{
    std::vector<RtValue> rt_args;
    rt_args.reserve(args.size());
    for (const BufferPtr &arg : args)
        rt_args.emplace_back(arg);
    return rt_args;
}

} // namespace c4cam::rt
