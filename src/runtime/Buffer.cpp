#include "runtime/Buffer.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <type_traits>

namespace c4cam::rt {

namespace {

/**
 * The int64 value of @p value truncated toward zero; NaN, +-inf and
 * values outside the int64 range are a CompilerError.
 */
std::int64_t
toInt64(double value)
{
    // NaN fails both comparisons; 2^63 is the first double past
    // INT64_MAX, -2^63 is INT64_MIN exactly.
    C4CAM_CHECK(value >= -0x1p63 && value < 0x1p63,
                "value " << value << " is not representable as i64");
    return static_cast<std::int64_t>(value);
}

/** Convert one element to @p To the way a store of it would. */
template <typename To, typename From>
To
elementCast(From value)
{
    if constexpr (std::is_same_v<To, std::int64_t> &&
                  !std::is_same_v<From, std::int64_t>)
        return toInt64(static_cast<double>(value));
    else
        return static_cast<To>(value);
}

template <typename T> constexpr DType kDTypeOf = DType::F32;
template <> constexpr DType kDTypeOf<std::int64_t> = DType::I64;

} // namespace

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
    // One allocation for the control block and the zeroed elements.
    const auto n = static_cast<std::size_t>(buf->numElements());
    if (dtype == DType::F32)
        buf->storage_ = std::make_shared<float[]>(n);
    else
        buf->storage_ = std::make_shared<std::int64_t[]>(n);
    return buf;
}

std::shared_ptr<Buffer>
Buffer::fromMatrix(const std::vector<std::vector<float>> &rows)
{
    C4CAM_CHECK(!rows.empty(), "fromMatrix: empty data");
    const std::size_t cols = rows[0].size();
    auto buf = alloc(DType::F32, {static_cast<std::int64_t>(rows.size()),
                                  static_cast<std::int64_t>(cols)});
    float *out = static_cast<float *>(buf->storage_.get());
    for (const std::vector<float> &row : rows) {
        C4CAM_CHECK(row.size() == cols, "fromMatrix: ragged rows");
        out = std::copy(row.begin(), row.end(), out);
    }
    return buf;
}

template <typename Fn>
void
Buffer::visitStorage(Fn &&fn) const
{
    if (dtype_ == DType::F32)
        fn(static_cast<float *>(storage_.get()));
    else
        fn(static_cast<std::int64_t *>(storage_.get()));
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
    const std::int64_t linear = linearIndex(index);
    double value = 0.0;
    visitStorage([&](auto *data) {
        value = static_cast<double>(data[linear]);
    });
    return value;
}

void
Buffer::set(const std::vector<std::int64_t> &index, double value)
{
    const std::int64_t linear = linearIndex(index);
    visitStorage([&](auto *data) {
        using T = std::remove_pointer_t<decltype(data)>;
        data[linear] = elementCast<T>(value);
    });
}

std::int64_t
Buffer::atInt(const std::vector<std::int64_t> &index) const
{
    const std::int64_t linear = linearIndex(index);
    std::int64_t value = 0;
    visitStorage([&](auto *data) {
        value = elementCast<std::int64_t>(data[linear]);
    });
    return value;
}

void
Buffer::setInt(const std::vector<std::int64_t> &index, std::int64_t value)
{
    const std::int64_t linear = linearIndex(index);
    visitStorage([&](auto *data) {
        using T = std::remove_pointer_t<decltype(data)>;
        data[linear] = elementCast<T>(value);
    });
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

template <typename T>
T *
Buffer::soleDenseStorage(std::int64_t n)
{
    if (shape_.size() != 1 || shape_[0] != n || strides_[0] != 1 ||
        storage_.use_count() != 1)
        return nullptr;
    return denseElements<T>().data();
}

template <typename T>
std::span<T>
Buffer::denseElements()
{
    if (dtype_ != kDTypeOf<T> || !isContiguous())
        return {};
    return {static_cast<T *>(storage_.get()) + offset_,
            static_cast<std::size_t>(numElements())};
}

template <typename T>
std::span<const T>
Buffer::elements(std::vector<T> &scratch) const
{
    if (dtype_ == kDTypeOf<T> && isContiguous())
        return {static_cast<const T *>(storage_.get()) + offset_,
                static_cast<std::size_t>(numElements())};
    gather(scratch);
    return scratch;
}

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
    // Strided view: odometer walk with an incrementally maintained
    // linear index (no per-element stride recomputation).
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

template <typename T>
void
Buffer::gather(std::vector<T> &out) const
{
    out.resize(static_cast<std::size_t>(numElements()));
    T *to = out.data();
    visitStorage([&](const auto *data) {
        forEachLinear([&](std::size_t linear) {
            *to++ = elementCast<T>(data[linear]);
        });
    });
}

template <typename Op>
void
Buffer::zipFrom(const Buffer &src, Op &&op)
{
    C4CAM_ASSERT(src.numElements() == numElements(),
                 "element count mismatch: " << src.numElements() << " vs "
                 << numElements());
    visitStorage([&](auto *dst) {
        src.visitStorage([&](const auto *from) {
            using S = std::remove_cv_t<
                std::remove_pointer_t<decltype(from)>>;
            // A dense source that shares no storage with this view is
            // read in place; otherwise snapshot it first, so an
            // aliasing source is read before any element is written.
            std::vector<S> snapshot;
            const S *next = nullptr;
            if (src.isContiguous() && src.storage_ != storage_) {
                next = from + src.offset_;
            } else {
                src.gather(snapshot);
                next = snapshot.data();
            }
            forEachLinear([&](std::size_t linear) {
                op(dst[linear], *next++);
            });
        });
    });
}

void
Buffer::copyElementsFrom(const Buffer &src)
{
    if (src.dtype_ == dtype_ && isContiguous() && src.isContiguous() &&
        src.numElements() == numElements()) {
        // Same element type, both dense: one block copy (memmove, so
        // an overlapping alias is copied as if through a snapshot).
        const std::size_t bytes =
            static_cast<std::size_t>(numElements()) *
            (dtype_ == DType::F32 ? sizeof(float) : sizeof(std::int64_t));
        if (bytes == 0)
            return;
        visitStorage([&](auto *dst) {
            using T = std::remove_pointer_t<decltype(dst)>;
            std::memmove(dst + offset_,
                         static_cast<const T *>(src.storage_.get()) +
                             src.offset_,
                         bytes);
        });
        return;
    }
    zipFrom(src, [](auto &to, auto from) {
        to = elementCast<std::remove_reference_t<decltype(to)>>(from);
    });
}

void
Buffer::copyFrom(const Buffer &src)
{
    C4CAM_ASSERT(shape_ == src.shape(), "copyFrom shape mismatch");
    copyElementsFrom(src);
}

void
Buffer::addFrom(const Buffer &src)
{
    zipFrom(src, [](auto &to, auto from) {
        using T = std::remove_reference_t<decltype(to)>;
        if constexpr (std::is_same_v<T, std::int64_t> &&
                      std::is_same_v<decltype(from), std::int64_t>)
            to += from;
        else
            to = elementCast<T>(static_cast<double>(to) +
                                static_cast<double>(from));
    });
}

void
Buffer::fill(double value)
{
    visitStorage([&](auto *data) {
        using T = std::remove_pointer_t<decltype(data)>;
        const T converted = elementCast<T>(value);
        forEachLinear([&](std::size_t linear) { data[linear] = converted; });
    });
}

std::vector<double>
Buffer::toVector() const
{
    std::vector<double> out;
    gather(out);
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
    visitStorage([&](const auto *data) {
        for (std::int64_t r = 0; r < shape_[0]; ++r) {
            std::int64_t row_base = offset_ + r * strides_[0];
            float *row = out[static_cast<std::size_t>(r)].data();
            for (std::int64_t c = 0; c < shape_[1]; ++c)
                row[c] = static_cast<float>(data[row_base + c * strides_[1]]);
        }
    });
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

template float *Buffer::soleDenseStorage<float>(std::int64_t);
template std::int64_t *Buffer::soleDenseStorage<std::int64_t>(std::int64_t);
template std::span<float> Buffer::denseElements<float>();
template std::span<std::int64_t> Buffer::denseElements<std::int64_t>();
template std::span<const float>
Buffer::elements<float>(std::vector<float> &) const;
template std::span<const std::int64_t>
Buffer::elements<std::int64_t>(std::vector<std::int64_t> &) const;

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
