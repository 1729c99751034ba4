#ifndef C4CAM_RUNTIME_BUFFER_H
#define C4CAM_RUNTIME_BUFFER_H

/**
 * @file
 * Runtime data values: strided buffers (memrefs/tensors) and scalars.
 *
 * A Buffer is a view (shape + strides + offset) onto shared storage, so
 * memref.subview / tensor.extract_slice are O(1) aliases, exactly like
 * MLIR's memref descriptors. The storage is one typed block per
 * dtype, like a bufferized memref: an F32 buffer holds floats (4
 * bytes an element) and an I64 buffer holds std::int64_t.
 *
 * Element conversions follow the memref element type:
 *  - every store into an F32 buffer rounds to float (host kernels
 *    compute in double and round on store);
 *  - atInt/setInt are exact over the whole int64 range of an I64
 *    buffer; at() and toVector() read it as double, which is lossy
 *    above 2^53;
 *  - a double stored into an I64 buffer, or an F32 element read with
 *    atInt, truncates toward zero, and NaN, +-inf or a value outside
 *    the int64 range is a CompilerError.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "support/Error.h"

namespace c4cam::rt {

/** Element type of a buffer: F32 stores float, I64 std::int64_t. */
enum class DType { F32, I64 };

/**
 * A strided view onto shared dense typed storage.
 */
class Buffer
{
  public:
    /** Allocate a zero-initialized buffer with row-major layout. */
    static std::shared_ptr<Buffer> alloc(DType dtype,
                                         std::vector<std::int64_t> shape);

    /** Allocate a rank-2 f32 buffer from nested init data. */
    static std::shared_ptr<Buffer>
    fromMatrix(const std::vector<std::vector<float>> &rows);

    DType dtype() const { return dtype_; }
    const std::vector<std::int64_t> &shape() const { return shape_; }
    std::size_t rank() const { return shape_.size(); }

    std::int64_t
    numElements() const
    {
        std::int64_t n = 1;
        for (auto d : shape_)
            n *= d;
        return n;
    }

    /** Element read as double (an I64 element above 2^53 rounds). */
    double at(const std::vector<std::int64_t> &index) const;

    /** Element write from double: rounds to float in an F32 buffer,
     *  truncates toward zero in an I64 one (NaN, +-inf and values
     *  outside the int64 range are a CompilerError). */
    void set(const std::vector<std::int64_t> &index, double value);

    /** Integer element accessors: exact in an I64 buffer; atInt of an
     *  F32 element truncates toward zero (NaN, +-inf and out-of-range
     *  values are a CompilerError), setInt rounds to float. */
    std::int64_t atInt(const std::vector<std::int64_t> &index) const;
    void setInt(const std::vector<std::int64_t> &index, std::int64_t value);

    /**
     * Create an O(1) sub-view: @p offsets/@p sizes per dimension
     * (strides stay those of this view).
     */
    std::shared_ptr<Buffer> subview(const std::vector<std::int64_t> &offsets,
                                    const std::vector<std::int64_t> &sizes)
        const;

    /**
     * Re-point this view at base.subview(@p offsets, @p sizes) in
     * place, keeping the capacity of its shape and stride vectors.
     * Same bounds checks as subview(); @p base may be this view. Only
     * for a view nobody else holds: plan replay re-points the view in
     * a frame slot when the slot is its only owner.
     */
    void assignSubview(const Buffer &base,
                       const std::vector<std::int64_t> &offsets,
                       const std::vector<std::int64_t> &sizes);

    /**
     * The elements of a dense rank-1 buffer of @p n elements of type
     * @p T (float for F32, std::int64_t for I64) whose storage no
     * other view shares; nullptr when this buffer is anything else.
     * Plan replay writes cam.read results through it.
     */
    template <typename T> T *soleDenseStorage(std::int64_t n);

    /**
     * The row-major elements of a dense view whose element type is
     * @p T; an empty span when the view is strided or of the other
     * dtype. Host kernels fill their fresh outputs through it.
     */
    template <typename T> std::span<T> denseElements();

    /**
     * This view's elements in row-major order as @p T (float or
     * std::int64_t): a span straight over the storage when the view is
     * dense and its element type is @p T, otherwise the elements
     * converted (as a store into a @p T buffer would) into @p scratch.
     * cam.search hands the device its query this way.
     */
    template <typename T>
    std::span<const T> elements(std::vector<T> &scratch) const;

    /** Deep-copy @p src into this view (shapes must match). */
    void copyFrom(const Buffer &src);

    /** Fill every element with @p value. */
    void fill(double value);

    /**
     * Copy @p src's elements into this view, both walked in row-major
     * order; element counts must match, shapes may differ (1xN row
     * views vs N vectors). Converts between dtypes like set/setInt; a
     * same-dtype dense copy is one block copy. An aliasing source is
     * read before any element is written.
     */
    void copyElementsFrom(const Buffer &src);

    /**
     * Elementwise accumulate @p src into this view, both walked in
     * row-major order; element counts must match. Sums are taken in
     * double (in int64 when both buffers are I64) and rounded on store.
     */
    void addFrom(const Buffer &src);

    /** Flatten this view into a dense row-major vector of doubles
     *  (lossy for I64 elements above 2^53). */
    std::vector<double> toVector() const;

    /** True when the view's elements are dense in row-major order. */
    bool isContiguous() const;

    /** Rank-2 view flattened into rows of floats (for CAM writes). */
    std::vector<std::vector<float>> toMatrix() const;

    /** Short debug rendering: dtype, shape and first elements. */
    std::string str() const;

  private:
    /** make_shared access token (keeps construction factory-only). */
    struct Private
    {
        explicit Private() = default;
    };

    /** One-allocation creation (object + control block fused). */
    static std::shared_ptr<Buffer> create();

    std::int64_t linearIndex(const std::vector<std::int64_t> &index) const;

    /** Row-major visit of every element's storage slot. */
    template <typename Fn> void forEachLinear(Fn &&fn) const;

    /** Call @p fn with the storage base as float* (F32) or
     *  std::int64_t* (I64). */
    template <typename Fn> void visitStorage(Fn &&fn) const;

    /** Row-major elements converted to @p T into @p out. */
    template <typename T> void gather(std::vector<T> &out) const;

    /** op(dst element, src element) over both views in row-major
     *  order, reading an aliasing or strided source from a snapshot. */
    template <typename Op> void zipFrom(const Buffer &src, Op &&op);

  public:
    explicit Buffer(Private) {}

  private:

    DType dtype_ = DType::F32;
    std::vector<std::int64_t> shape_;
    std::vector<std::int64_t> strides_;
    std::int64_t offset_ = 0;
    /** float[] for F32, std::int64_t[] for I64; shared by views. */
    std::shared_ptr<void> storage_;
};

using BufferPtr = std::shared_ptr<Buffer>;

/**
 * Any value an interpreter register can hold: an integer (covers index /
 * i1 / i64 / device handles), a float, or a buffer.
 */
class RtValue
{
  public:
    RtValue() : v_(std::int64_t(0)) {}
    explicit RtValue(std::int64_t i) : v_(i) {}
    explicit RtValue(double d) : v_(d) {}
    explicit RtValue(BufferPtr b) : v_(std::move(b)) {}

    bool isInt() const { return std::holds_alternative<std::int64_t>(v_); }
    bool isFloat() const { return std::holds_alternative<double>(v_); }
    bool isBuffer() const { return std::holds_alternative<BufferPtr>(v_); }

    std::int64_t
    asInt() const
    {
        C4CAM_ASSERT(isInt(), "runtime value is not an integer");
        return std::get<std::int64_t>(v_);
    }

    double
    asFloat() const
    {
        if (isInt())
            return static_cast<double>(std::get<std::int64_t>(v_));
        C4CAM_ASSERT(isFloat(), "runtime value is not a float");
        return std::get<double>(v_);
    }

    const BufferPtr &
    asBuffer() const
    {
        C4CAM_ASSERT(isBuffer(), "runtime value is not a buffer");
        return std::get<BufferPtr>(v_);
    }

    /// @name In-place scalar stores
    /// How plan replay writes every scalar result: a type-stable
    /// scalar slot (the overwhelmingly common case in a loop) takes a
    /// predicted branch + direct store instead of the construct /
    /// move-assign / destroy dance of `slot = RtValue(...)`. The slot
    /// ends up holding the same alternative and value either way.
    /// @{
    void
    setInt(std::int64_t i)
    {
        if (auto *p = std::get_if<std::int64_t>(&v_))
            *p = i;
        else
            v_.emplace<std::int64_t>(i);
    }

    void
    setFloat(double d)
    {
        if (auto *p = std::get_if<double>(&v_))
            *p = d;
        else
            v_.emplace<double>(d);
    }
    /// @}

  private:
    std::variant<std::int64_t, double, BufferPtr> v_;
};

/** Wrap kernel argument buffers as interpreter values. */
std::vector<RtValue> toRtValues(const std::vector<BufferPtr> &args);

} // namespace c4cam::rt

#endif // C4CAM_RUNTIME_BUFFER_H
