/** @file Runtime buffer/view tests. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>

#include "runtime/Buffer.h"
#include "support/Error.h"

using namespace c4cam;
using namespace c4cam::rt;

TEST(Buffer, AllocZeroInitialized)
{
    auto buf = Buffer::alloc(DType::F32, {2, 3});
    EXPECT_EQ(buf->numElements(), 6);
    EXPECT_EQ(buf->rank(), 2u);
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(buf->at({i, j}), 0.0);
}

TEST(Buffer, SetGetRoundTrip)
{
    auto buf = Buffer::alloc(DType::F32, {4, 4});
    buf->set({2, 3}, 7.5);
    EXPECT_DOUBLE_EQ(buf->at({2, 3}), 7.5);
    buf->setInt({0, 0}, 42);
    EXPECT_EQ(buf->atInt({0, 0}), 42);
}

TEST(Buffer, FromMatrix)
{
    auto buf = Buffer::fromMatrix({{1, 2}, {3, 4}});
    EXPECT_DOUBLE_EQ(buf->at({0, 1}), 2.0);
    EXPECT_DOUBLE_EQ(buf->at({1, 0}), 3.0);
    EXPECT_THROW(Buffer::fromMatrix({{1, 2}, {3}}), CompilerError);
    EXPECT_THROW(Buffer::fromMatrix({}), CompilerError);
}

TEST(Buffer, SubviewAliasesStorage)
{
    auto buf = Buffer::alloc(DType::F32, {4, 8});
    buf->set({2, 5}, 9.0);
    auto view = buf->subview({2, 4}, {2, 4});
    EXPECT_EQ(view->shape(), (std::vector<std::int64_t>{2, 4}));
    EXPECT_DOUBLE_EQ(view->at({0, 1}), 9.0);
    // Writing through the view is visible in the parent.
    view->set({1, 3}, 4.0);
    EXPECT_DOUBLE_EQ(buf->at({3, 7}), 4.0);
}

TEST(Buffer, NestedSubviews)
{
    auto buf = Buffer::alloc(DType::F32, {8, 8});
    buf->set({5, 6}, 1.5);
    auto outer = buf->subview({4, 4}, {4, 4});
    auto inner = outer->subview({1, 2}, {2, 2});
    EXPECT_DOUBLE_EQ(inner->at({0, 0}), 1.5);
}

TEST(Buffer, SubviewBoundsChecked)
{
    auto buf = Buffer::alloc(DType::F32, {4, 4});
    EXPECT_THROW(buf->subview({2, 2}, {3, 1}), InternalError);
    EXPECT_THROW(buf->subview({0}, {1}), InternalError);
}

TEST(Buffer, CopyFromRespectsViews)
{
    auto src = Buffer::fromMatrix({{1, 2}, {3, 4}});
    auto dst = Buffer::alloc(DType::F32, {4, 4});
    auto window = dst->subview({1, 1}, {2, 2});
    window->copyFrom(*src);
    EXPECT_DOUBLE_EQ(dst->at({1, 1}), 1.0);
    EXPECT_DOUBLE_EQ(dst->at({2, 2}), 4.0);
    EXPECT_DOUBLE_EQ(dst->at({0, 0}), 0.0);
}

TEST(Buffer, FillAndToVector)
{
    auto buf = Buffer::alloc(DType::F32, {2, 2});
    buf->fill(3.0);
    auto flat = buf->toVector();
    ASSERT_EQ(flat.size(), 4u);
    for (double v : flat)
        EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Buffer, ToVectorFollowsViewLayout)
{
    auto buf = Buffer::fromMatrix({{1, 2, 3}, {4, 5, 6}});
    auto col = buf->subview({0, 1}, {2, 1});
    auto flat = col->toVector();
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_DOUBLE_EQ(flat[0], 2.0);
    EXPECT_DOUBLE_EQ(flat[1], 5.0);
}

TEST(Buffer, ToMatrixRequiresRank2)
{
    auto buf = Buffer::alloc(DType::F32, {4});
    EXPECT_THROW(buf->toMatrix(), InternalError);
    auto mat = Buffer::fromMatrix({{1, 2}})->toMatrix();
    ASSERT_EQ(mat.size(), 1u);
    EXPECT_FLOAT_EQ(mat[0][1], 2.0f);
}

TEST(Buffer, IndexBoundsChecked)
{
    auto buf = Buffer::alloc(DType::F32, {2, 2});
    EXPECT_THROW(buf->at({2, 0}), InternalError);
    EXPECT_THROW(buf->at({0}), InternalError);
}

TEST(Buffer, RankZero)
{
    auto buf = Buffer::alloc(DType::F32, {});
    EXPECT_EQ(buf->numElements(), 1);
    buf->set({}, 5.0);
    EXPECT_DOUBLE_EQ(buf->at({}), 5.0);
}

TEST(RtValue, Variants)
{
    RtValue i(std::int64_t(4));
    EXPECT_TRUE(i.isInt());
    EXPECT_EQ(i.asInt(), 4);
    EXPECT_DOUBLE_EQ(i.asFloat(), 4.0); // int widens to float

    RtValue f(2.5);
    EXPECT_TRUE(f.isFloat());
    EXPECT_THROW(f.asInt(), InternalError);

    RtValue b(Buffer::alloc(DType::F32, {1}));
    EXPECT_TRUE(b.isBuffer());
    EXPECT_THROW(b.asInt(), InternalError);
    EXPECT_THROW(i.asBuffer(), InternalError);
}

TEST(Buffer, StrIsInformative)
{
    auto buf = Buffer::fromMatrix({{1, 2}});
    std::string s = buf->str();
    EXPECT_NE(s.find("f32"), std::string::npos);
    EXPECT_NE(s.find("1x2"), std::string::npos);
}

TEST(Buffer, AssignSubviewRepointsInPlace)
{
    auto buf = Buffer::fromMatrix({{1, 2, 3}, {4, 5, 6}});
    auto view = buf->subview({0, 0}, {1, 3});
    const Buffer *object = view.get();
    view->assignSubview(*buf, {1, 1}, {1, 2});
    EXPECT_EQ(view.get(), object);
    EXPECT_EQ(view->shape(), (std::vector<std::int64_t>{1, 2}));
    EXPECT_EQ(view->toVector(), (std::vector<double>{5, 6}));

    // The base may be the view itself.
    view->assignSubview(*view, {0, 1}, {1, 1});
    EXPECT_EQ(view->toVector(), (std::vector<double>{6}));

    // Same bounds checks as subview(); a rejected window changes
    // nothing.
    EXPECT_THROW(view->assignSubview(*buf, {1, 2}, {1, 2}), InternalError);
    EXPECT_THROW(view->assignSubview(*buf, {0}, {1}), InternalError);
    EXPECT_EQ(view->toVector(), (std::vector<double>{6}));
}

TEST(Buffer, SoleDenseStorageOnlyForUnsharedVectors)
{
    auto vec = Buffer::alloc(DType::F32, {3});
    ASSERT_NE(vec->soleDenseStorage<float>(3), nullptr);
    EXPECT_EQ(vec->soleDenseStorage<std::int64_t>(3), nullptr);
    EXPECT_EQ(vec->soleDenseStorage<float>(4), nullptr);
    {
        auto alias = vec->subview({1}, {2});
        EXPECT_EQ(vec->soleDenseStorage<float>(3), nullptr);
    }
    EXPECT_NE(vec->soleDenseStorage<float>(3), nullptr);

    auto mat = Buffer::alloc(DType::F32, {2, 2});
    EXPECT_EQ(mat->soleDenseStorage<float>(4), nullptr);
}

TEST(Buffer, AddFromReadsAnAliasingSourceFirst)
{
    // acc = row 0, partial = the whole 1x4 buffer shifted by one: the
    // accumulate must read every partial element before writing.
    auto buf = Buffer::fromMatrix({{1, 2, 3, 4, 5}});
    auto acc = buf->subview({0, 1}, {1, 4});
    auto partial = buf->subview({0, 0}, {1, 4});
    acc->addFrom(*partial);
    EXPECT_EQ(buf->toVector(), (std::vector<double>{1, 3, 5, 7, 9}));

    auto strided = Buffer::fromMatrix({{1, 2}, {3, 4}})->subview({0, 0},
                                                                 {2, 1});
    auto out = Buffer::alloc(DType::F32, {2});
    out->addFrom(*strided);
    EXPECT_EQ(out->toVector(), (std::vector<double>{1, 3}));
}

TEST(Buffer, I64HoldsValuesAbove2To53)
{
    // 2^53 + 1 is the first integer a double cannot hold.
    const std::int64_t big = (std::int64_t(1) << 53) + 1;
    auto buf = Buffer::alloc(DType::I64, {2, 3});
    buf->setInt({1, 2}, big);
    EXPECT_EQ(buf->atInt({1, 2}), big);
    buf->setInt({0, 0}, std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(buf->atInt({0, 0}), std::numeric_limits<std::int64_t>::min());

    auto view = buf->subview({1, 1}, {1, 2});
    EXPECT_EQ(view->atInt({0, 1}), big);
    view->setInt({0, 0}, big + 2);
    EXPECT_EQ(buf->atInt({1, 1}), big + 2);

    auto copy = Buffer::alloc(DType::I64, {1, 2});
    copy->copyFrom(*view);
    EXPECT_EQ(copy->atInt({0, 0}), big + 2);
    EXPECT_EQ(copy->atInt({0, 1}), big);
}

TEST(Buffer, F32StoresRoundToFloat)
{
    auto buf = Buffer::alloc(DType::F32, {2});
    buf->set({0}, 0.1);
    EXPECT_EQ(buf->at({0}), static_cast<double>(0.1f));
    EXPECT_NE(buf->at({0}), 0.1);
    buf->setInt({1}, (std::int64_t(1) << 24) + 1);
    EXPECT_EQ(buf->atInt({1}), std::int64_t(1) << 24);
}

TEST(Buffer, IntConversionOutOfRangeIsDiagnosed)
{
    auto ints = Buffer::alloc(DType::I64, {1});
    EXPECT_THROW(ints->set({0}, std::nan("")), CompilerError);
    EXPECT_THROW(ints->set({0}, 1e300), CompilerError);
    EXPECT_THROW(ints->set({0}, -std::numeric_limits<double>::infinity()),
                 CompilerError);
    EXPECT_EQ(ints->atInt({0}), 0);

    auto floats = Buffer::alloc(DType::F32, {1});
    floats->set({0}, std::nan(""));
    EXPECT_THROW(floats->atInt({0}), CompilerError);
    EXPECT_THROW(ints->copyFrom(*floats), CompilerError);
}

TEST(Buffer, ElementsReadDenseViewsInPlaceAndGatherStridedOnes)
{
    auto buf = Buffer::fromMatrix({{1, 2, 3}, {4, 5, 6}});
    std::vector<float> scratch;

    // A [1, w] row view is dense: the span is the storage itself.
    auto row = buf->subview({1, 0}, {1, 3});
    std::span<const float> in_place = row->elements<float>(scratch);
    EXPECT_EQ(in_place.data(), buf->denseElements<float>().data() + 3);
    EXPECT_TRUE(scratch.empty());

    // A column view is strided: gathered into the scratch.
    auto column = buf->subview({0, 1}, {2, 1});
    std::span<const float> gathered = column->elements<float>(scratch);
    EXPECT_EQ(gathered.data(), scratch.data());
    EXPECT_EQ(scratch, (std::vector<float>{2, 5}));

    // Another dtype converts while it gathers.
    auto ints = Buffer::alloc(DType::I64, {2});
    ints->setInt({1}, 7);
    std::vector<float> converted;
    std::span<const float> as_floats = ints->elements<float>(converted);
    EXPECT_EQ(std::vector<float>(as_floats.begin(), as_floats.end()),
              (std::vector<float>{0, 7}));
    EXPECT_TRUE(column->denseElements<float>().empty());
    EXPECT_TRUE(ints->denseElements<float>().empty());
}

TEST(Buffer, SoleDenseStorageIsTypedForI64Vectors)
{
    auto vec = Buffer::alloc(DType::I64, {3});
    std::int64_t *data = vec->soleDenseStorage<std::int64_t>(3);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(vec->soleDenseStorage<float>(3), nullptr);
    EXPECT_EQ(vec->soleDenseStorage<std::int64_t>(2), nullptr);
    {
        auto alias = vec->subview({0}, {3});
        EXPECT_EQ(vec->soleDenseStorage<std::int64_t>(3), nullptr);
    }
    data[2] = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(vec->atInt({2}), std::numeric_limits<std::int64_t>::max());

    auto mat = Buffer::alloc(DType::I64, {2, 2});
    EXPECT_EQ(mat->soleDenseStorage<std::int64_t>(4), nullptr);
}
