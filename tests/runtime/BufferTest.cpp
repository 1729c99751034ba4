/** @file Runtime buffer/view tests. */

#include <gtest/gtest.h>

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
    ASSERT_NE(vec->soleDenseStorage(DType::F32, 3), nullptr);
    EXPECT_EQ(vec->soleDenseStorage(DType::I64, 3), nullptr);
    EXPECT_EQ(vec->soleDenseStorage(DType::F32, 4), nullptr);
    {
        auto alias = vec->subview({1}, {2});
        EXPECT_EQ(vec->soleDenseStorage(DType::F32, 3), nullptr);
    }
    EXPECT_NE(vec->soleDenseStorage(DType::F32, 3), nullptr);

    auto mat = Buffer::alloc(DType::F32, {2, 2});
    EXPECT_EQ(mat->soleDenseStorage(DType::F32, 4), nullptr);
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
