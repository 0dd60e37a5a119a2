#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "tensor/rng.h"

namespace pf {
namespace {

TEST(Tensor, ConstructionAndFill) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(1), 3);
  EXPECT_EQ(t.size(-1), 3);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
  t.fill(2.5f);
  EXPECT_FLOAT_EQ(t.sum(), 15.0f);
}

TEST(Tensor, ScalarAndArange) {
  Tensor s = Tensor::scalar(3.0f);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.dim(), 0);
  Tensor a = Tensor::arange(5);
  EXPECT_FLOAT_EQ(a[3], 3.0f);
  EXPECT_FLOAT_EQ(a.sum(), 10.0f);
}

TEST(Tensor, MultiIndexAccess) {
  Tensor t(Shape{2, 3, 4});
  t.at({1, 2, 3}) = 7.0f;
  EXPECT_FLOAT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
  EXPECT_FLOAT_EQ(t.at({1, 2, 3}), 7.0f);
}

TEST(Tensor, ReshapeKeepsData) {
  Tensor t = Tensor::arange(12);
  Tensor r = t.reshape(Shape{3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_FLOAT_EQ(r.at({2, 1}), 9.0f);
}

TEST(Tensor, ReshapeInfersDim) {
  Tensor t = Tensor::arange(12);
  Tensor r = t.reshape(Shape{2, -1});
  EXPECT_EQ(r.shape(), (Shape{2, 6}));
  EXPECT_THROW(t.reshape(Shape{5, -1}), std::runtime_error);
  EXPECT_THROW(t.reshape(Shape{-1, -1}), std::runtime_error);
}

TEST(Tensor, ReshapeRejectsWrongNumel) {
  Tensor t = Tensor::arange(12);
  EXPECT_THROW(t.reshape(Shape{5, 2}), std::runtime_error);
}

TEST(Tensor, Transpose2D) {
  Tensor t = Tensor::arange(6).reshape(Shape{2, 3});
  Tensor tt = t.t();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(tt.at({2, 1}), t.at({1, 2}));
}

TEST(Tensor, TransposePermutation) {
  Tensor t = Tensor::arange(24).reshape(Shape{2, 3, 4});
  Tensor p = t.transpose({2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t j = 0; j < 3; ++j)
      for (int64_t k = 0; k < 4; ++k)
        EXPECT_FLOAT_EQ(p.at({k, i, j}), t.at({i, j, k}));
}

TEST(Tensor, TransposeRoundTrip) {
  Tensor t = Tensor::arange(24).reshape(Shape{2, 3, 4});
  Tensor round = t.transpose({1, 2, 0}).transpose({2, 0, 1});
  EXPECT_TRUE(allclose(round, t));
}

TEST(Tensor, ElementwiseSameShape) {
  Tensor a = Tensor::arange(4);
  Tensor b = Tensor::full(Shape{4}, 2.0f);
  EXPECT_FLOAT_EQ((a + b)[3], 5.0f);
  EXPECT_FLOAT_EQ((a - b)[0], -2.0f);
  EXPECT_FLOAT_EQ((a * b)[2], 4.0f);
  EXPECT_FLOAT_EQ((a / b)[1], 0.5f);
}

TEST(Tensor, ScalarOps) {
  Tensor a = Tensor::arange(3);
  EXPECT_FLOAT_EQ((a * 2.0f)[2], 4.0f);
  EXPECT_FLOAT_EQ((2.0f * a)[2], 4.0f);
  EXPECT_FLOAT_EQ((a + 1.0f)[0], 1.0f);
  EXPECT_FLOAT_EQ((-a)[1], -1.0f);
}

TEST(Tensor, BroadcastRowVector) {
  Tensor a = Tensor::arange(6).reshape(Shape{2, 3});
  Tensor b = Tensor::arange(3);  // broadcasts over rows
  Tensor c = a + b;
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at({1, 2}), 5.0f + 2.0f);
}

TEST(Tensor, BroadcastColumnVector) {
  Tensor a = Tensor::ones(Shape{2, 3});
  Tensor b = Tensor::arange(2).reshape(Shape{2, 1});
  Tensor c = a * b;
  EXPECT_FLOAT_EQ(c.at({0, 2}), 0.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 1.0f);
}

TEST(Tensor, BroadcastBothSides) {
  Tensor a = Tensor::arange(2).reshape(Shape{2, 1});
  Tensor b = Tensor::arange(3).reshape(Shape{1, 3});
  Tensor c = a + b;
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at({1, 2}), 3.0f);
}

TEST(Tensor, BroadcastShapeMismatchThrows) {
  Tensor a = Tensor::ones(Shape{2, 3});
  Tensor b = Tensor::ones(Shape{2, 4});
  EXPECT_THROW(a + b, std::runtime_error);
}

TEST(Tensor, ReduceToShapeSumsBroadcastDims) {
  Tensor g = Tensor::ones(Shape{4, 3});
  Tensor r = reduce_to_shape(g, Shape{3});
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(r[0], 4.0f);
  Tensor r2 = reduce_to_shape(g, Shape{4, 1});
  EXPECT_EQ(r2.shape(), (Shape{4, 1}));
  EXPECT_FLOAT_EQ(r2[0], 3.0f);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from_vector({1, -5, 3, 2});
  EXPECT_FLOAT_EQ(t.sum(), 1.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.25f);
  EXPECT_FLOAT_EQ(t.min(), -5.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 5.0f);
  EXPECT_EQ(t.argmax(), 2);
  EXPECT_NEAR(t.norm(), std::sqrt(1 + 25 + 9 + 4), 1e-5);
}

TEST(Tensor, SumAxis) {
  Tensor t = Tensor::arange(6).reshape(Shape{2, 3});
  Tensor s0 = sum_axis(t, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0[0], 3.0f);
  Tensor s1 = sum_axis(t, 1, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1[1], 12.0f);
  Tensor sneg = sum_axis(t, -1);
  EXPECT_FLOAT_EQ(sneg[0], 3.0f);
}

TEST(Tensor, MeanAndMaxAxis) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6}).reshape(Shape{2, 3});
  EXPECT_FLOAT_EQ(mean_axis(t, 1)[0], 2.0f);
  EXPECT_FLOAT_EQ(max_axis(t, 0)[2], 6.0f);
}

TEST(Tensor, ArgmaxRows) {
  Tensor t = Tensor::from_vector({1, 9, 2, 8, 3, 4}).reshape(Shape{2, 3});
  auto am = argmax_rows(t);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 0);
}

TEST(Tensor, ConcatAxis0) {
  Tensor a = Tensor::ones(Shape{2, 3});
  Tensor b = Tensor::full(Shape{1, 3}, 2.0f);
  Tensor c = concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(c.at({2, 0}), 2.0f);
}

TEST(Tensor, ConcatAxis1) {
  Tensor a = Tensor::arange(4).reshape(Shape{2, 2});
  Tensor b = Tensor::full(Shape{2, 1}, 9.0f);
  Tensor c = concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at({0, 2}), 9.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 3.0f);
}

TEST(Tensor, SliceMiddle) {
  Tensor t = Tensor::arange(24).reshape(Shape{2, 4, 3});
  Tensor s = slice(t, 1, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 3}));
  EXPECT_FLOAT_EQ(s.at({0, 0, 0}), t.at({0, 1, 0}));
  EXPECT_FLOAT_EQ(s.at({1, 1, 2}), t.at({1, 2, 2}));
}

TEST(Tensor, SliceConcatRoundTrip) {
  Tensor t = Tensor::arange(24).reshape(Shape{2, 4, 3});
  Tensor a = slice(t, 1, 0, 2), b = slice(t, 1, 2, 2);
  EXPECT_TRUE(allclose(concat({a, b}, 1), t));
}

TEST(Tensor, PadSliceIsAdjointOfSlice) {
  Tensor piece = Tensor::ones(Shape{2, 2, 3});
  Tensor full = pad_slice(piece, Shape{2, 4, 3}, 1, 1);
  EXPECT_EQ(full.shape(), (Shape{2, 4, 3}));
  EXPECT_FLOAT_EQ(full.sum(), piece.sum());
  EXPECT_FLOAT_EQ(full.at({0, 0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(full.at({0, 1, 0}), 1.0f);
  // slice(pad_slice(x)) == x.
  EXPECT_TRUE(allclose(slice(full, 1, 1, 2), piece));
}

TEST(Tensor, UnaryMathOps) {
  Tensor t = Tensor::from_vector({0.0f, 1.0f, 4.0f});
  EXPECT_NEAR(exp(t)[1], std::exp(1.0f), 1e-5);
  EXPECT_NEAR(log(t + 1.0f)[0], 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(sqrt(t)[2], 2.0f);
  EXPECT_FLOAT_EQ(abs(-t)[1], 1.0f);
  EXPECT_FLOAT_EQ(pow(t, 2.0f)[2], 16.0f);
  EXPECT_FLOAT_EQ(clamp(t, 0.5f, 2.0f)[0], 0.5f);
  EXPECT_FLOAT_EQ(clamp(t, 0.5f, 2.0f)[2], 2.0f);
}

TEST(Tensor, AddInPlaceWithAlpha) {
  Tensor a = Tensor::ones(Shape{3});
  Tensor b = Tensor::arange(3);
  a.add_(b, 2.0f);
  EXPECT_FLOAT_EQ(a[2], 5.0f);
  EXPECT_THROW(a.add_(Tensor::ones(Shape{4})), std::runtime_error);
}

TEST(Tensor, AllcloseAndMaxAbsDiff) {
  Tensor a = Tensor::ones(Shape{3});
  Tensor b = a;
  b[1] += 1e-7f;
  EXPECT_TRUE(allclose(a, b));
  b[1] += 1.0f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_NEAR(max_abs_diff(a, b), 1.0f, 1e-5);
  EXPECT_FALSE(allclose(a, Tensor::ones(Shape{4})));
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(shape_numel(Shape{}), 1);
  EXPECT_EQ(shape_numel(Shape{2, 3, 4}), 24);
  EXPECT_EQ(shape_str(Shape{2, 3}), "[2, 3]");
  EXPECT_EQ(broadcast_shape(Shape{3, 1, 5}, Shape{2, 1}),
            (Shape{3, 2, 5}));
}

// Property sweep: broadcasting agrees with an explicit tiling reference.
struct BroadcastCase {
  Shape a, b;
};

// Prints the case as its shapes (e.g. "2x3+3"). Without it gtest prints the
// raw bytes of the two vectors -- heap addresses -- and the discovered ctest
// names change from build to build.
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  auto dims = [os](const Shape& s) {
    for (size_t i = 0; i < s.size(); ++i) *os << (i ? "x" : "") << s[i];
  };
  dims(c.a);
  *os << '+';
  dims(c.b);
}

class BroadcastP : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastP, MatchesExplicitTiling) {
  const auto& [sa, sb] = GetParam();
  Rng rng(42);
  Tensor a = rng.rand(sa), b = rng.rand(sb);
  Tensor c = a + b;
  const Shape os = broadcast_shape(sa, sb);
  ASSERT_EQ(c.shape(), os);
  // Reference: index arithmetic per element.
  const size_t nd = os.size();
  std::vector<int64_t> idx(nd, 0);
  for (int64_t flat = 0; flat < c.numel(); ++flat) {
    auto fetch = [&](const Tensor& t) {
      const Shape& s = t.shape();
      int64_t off = 0, stride = 1;
      for (int64_t d = static_cast<int64_t>(s.size()) - 1; d >= 0; --d) {
        const size_t od = nd - s.size() + static_cast<size_t>(d);
        const int64_t i =
            s[static_cast<size_t>(d)] == 1 ? 0 : idx[od];
        off += i * stride;
        stride *= s[static_cast<size_t>(d)];
      }
      return t[off];
    };
    EXPECT_FLOAT_EQ(c[flat], fetch(a) + fetch(b)) << "flat=" << flat;
    for (int64_t d = static_cast<int64_t>(nd) - 1; d >= 0; --d) {
      if (++idx[static_cast<size_t>(d)] < os[static_cast<size_t>(d)]) break;
      idx[static_cast<size_t>(d)] = 0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastP,
    ::testing::Values(BroadcastCase{{4}, {4}}, BroadcastCase{{2, 3}, {3}},
                      BroadcastCase{{2, 3}, {2, 1}},
                      BroadcastCase{{1, 3}, {2, 1}},
                      BroadcastCase{{2, 1, 4}, {3, 1}},
                      BroadcastCase{{5}, {2, 3, 5}},
                      BroadcastCase{{2, 3, 4}, {2, 3, 4}}));

// Property sweep: sum_axis equals manual summation for every axis.
class SumAxisP : public ::testing::TestWithParam<int64_t> {};

TEST_P(SumAxisP, MatchesManual) {
  const int64_t axis = GetParam();
  Rng rng(7);
  Tensor t = rng.rand(Shape{3, 4, 5});
  Tensor s = sum_axis(t, axis, /*keepdim=*/true);
  // Sum the slices manually.
  Tensor manual(s.shape());
  for (int64_t i = 0; i < t.size(axis); ++i) {
    Tensor sl = slice(t, axis, i, 1);
    manual.add_(sl);
  }
  EXPECT_TRUE(allclose(s, manual, 1e-4f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Axes, SumAxisP, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace pf
