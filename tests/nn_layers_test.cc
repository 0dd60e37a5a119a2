#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "tensor/matmul.h"

namespace pf::nn {
namespace {

TEST(Linear, ShapeAndParamCount) {
  Rng rng(1);
  Linear l(8, 4, rng);
  EXPECT_EQ(l.num_params(), 8 * 4 + 4);
  ag::Var y = l.forward(ag::leaf(rng.randn(Shape{3, 8})));
  EXPECT_EQ(y->shape(), (Shape{3, 4}));
}

TEST(Linear, NoBias) {
  Rng rng(2);
  Linear l(8, 4, rng, /*bias=*/false);
  EXPECT_EQ(l.num_params(), 32);
  EXPECT_FALSE(l.bias);
}

TEST(Linear, MatchesManualMatmul) {
  Rng rng(3);
  Linear l(5, 3, rng);
  Tensor x = rng.randn(Shape{2, 5});
  ag::Var y = l.forward(ag::leaf(x));
  Tensor expect = matmul_nt(x, l.weight->value);
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t j = 0; j < 3; ++j)
      EXPECT_NEAR(y->value[i * 3 + j],
                  expect[i * 3 + j] + l.bias->value[j], 1e-5);
}

// Table 1 check: factorized FC has r(m+n) weight params.
struct LrCase {
  int64_t in, out, rank;
};

class LowRankLinearP : public ::testing::TestWithParam<LrCase> {};

TEST_P(LowRankLinearP, ParamCountMatchesTable1) {
  const auto [in, out, rank] = GetParam();
  Rng rng(7);
  LowRankLinear l(in, out, rank, rng, /*bias=*/false);
  EXPECT_EQ(l.num_params(), rank * (in + out));
  Linear dense(in, out, rng, false);
  EXPECT_EQ(dense.num_params(), in * out);
}

TEST_P(LowRankLinearP, ForwardEqualsExplicitProduct) {
  const auto [in, out, rank] = GetParam();
  Rng rng(9);
  LowRankLinear l(in, out, rank, rng, false);
  Tensor x = rng.randn(Shape{4, in});
  ag::Var y = l.forward(ag::leaf(x));
  // y == x (V U^T).
  Tensor w = matmul_nt(l.u->value, l.v->value);  // (out, in)
  Tensor expect = matmul_nt(x, w);
  EXPECT_TRUE(allclose(y->value, expect, 1e-3f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, LowRankLinearP,
                         ::testing::Values(LrCase{8, 8, 2}, LrCase{16, 4, 3},
                                           LrCase{4, 16, 2},
                                           LrCase{512, 512, 128}));

TEST(Conv2d, ShapeAndCount) {
  Rng rng(11);
  Conv2d c(3, 8, 3, 1, 1, rng);
  EXPECT_EQ(c.num_params(), 8 * 3 * 9);  // bias-free
  ag::Var y = c.forward(ag::leaf(rng.randn(Shape{2, 3, 8, 8})));
  EXPECT_EQ(y->shape(), (Shape{2, 8, 8, 8}));
}

TEST(Conv2d, StridedShape) {
  Rng rng(12);
  Conv2d c(4, 6, 3, 2, 1, rng);
  ag::Var y = c.forward(ag::leaf(rng.randn(Shape{1, 4, 9, 9})));
  EXPECT_EQ(y->shape(), (Shape{1, 6, 5, 5}));
}

// Table 1 check: factorized conv has c_in r k^2 + r c_out params.
TEST(LowRankConv2d, ParamCountMatchesTable1) {
  Rng rng(13);
  const int64_t c_in = 16, c_out = 32, k = 3, r = 8;
  LowRankConv2d c(c_in, c_out, k, 1, 1, r, rng);
  EXPECT_EQ(c.num_params(), c_in * r * k * k + r * c_out);
}

TEST(LowRankConv2d, ForwardEqualsComposedConvs) {
  Rng rng(14);
  LowRankConv2d lr(4, 6, 3, 1, 1, 2, rng);
  Tensor x = rng.randn(Shape{2, 4, 5, 5});
  ag::Var y = lr.forward(ag::leaf(x));
  // Reference: conv with U then 1x1 conv with V via the raw ops.
  ag::Var mid = ag::conv2d(ag::leaf(x), ag::leaf(lr.u->value), 1, 1);
  ag::Var ref = ag::conv2d(mid, ag::leaf(lr.v->value), 1, 0);
  EXPECT_TRUE(allclose(y->value, ref->value, 1e-4f, 1e-5f));
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  Rng rng(15);
  BatchNorm2d bn(3);
  bn.train(true);
  ag::Var x = ag::leaf(rng.randn(Shape{4, 3, 5, 5}, 2.0f, 3.0f));
  ag::Var y = bn.forward(x);
  // Per-channel output mean ~0, var ~1 (gamma=1, beta=0 at init).
  for (int64_t c = 0; c < 3; ++c) {
    double sum = 0, sq = 0;
    int64_t cnt = 0;
    for (int64_t n = 0; n < 4; ++n)
      for (int64_t i = 0; i < 25; ++i) {
        const float v = y->value[(n * 3 + c) * 25 + i];
        sum += v;
        sq += v * v;
        ++cnt;
      }
    EXPECT_NEAR(sum / cnt, 0.0, 1e-4);
    EXPECT_NEAR(sq / cnt, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeToDataStats) {
  Rng rng(16);
  BatchNorm2d bn(2);
  bn.train(true);
  for (int step = 0; step < 200; ++step) {
    Tensor x = rng.randn(Shape{8, 2, 3, 3}, 1.5f, 2.0f);
    bn.forward(ag::leaf(x));
  }
  EXPECT_NEAR((*bn.running_mean)[0], 1.5f, 0.15f);
  EXPECT_NEAR((*bn.running_var)[0], 4.0f, 0.5f);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  (*bn.running_mean)[0] = 2.0f;
  (*bn.running_var)[0] = 4.0f;
  bn.train(false);
  Tensor x = Tensor::full(Shape{1, 1, 1, 2}, 4.0f);
  ag::Var y = bn.forward(ag::leaf(x));
  // (4 - 2)/2 = 1.
  EXPECT_NEAR(y->value[0], 1.0f, 1e-3);
}

TEST(BatchNorm2d, ParamsAreNoDecay) {
  Rng rng(17);
  BatchNorm2d bn(4);
  for (Param* p : bn.parameters()) EXPECT_TRUE(p->no_decay);
}

TEST(LayerNorm, NormalizesLastDim) {
  Rng rng(18);
  LayerNorm ln(6);
  ag::Var y = ln.forward(ag::leaf(rng.randn(Shape{4, 6}, 3.0f, 2.0f)));
  for (int64_t r = 0; r < 4; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 6; ++c) sum += y->value[r * 6 + c];
    EXPECT_NEAR(sum / 6, 0.0, 1e-4);
  }
}

TEST(Embedding, LookupAndTying) {
  Rng rng(19);
  Embedding e(10, 4, rng);
  ag::Var out = e.forward({3, 3, 7});
  EXPECT_EQ(out->shape(), (Shape{3, 4}));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out->value[j], e.weight->value[3 * 4 + j]);
    EXPECT_FLOAT_EQ(out->value[4 + j], e.weight->value[3 * 4 + j]);
  }
}

TEST(Sequential, ComposesAndCollectsParams) {
  Rng rng(20);
  Sequential s;
  s.emplace<Linear>(6, 5, rng);
  s.emplace<ReLU>();
  s.emplace<Linear>(5, 2, rng);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.num_params(), 6 * 5 + 5 + 5 * 2 + 2);
  ag::Var y = s.forward(ag::leaf(rng.randn(Shape{3, 6})));
  EXPECT_EQ(y->shape(), (Shape{3, 2}));
}

TEST(Module, TrainModePropagates) {
  Rng rng(21);
  Sequential s;
  auto* bn = s.emplace<BatchNorm2d>(2);
  s.train(false);
  EXPECT_FALSE(bn->is_training());
  s.train(true);
  EXPECT_TRUE(bn->is_training());
}

TEST(Module, FlatParamsRoundTrip) {
  Rng rng(22);
  Linear l(4, 3, rng);
  Tensor flat = l.flat_params();
  EXPECT_EQ(flat.numel(), l.num_params());
  Tensor doubled = flat * 2.0f;
  l.set_flat_params(doubled);
  EXPECT_TRUE(allclose(l.flat_params(), doubled));
  EXPECT_THROW(l.set_flat_params(Tensor::ones(Shape{3})),
               std::runtime_error);
}

TEST(Module, FlatGradsRoundTrip) {
  Rng rng(23);
  Linear l(4, 3, rng);
  ag::Var y = l.forward(ag::leaf(rng.randn(Shape{2, 4})));
  ag::backward(ag::sum_all(y));
  Tensor g = l.flat_grads();
  EXPECT_EQ(g.numel(), l.num_params());
  EXPECT_GT(g.norm(), 0.0f);
  l.zero_grad();
  EXPECT_FLOAT_EQ(l.flat_grads().norm(), 0.0f);
  l.set_flat_grads(g);
  EXPECT_TRUE(allclose(l.flat_grads(), g));
}

TEST(GradCheck, LinearForwardFormula) {
  // The layer computes x W^T + b; check gradients of that exact composition.
  Rng rng(24);
  pf::testing::gradcheck(
      [](const std::vector<ag::Var>& v) {
        ag::Var y = ag::add(ag::matmul_nt(v[1], v[0]), v[2]);
        return ag::sum_all(ag::mul(y, y));
      },
      {rng.randn(Shape{3, 4}), rng.randn(Shape{2, 4}), rng.randn(Shape{3})});
}

TEST(LowRankConv2d, GradFlowsThroughBothFactors) {
  Rng rng(25);
  LowRankConv2d lr(2, 3, 3, 1, 1, 2, rng);
  ag::Var y = lr.forward(ag::leaf(rng.randn(Shape{1, 2, 4, 4})));
  ag::backward(ag::sum_all(ag::mul(y, y)));
  EXPECT_TRUE(lr.u->has_grad());
  EXPECT_TRUE(lr.v->has_grad());
  EXPECT_GT(lr.u->grad.norm(), 0.0f);
  EXPECT_GT(lr.v->grad.norm(), 0.0f);
}

TEST(MaxPool2dModule, Forward) {
  Rng rng(26);
  MaxPool2d mp(2, 2);
  Tensor x = Tensor::arange(16).reshape(Shape{1, 1, 4, 4});
  ag::Var y = mp.forward(ag::leaf(x));
  EXPECT_EQ(y->shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y->value[0], 5.0f);
  EXPECT_FLOAT_EQ(y->value[3], 15.0f);
}

// A pool or conv window must fit the (padded) input plane: a 2x2 window on
// a 1x1 plane used to truncate to one output that read the next channel's
// values and past the buffer ([1, 5, 2] pooled to [5, 5, 2]).
TEST(MaxPool2dModule, WindowLargerThanPlaneThrows) {
  Rng rng(28);
  const ag::Var x = ag::leaf(Tensor::from_vector({1, 5, 2}).reshape(
      Shape{1, 3, 1, 1}));
  MaxPool2d mp(2, 2);
  EXPECT_THROW(mp.forward(x), std::runtime_error);
  EXPECT_THROW(ag::maxpool2d(x, 2, 2), std::runtime_error);
  EXPECT_THROW(ag::avgpool2d(x, 2, 2), std::runtime_error);
  EXPECT_THROW(ag::maxpool2d(x, 1, 0), std::runtime_error);  // stride < 1
  EXPECT_THROW(ag::conv2d(x, ag::leaf(rng.randn(Shape{2, 3, 5, 5})), 1, 1),
               std::runtime_error);
  // A window that exactly fits the plane still pools it.
  const ag::Var y = ag::maxpool2d(
      ag::leaf(Tensor::from_vector({1, 5, 2, 4}).reshape(Shape{1, 1, 2, 2})),
      2, 2);
  EXPECT_EQ(y->shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y->value[0], 5.0f);
}

TEST(Flatten, Shape) {
  Flatten f;
  Rng rng(27);
  ag::Var y = f.forward(ag::leaf(rng.randn(Shape{2, 3, 4, 4})));
  EXPECT_EQ(y->shape(), (Shape{2, 48}));
}

}  // namespace
}  // namespace pf::nn
