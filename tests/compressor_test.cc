#include "compress/compressor.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pf::compress {
namespace {

std::vector<Tensor> make_grads(Rng& rng, int workers, int64_t n) {
  std::vector<Tensor> out;
  for (int w = 0; w < workers; ++w) out.push_back(rng.randn(Shape{n}));
  return out;
}

TEST(Allreduce, ComputesExactMean) {
  Rng rng(1);
  auto grads = make_grads(rng, 4, 32);
  Tensor expected(Shape{32});
  for (const Tensor& g : grads) expected.add_(g, 0.25f);
  AllreduceReducer r;
  ReduceStats stats;
  Tensor agg = r.reduce(grads, {Shape{32}}, &stats);
  EXPECT_TRUE(allclose(agg, expected, 1e-5f, 1e-6f));
  EXPECT_EQ(stats.payload_bytes_per_worker, 32 * 4);
  EXPECT_EQ(stats.collective, dist::Coll::kAllreduce);
  EXPECT_EQ(stats.n_messages, 1);
}

TEST(PowerSgd, ExactOnRankOneMatrices) {
  // A rank-1 gradient must be transmitted exactly by rank-1 PowerSGD
  // (after the first iteration aligns Q).
  Rng rng(2);
  Tensor u = rng.randn(Shape{8});
  Tensor v = rng.randn(Shape{6});
  Tensor g(Shape{8 * 6});
  for (int64_t i = 0; i < 8; ++i)
    for (int64_t j = 0; j < 6; ++j) g[i * 6 + j] = u[i] * v[j];

  PowerSgdReducer r(1, 7);
  ReduceStats stats;
  Tensor agg;
  for (int iter = 0; iter < 3; ++iter)
    agg = r.reduce({g, g}, {Shape{8, 6}}, &stats);
  EXPECT_TRUE(allclose(agg, g, 1e-2f, 1e-3f));
}

TEST(PowerSgd, OneDimRidesUncompressed) {
  Rng rng(3);
  auto grads = make_grads(rng, 2, 10);
  PowerSgdReducer r(2, 8);
  ReduceStats stats;
  Tensor agg = r.reduce(grads, {Shape{10}}, &stats);
  Tensor expected = (grads[0] + grads[1]) * 0.5f;
  EXPECT_TRUE(allclose(agg, expected, 1e-5f, 1e-6f));
  EXPECT_EQ(stats.payload_bytes_per_worker, 40);
}

TEST(PowerSgd, ErrorFeedbackRecoversConstantGradient) {
  // Feeding the SAME full-rank gradient repeatedly: with error feedback the
  // cumulative transmitted sum approaches the true gradient direction.
  Rng rng(4);
  Tensor g = rng.randn(Shape{6 * 6});
  PowerSgdReducer r(1, 9);
  Tensor cum(Shape{36});
  ReduceStats stats;
  const int iters = 60;
  for (int i = 0; i < iters; ++i)
    cum.add_(r.reduce({g}, {Shape{6, 6}}, &stats));
  cum.mul_(1.0f / iters);
  // Mean transmitted gradient approaches g (EF compensates truncation).
  EXPECT_LT(max_abs_diff(cum, g), 0.35f * g.abs_max());
}

TEST(PowerSgd, PayloadMuchSmallerThanDense) {
  Rng rng(5);
  const int64_t rows = 64, cols = 64;
  auto grads = make_grads(rng, 2, rows * cols);
  PowerSgdReducer r(2, 10);
  ReduceStats stats;
  r.reduce(grads, {Shape{rows, cols}}, &stats);
  EXPECT_EQ(stats.payload_bytes_per_worker, (64 * 2 + 64 * 2) * 4);
  EXPECT_LT(stats.payload_bytes_per_worker, rows * cols * 4 / 8);
  EXPECT_EQ(stats.collective, dist::Coll::kAllreduce);
  EXPECT_EQ(stats.n_messages, 2);
}

TEST(PowerSgd, RankSweepImprovesApproximation) {
  Rng rng(6);
  Tensor g = rng.randn(Shape{16 * 16});
  auto err_at_rank = [&](int64_t rank) {
    PowerSgdReducer r(rank, 11);
    ReduceStats stats;
    Tensor agg;
    // A few warm iterations on the SAME gradient align Q with the top
    // singular subspace; measure the steady-state single-shot error.
    for (int i = 0; i < 4; ++i)
      agg = r.reduce({g}, {Shape{16, 16}}, &stats);
    return max_abs_diff(agg, g);
  };
  // Full rank (16) reconstructs an unstructured 16x16 gradient far better
  // than rank 1; intermediate rank sits in between on Frobenius error.
  EXPECT_LT(err_at_rank(16), 0.5f * err_at_rank(1));
}

TEST(Signum, UnanimousSignsPassThrough) {
  Tensor g1 = Tensor::from_vector({1.0f, -2.0f, 3.0f, -4.0f});
  SignumReducer r(0.0f);  // beta 0: momentum == grad
  ReduceStats stats;
  Tensor agg = r.reduce({g1, g1, g1}, {Shape{4}}, &stats);
  EXPECT_FLOAT_EQ(agg[0], 1.0f);
  EXPECT_FLOAT_EQ(agg[1], -1.0f);
  EXPECT_FLOAT_EQ(agg[2], 1.0f);
  EXPECT_FLOAT_EQ(agg[3], -1.0f);
}

TEST(Signum, MajorityVoteWins) {
  Tensor pos = Tensor::full(Shape{4}, 1.0f);
  Tensor neg = Tensor::full(Shape{4}, -1.0f);
  SignumReducer r(0.0f);
  ReduceStats stats;
  Tensor agg = r.reduce({pos, pos, neg}, {Shape{4}}, &stats);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(agg[i], 1.0f);
}

TEST(Signum, PayloadIsOneBitPerCoordinate) {
  Rng rng(7);
  auto grads = make_grads(rng, 2, 1000);
  SignumReducer r;
  ReduceStats stats;
  r.reduce(grads, {Shape{1000}}, &stats);
  EXPECT_EQ(stats.payload_bytes_per_worker, 125);
  EXPECT_EQ(stats.collective, dist::Coll::kAllgather);
}

TEST(Signum, MomentumSmoothsSignFlips) {
  // With beta=0.9, one contrarian gradient cannot flip the sign.
  SignumReducer r(0.9f);
  ReduceStats stats;
  Tensor pos = Tensor::full(Shape{2}, 1.0f);
  for (int i = 0; i < 10; ++i) r.reduce({pos}, {Shape{2}}, &stats);
  Tensor neg = Tensor::full(Shape{2}, -1.0f);
  Tensor agg = r.reduce({neg}, {Shape{2}}, &stats);
  EXPECT_FLOAT_EQ(agg[0], 1.0f);  // momentum still positive
}

TEST(TopK, KeepsLargestMagnitudes) {
  Tensor g = Tensor::from_vector({0.1f, -5.0f, 0.2f, 4.0f, 0.05f});
  TopKReducer r(0.4);  // k = 2
  ReduceStats stats;
  Tensor agg = r.reduce({g}, {Shape{5}}, &stats);
  EXPECT_FLOAT_EQ(agg[1], -5.0f);
  EXPECT_FLOAT_EQ(agg[3], 4.0f);
  EXPECT_FLOAT_EQ(agg[0], 0.0f);
  EXPECT_EQ(stats.payload_bytes_per_worker, 2 * 8);
  EXPECT_EQ(stats.collective, dist::Coll::kAllgather);
}

TEST(TopK, ErrorFeedbackEventuallySendsEverything) {
  // The small coordinate accumulates in the error memory until it wins.
  Tensor g = Tensor::from_vector({0.1f, 1.0f});
  TopKReducer r(0.5);  // k = 1
  ReduceStats stats;
  Tensor total(Shape{2});
  for (int i = 0; i < 30; ++i) total.add_(r.reduce({g}, {Shape{2}}, &stats));
  // Cumulative transmitted mass approximates 30 steps of both coords.
  EXPECT_NEAR(total[0] / 30.0f, 0.1f, 0.05f);
  EXPECT_NEAR(total[1] / 30.0f, 1.0f, 0.1f);
}

TEST(TopK, AveragesAcrossWorkers) {
  Tensor a = Tensor::from_vector({2.0f, 0.0f});
  Tensor b = Tensor::from_vector({0.0f, 4.0f});
  TopKReducer r(0.5);
  ReduceStats stats;
  Tensor agg = r.reduce({a, b}, {Shape{2}}, &stats);
  EXPECT_FLOAT_EQ(agg[0], 1.0f);  // (2 + 0)/2
  EXPECT_FLOAT_EQ(agg[1], 2.0f);  // (0 + 4)/2
}

TEST(BinaryQuant, PreservesRangeEndpoints) {
  // A two-valued gradient {lo, hi} is quantized exactly.
  Tensor g = Tensor::from_vector({-1.0f, 3.0f, -1.0f, 3.0f});
  BinaryQuantReducer r(3);
  ReduceStats stats;
  Tensor agg = r.reduce({g}, {Shape{4}}, &stats);
  EXPECT_TRUE(allclose(agg, g, 1e-5f, 1e-6f));
}

TEST(BinaryQuant, UnbiasedInExpectation) {
  Rng rng(8);
  Tensor g = rng.rand(Shape{64}, -1.0f, 1.0f);
  BinaryQuantReducer r(4);
  ReduceStats stats;
  Tensor mean(Shape{64});
  const int trials = 300;
  for (int i = 0; i < trials; ++i) mean.add_(r.reduce({g}, {Shape{64}}, &stats));
  mean.mul_(1.0f / trials);
  // Stochastic rounding is unbiased: E[decode] == g.
  EXPECT_LT(max_abs_diff(mean, g), 0.25f);
}

TEST(BinaryQuant, PayloadAndCollective) {
  Rng rng(9);
  auto grads = make_grads(rng, 4, 800);
  BinaryQuantReducer r(5);
  ReduceStats stats;
  r.reduce(grads, {Shape{800}}, &stats);
  EXPECT_EQ(stats.payload_bytes_per_worker, 100 + 8);
  EXPECT_EQ(stats.collective, dist::Coll::kAllgather);
  EXPECT_GT(stats.decode_seconds, 0.0);
}

TEST(Reducers, Names) {
  EXPECT_EQ(AllreduceReducer().name(), "allreduce");
  EXPECT_EQ(PowerSgdReducer(2, 1).name(), "powersgd(r=2)");
  EXPECT_EQ(SignumReducer().name(), "signum");
  EXPECT_EQ(TopKReducer(0.1).name(), "topk");
  EXPECT_EQ(BinaryQuantReducer(1).name(), "binary-quant");
}

}  // namespace
}  // namespace pf::compress

// (appended) ATOMO spectral sampling tests.
namespace pf::compress {
namespace {

TEST(Atomo, ExactOnRankOneWithSufficientBudget) {
  Rng rng(51);
  Tensor u = rng.randn(Shape{6});
  Tensor v = rng.randn(Shape{5});
  Tensor g(Shape{30});
  for (int64_t i = 0; i < 6; ++i)
    for (int64_t j = 0; j < 5; ++j) g[i * 5 + j] = u[i] * v[j];
  AtomoReducer r(5, 3);
  ReduceStats stats;
  Tensor agg = r.reduce({g}, {Shape{6, 5}}, &stats);
  // Rank-1 gradient: the single nonzero triplet is kept w.p. 1 (p >= 1).
  EXPECT_TRUE(allclose(agg, g, 1e-2f, 1e-3f));
  EXPECT_EQ(stats.collective, dist::Coll::kAllgather);
}

TEST(Atomo, UnbiasedInExpectation) {
  Rng rng(52);
  Tensor g = rng.randn(Shape{8 * 6});
  AtomoReducer r(2, 7);
  ReduceStats stats;
  Tensor mean(Shape{48});
  const int trials = 400;
  for (int i = 0; i < trials; ++i) mean.add_(r.reduce({g}, {Shape{8, 6}}, &stats));
  mean.mul_(1.0f / trials);
  // Importance sampling with 1/p scaling is unbiased.
  EXPECT_LT(max_abs_diff(mean, g), 0.35f * g.abs_max());
}

TEST(Atomo, EncodeCostDominatedBySvd) {
  // The whole point of the comparison: ATOMO's per-step encode includes an
  // SVD, so it must be far more expensive than top-k's encode on the same
  // gradient.
  Rng rng(53);
  Tensor g = rng.randn(Shape{128 * 128});
  AtomoReducer atomo(4, 9);
  TopKReducer topk(0.01);
  ReduceStats sa, st;
  atomo.reduce({g}, {Shape{128, 128}}, &sa);
  topk.reduce({g}, {Shape{128, 128}}, &st);
  EXPECT_GT(sa.encode_seconds, 3.0 * st.encode_seconds);
}

TEST(Atomo, OneDimRidesExactly) {
  Rng rng(54);
  Tensor a = rng.randn(Shape{16});
  Tensor b = rng.randn(Shape{16});
  AtomoReducer r(2, 11);
  ReduceStats stats;
  Tensor agg = r.reduce({a, b}, {Shape{16}}, &stats);
  Tensor expected = (a + b) * 0.5f;
  EXPECT_TRUE(allclose(agg, expected, 1e-5f, 1e-6f));
}

}  // namespace
}  // namespace pf::compress
