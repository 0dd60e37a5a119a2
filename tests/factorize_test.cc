#include "core/factorize.h"

#include <gtest/gtest.h>

#include <cmath>
#include "core/amp.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "tensor/matmul.h"

namespace pf::core {
namespace {

TEST(FactorizeMatrix, FullRankIsExact) {
  Rng rng(1);
  Tensor w = rng.randn(Shape{10, 6});
  Rng svd_rng(1);
  FactorPair f = factorize_matrix(w, 6, svd_rng);
  EXPECT_LT(reconstruction_error(w, f), 1e-3f);
}

TEST(FactorizeMatrix, SqrtSigmaSplitBalancesFactors) {
  // Algorithm 1 splits S^{1/2} into both factors, so |U| ~ |V| for a
  // symmetric-ish spectrum (instead of all mass in one factor).
  Rng rng(2);
  Tensor w = rng.randn(Shape{12, 12});
  Rng svd_rng(2);
  FactorPair f = factorize_matrix(w, 4, svd_rng);
  const float ru = f.u.norm(), rv = f.v.norm();
  EXPECT_LT(std::max(ru, rv) / std::min(ru, rv), 3.0f);
}

class FactorizeRankP : public ::testing::TestWithParam<int64_t> {};

TEST_P(FactorizeRankP, ErrorDecreasesWithRank) {
  Rng rng(3);
  Tensor w = rng.randn(Shape{16, 16});
  Rng r1(1), r2(2);
  const int64_t rank = GetParam();
  FactorPair lo = factorize_matrix(w, rank, r1);
  FactorPair hi = factorize_matrix(w, std::min<int64_t>(16, rank * 2), r2);
  EXPECT_LE(reconstruction_error(w, hi),
            reconstruction_error(w, lo) + 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Ranks, FactorizeRankP,
                         ::testing::Values(1, 2, 4, 8));

TEST(FactorizeLinear, FullRankForwardEquivalence) {
  Rng rng(4);
  nn::Linear dense(8, 8, rng);
  nn::LowRankLinear lr(8, 8, 8, rng);
  Rng svd_rng(3);
  factorize_linear(dense, lr, svd_rng);
  Tensor x = rng.randn(Shape{3, 8});
  ag::Var yd = dense.forward(ag::leaf(x));
  ag::Var yl = lr.forward(ag::leaf(x));
  EXPECT_TRUE(allclose(yl->value, yd->value, 1e-3f, 1e-3f));
}

TEST(FactorizeLinear, BiasCarriesOver) {
  Rng rng(5);
  nn::Linear dense(6, 4, rng);
  nn::LowRankLinear lr(6, 4, 2, rng);
  Rng svd_rng(4);
  factorize_linear(dense, lr, svd_rng);
  EXPECT_TRUE(allclose(lr.bias->value, dense.bias->value));
}

TEST(FactorizeConv, FullRankForwardEquivalence) {
  Rng rng(6);
  // Unrolled matrix is (c_in*9, c_out) = (18, 4): full rank is 4.
  nn::Conv2d dense(2, 4, 3, 1, 1, rng);
  nn::LowRankConv2d lr(2, 4, 3, 1, 1, 4, rng);
  Rng svd_rng(5);
  factorize_conv(dense, lr, svd_rng);
  Tensor x = rng.randn(Shape{2, 2, 5, 5});
  ag::Var yd = dense.forward(ag::leaf(x));
  ag::Var yl = lr.forward(ag::leaf(x));
  EXPECT_TRUE(allclose(yl->value, yd->value, 1e-3f, 1e-3f));
}

TEST(FactorizeConv, UnrollReconstructsWeight) {
  // At full rank, composing the factorized convs reproduces the dense
  // kernel: check via the composite weight sum_r v[o,r] * u[r,i,ky,kx].
  Rng rng(7);
  nn::Conv2d dense(3, 5, 3, 1, 1, rng);
  nn::LowRankConv2d lr(3, 5, 3, 1, 1, 5, rng);
  Rng svd_rng(6);
  factorize_conv(dense, lr, svd_rng);
  const int64_t c_in = 3, c_out = 5, k = 3, r = 5;
  Tensor composite(Shape{c_out, c_in, k, k});
  for (int64_t o = 0; o < c_out; ++o)
    for (int64_t i = 0; i < c_in; ++i)
      for (int64_t ky = 0; ky < k; ++ky)
        for (int64_t kx = 0; kx < k; ++kx) {
          double acc = 0;
          for (int64_t rr = 0; rr < r; ++rr)
            acc += static_cast<double>(lr.v->value[o * r + rr]) *
                   lr.u->value[((rr * c_in + i) * k + ky) * k + kx];
          composite[((o * c_in + i) * k + ky) * k + kx] =
              static_cast<float>(acc);
        }
  EXPECT_TRUE(allclose(composite, dense.weight->value, 1e-3f, 1e-3f));
}

TEST(FactorizeConv, StridedLayerEquivalence) {
  Rng rng(8);
  nn::Conv2d dense(2, 4, 3, 2, 1, rng);
  nn::LowRankConv2d lr(2, 4, 3, 2, 1, 4, rng);
  Rng svd_rng(7);
  factorize_conv(dense, lr, svd_rng);
  Tensor x = rng.randn(Shape{1, 2, 7, 7});
  EXPECT_TRUE(allclose(lr.forward(ag::leaf(x))->value,
                       dense.forward(ag::leaf(x))->value, 1e-3f, 1e-3f));
}

TEST(FactorizeConv, OverRankThrows) {
  // Rank 16 exceeds min(c_in k^2, c_out) = min(36, 8): the S^{1/2} split
  // used to loop over 16 columns of the SVD's clamped 8-column factors.
  Rng rng(9);
  nn::Conv2d dense(4, 8, 3, 1, 1, rng);
  nn::LowRankConv2d lr(4, 8, 3, 1, 1, /*rank=*/16, rng);
  Rng svd_rng(8);
  EXPECT_THROW(factorize_conv(dense, lr, svd_rng), std::runtime_error);
  EXPECT_THROW(factorize_matrix(rng.randn(Shape{6, 4}), 0, svd_rng),
               std::runtime_error);
}

TEST(FactorizeRank, RatioRuleClampsToFullRank) {
  EXPECT_EQ(ratio_rank(36, 8, 0.25), 2);
  EXPECT_EQ(ratio_rank(8, 36, 0.25), 2);
  EXPECT_EQ(ratio_rank(36, 8, 1.0), 8);
  EXPECT_EQ(ratio_rank(36, 8, 2.0), 8);
  EXPECT_EQ(ratio_rank(36, 8, 0.01), 1);
  EXPECT_EQ(ratio_rank(36, 8, 0.0), 1);
  EXPECT_EQ(ratio_rank(36, 8, -1.0), 1);
  EXPECT_EQ(ratio_rank(36, 8, std::nan("")), 1);
  EXPECT_EQ(ratio_rank(36, 8, 1e300), 8);

  // A hybrid built at an over-complete ratio clamps every layer, so its
  // warm start stays in bounds.
  Rng rng(10);
  models::ResNetCifarConfig vc = models::ResNetCifarConfig::vanilla();
  models::ResNetCifarConfig pc = models::ResNetCifarConfig::pufferfish();
  vc.width_mult = pc.width_mult = 0.0625;
  pc.rank_ratio = 2.0;
  models::ResNet18Cifar vanilla(vc, rng);
  models::ResNet18Cifar hybrid(pc, rng);
  Rng svd_rng(9);
  EXPECT_NO_THROW(warm_start(vanilla, hybrid, svd_rng));
}

TEST(WarmStart, Vgg19FullModelTransfer) {
  // Factorize a (scaled) vanilla VGG into its hybrid: eval-mode forward
  // outputs should be close (truncation error only in the factorized
  // layers).
  Rng rng(9);
  models::VggConfig vcfg;
  vcfg.width_mult = 0.25;
  models::VggConfig hcfg = vcfg;
  hcfg.k_first_lowrank = 10;
  models::Vgg19 vanilla(vcfg, rng);
  models::Vgg19 hybrid(hcfg, rng);

  // Give BN buffers some nontrivial statistics first.
  vanilla.train(true);
  Rng data_rng(10);
  for (int i = 0; i < 3; ++i)
    vanilla.forward(ag::leaf(data_rng.randn(Shape{4, 3, 32, 32})));

  Rng svd_rng(8);
  warm_start(vanilla, hybrid, svd_rng);
  EXPECT_GT(last_warm_start_svd_seconds(), 0.0);

  // BN buffers copied exactly.
  auto vb = vanilla.children()[0]->children()[1]->local_buffers();
  auto hb = hybrid.children()[0]->children()[1]->local_buffers();
  EXPECT_TRUE(allclose(vb[0].value, hb[0].value));
  EXPECT_TRUE(allclose(vb[1].value, hb[1].value));

  vanilla.train(false);
  hybrid.train(false);
  Tensor x = data_rng.randn(Shape{2, 3, 32, 32});
  ag::Var yv = vanilla.forward(ag::leaf(x));
  ag::Var yh = hybrid.forward(ag::leaf(x));
  // Not exact (rank truncation), but highly correlated: same top-1 on
  // most inputs; check bounded deviation relative to logit scale.
  EXPECT_LT(max_abs_diff(yv->value, yh->value),
            2.0f * yv->value.abs_max() + 1.0f);
}

TEST(WarmStart, IdenticalModelsCopyExactly) {
  Rng rng(11);
  models::VggConfig cfg;
  cfg.width_mult = 0.125;
  models::Vgg19 a(cfg, rng);
  models::Vgg19 b(cfg, rng);
  Rng svd_rng(9);
  warm_start(a, b, svd_rng);
  EXPECT_TRUE(allclose(a.flat_params(), b.flat_params()));
}

TEST(WarmStart, MismatchedTreesThrow) {
  Rng rng(12);
  nn::Linear a(4, 4, rng);
  nn::Conv2d b(1, 1, 3, 1, 1, rng);
  Rng svd_rng(10);
  EXPECT_THROW(warm_start(a, b, svd_rng), std::runtime_error);
}

// ---- AMP emulation. ----

TEST(Amp, Fp16RoundTripExactValues) {
  // Values exactly representable in fp16 pass through.
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 1024.0f, 0.25f})
    EXPECT_FLOAT_EQ(to_fp16(v), v);
}

TEST(Amp, Fp16Rounds) {
  // 1 + 2^-11 is halfway; nearest-even rounds to 1.0.
  const float v = 1.0f + 1.0f / 2048.0f;
  EXPECT_FLOAT_EQ(to_fp16(v), 1.0f);
  // 1 + 2^-10 is representable.
  EXPECT_FLOAT_EQ(to_fp16(1.0f + 1.0f / 1024.0f), 1.0f + 1.0f / 1024.0f);
}

TEST(Amp, Fp16OverflowAndUnderflow) {
  EXPECT_TRUE(std::isinf(to_fp16(1e6f)));
  EXPECT_FLOAT_EQ(to_fp16(1e-12f), 0.0f);
  // Subnormal range survives approximately.
  const float sub = 3e-6f;
  EXPECT_NEAR(to_fp16(sub), sub, 1e-6f);
}

TEST(Amp, RelativeErrorBounded) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.normal(0, 10));
    const float q = to_fp16(v);
    EXPECT_NEAR(q, v, std::fabs(v) * 1e-3f + 1e-6f);
  }
}

TEST(Amp, GuardQuantizesAndRestores) {
  Rng rng(14);
  nn::Linear l(8, 8, rng);
  const Tensor masters = l.weight->value;
  {
    AmpForwardGuard guard(l);
    // Inside the guard weights sit on the fp16 grid.
    for (int64_t i = 0; i < l.weight->value.numel(); ++i)
      EXPECT_FLOAT_EQ(l.weight->value[i], to_fp16(l.weight->value[i]));
  }
  EXPECT_TRUE(allclose(l.weight->value, masters, 0.0f, 0.0f));
}

}  // namespace
}  // namespace pf::core

// (appended) energy-based rank allocation utilities.
namespace pf::core {
namespace {

TEST(EnergyRank, FullEnergyNeedsFullRankOnWhiteMatrix) {
  Rng rng(61);
  Tensor w = rng.randn(Shape{12, 12});
  EXPECT_EQ(choose_rank_for_energy(w, 1.0), 12);
  EXPECT_EQ(choose_rank_for_energy(w, 0.0), 1);
}

TEST(EnergyRank, LowRankMatrixNeedsItsRank) {
  Rng rng(62);
  Tensor u = rng.randn(Shape{16, 3});
  Tensor v = rng.randn(Shape{10, 3});
  Tensor w = matmul_nt(u, v);  // exactly rank 3
  EXPECT_LE(choose_rank_for_energy(w, 0.999), 3);
  EXPECT_NEAR(retained_energy(w, 3), 1.0, 1e-4);
}

TEST(EnergyRank, RetainedEnergyMonotone) {
  Rng rng(63);
  Tensor w = rng.randn(Shape{10, 8});
  double prev = 0;
  for (int64_t r = 1; r <= 8; ++r) {
    const double e = retained_energy(w, r);
    EXPECT_GE(e, prev - 1e-9);
    prev = e;
  }
  EXPECT_NEAR(prev, 1.0, 1e-5);
}

TEST(EnergyRank, MinRankRespected) {
  Rng rng(64);
  Tensor u = rng.randn(Shape{8, 1});
  Tensor v = rng.randn(Shape{8, 1});
  Tensor w = matmul_nt(u, v);  // rank 1
  EXPECT_EQ(choose_rank_for_energy(w, 0.5, /*min_rank=*/4), 4);
}

TEST(EnergyRank, ConsistentWithEckartYoung) {
  // retained_energy(r) == 1 - truncation_error^2 / |W|^2.
  Rng rng(65);
  Tensor w = rng.randn(Shape{14, 9});
  Rng svd_rng(1);
  for (int64_t r : {2, 5, 9}) {
    FactorPair f = factorize_matrix(w, r, svd_rng);
    const double rel_err = reconstruction_error(w, f);
    EXPECT_NEAR(retained_energy(w, r), 1.0 - rel_err * rel_err, 5e-3);
  }
}

}  // namespace
}  // namespace pf::core
