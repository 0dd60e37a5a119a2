#include "tensor/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace pf {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanVariance) {
  Rng rng(9);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sq += u * u;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaled) {
  Rng rng(21);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, BernoulliRate) {
  Rng rng(31);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(11);
  auto p = rng.permutation(50);
  std::set<int64_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, PermutationShuffles) {
  Rng rng(13);
  auto p = rng.permutation(100);
  int fixed = 0;
  for (int64_t i = 0; i < 100; ++i)
    if (p[static_cast<size_t>(i)] == i) ++fixed;
  EXPECT_LT(fixed, 15);  // expected ~1 fixed point
}

TEST(Rng, TensorFactories) {
  Rng rng(19);
  Tensor u = rng.rand(Shape{100}, -1.0f, 1.0f);
  EXPECT_GE(u.min(), -1.0f);
  EXPECT_LT(u.max(), 1.0f);
  Tensor n = rng.randn(Shape{64, 64}, 0.0f, 2.0f);
  EXPECT_NEAR(n.mean(), 0.0f, 0.15f);
}

TEST(Rng, WorkerStreamsDoNotCollide) {
  // Rng::stream(seed, worker_id) seeds the shm-cluster workers: first
  // outputs must be pairwise distinct across a wide range of worker ids,
  // and reproducible for the same (seed, id).
  std::set<uint64_t> firsts;
  for (uint64_t w = 0; w < 1024; ++w)
    firsts.insert(Rng::stream(7, w).next_u64());
  EXPECT_EQ(firsts.size(), 1024u);
  Rng a = Rng::stream(7, 3), b = Rng::stream(7, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Adjacent seeds with the same worker id must also diverge.
  EXPECT_NE(Rng::stream(7, 3).next_u64(), Rng::stream(8, 3).next_u64());
}

TEST(Rng, WorkerStreamsAreUncorrelated) {
  // Adjacent worker ids (the exact pattern the shm cluster produces) should
  // have near-zero sample correlation between their uniform streams.
  const int n = 4000;
  for (uint64_t w = 0; w < 4; ++w) {
    Rng x = Rng::stream(123, w), y = Rng::stream(123, w + 1);
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (int i = 0; i < n; ++i) {
      const double u = x.uniform(), v = y.uniform();
      sx += u;
      sy += v;
      sxx += u * u;
      syy += v * v;
      sxy += u * v;
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    const double corr = cov / std::sqrt(vx * vy);
    EXPECT_LT(std::abs(corr), 0.06) << "workers " << w << "," << w + 1;
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng base(77);
  Rng a = base.split(1), b = base.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
  // Splitting with the same id reproduces the stream.
  Rng a2 = base.split(1);
  Rng a3 = base.split(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

TEST(Rng, SplitMix64MatchesReferenceVectors) {
  // The published seed-0 stream of the reference splitmix64.c.
  uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454full);
  EXPECT_EQ(state, 3 * 0x9E3779B97F4A7C15ull);
}

}  // namespace
}  // namespace pf
