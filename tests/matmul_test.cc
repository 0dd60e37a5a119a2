#include "tensor/matmul.h"

#include <gtest/gtest.h>

#include "tensor/rng.h"

namespace pf {
namespace {

// O(mnk) reference used to validate the blocked kernels.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  return c;
}

TEST(Matmul, SmallKnownValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}).reshape(Shape{2, 2});
  Tensor b = Tensor::from_vector({5, 6, 7, 8}).reshape(Shape{2, 2});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(Matmul, Identity) {
  Rng rng(1);
  Tensor a = rng.randn(Shape{5, 5});
  Tensor eye(Shape{5, 5});
  for (int64_t i = 0; i < 5; ++i) eye[i * 5 + i] = 1.0f;
  EXPECT_TRUE(allclose(matmul(a, eye), a, 1e-5f, 1e-6f));
  EXPECT_TRUE(allclose(matmul(eye, a), a, 1e-5f, 1e-6f));
}

TEST(Matmul, DimMismatchThrows) {
  Tensor a = Tensor::ones(Shape{2, 3});
  Tensor b = Tensor::ones(Shape{4, 2});
  EXPECT_THROW(matmul(a, b), std::runtime_error);
}

struct MmCase {
  int64_t m, k, n;
};

class MatmulP : public ::testing::TestWithParam<MmCase> {};

TEST_P(MatmulP, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 10 + n);
  Tensor a = rng.randn(Shape{m, k});
  Tensor b = rng.randn(Shape{k, n});
  EXPECT_TRUE(allclose(matmul(a, b), ref_matmul(a, b), 1e-3f, 1e-4f));
}

TEST_P(MatmulP, TnAgreesWithExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  Tensor at = rng.randn(Shape{k, m});  // A^T stored
  Tensor b = rng.randn(Shape{k, n});
  EXPECT_TRUE(allclose(matmul_tn(at, b), matmul(at.t(), b), 1e-3f, 1e-4f));
}

TEST_P(MatmulP, NtAgreesWithExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 7 + k * 3 + n);
  Tensor a = rng.randn(Shape{m, k});
  Tensor bt = rng.randn(Shape{n, k});  // B^T stored
  EXPECT_TRUE(allclose(matmul_nt(a, bt), matmul(a, bt.t()), 1e-3f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatmulP,
    ::testing::Values(MmCase{1, 1, 1}, MmCase{2, 3, 4}, MmCase{7, 5, 3},
                      MmCase{16, 16, 16}, MmCase{33, 65, 17},
                      MmCase{128, 130, 3}, MmCase{3, 300, 5},
                      MmCase{64, 1, 64},
                      // Rank-width shapes with column and row tails: the
                      // avx2 row kernel (m <= 8 or k <= 4) and NT kernels.
                      MmCase{2, 72, 37}, MmCase{8, 48, 12},
                      MmCase{40, 33, 12}, MmCase{70, 4, 9},
                      MmCase{13, 200, 2}));

TEST(Bmm, MatchesPerBatchMatmul) {
  Rng rng(5);
  Tensor a = rng.randn(Shape{3, 4, 5});
  Tensor b = rng.randn(Shape{3, 5, 6});
  Tensor c = bmm(a, b);
  ASSERT_EQ(c.shape(), (Shape{3, 4, 6}));
  for (int64_t i = 0; i < 3; ++i) {
    Tensor ai = slice(a, 0, i, 1).reshape(Shape{4, 5});
    Tensor bi = slice(b, 0, i, 1).reshape(Shape{5, 6});
    Tensor ci = slice(c, 0, i, 1).reshape(Shape{4, 6});
    EXPECT_TRUE(allclose(ci, matmul(ai, bi), 1e-4f, 1e-5f));
  }
}

TEST(Bmm, NtMatchesTransposed) {
  Rng rng(6);
  Tensor a = rng.randn(Shape{2, 4, 5});
  Tensor b = rng.randn(Shape{2, 6, 5});
  Tensor c = bmm_nt(a, b);
  Tensor bt = b.transpose({0, 2, 1});
  EXPECT_TRUE(allclose(c, bmm(a, bt), 1e-4f, 1e-5f));
}

TEST(Bmm, TnMatchesTransposed) {
  Rng rng(7);
  Tensor a = rng.randn(Shape{2, 5, 4});
  Tensor b = rng.randn(Shape{2, 5, 6});
  Tensor c = bmm_tn(a, b);
  Tensor at = a.transpose({0, 2, 1});
  EXPECT_TRUE(allclose(c, bmm(at, b), 1e-4f, 1e-5f));
}

TEST(MatmulAccum, Accumulates) {
  Tensor a = Tensor::ones(Shape{2, 2});
  Tensor b = Tensor::ones(Shape{2, 2});
  Tensor c = Tensor::full(Shape{2, 2}, 10.0f);
  matmul_accum(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 12.0f);
}

}  // namespace
}  // namespace pf
