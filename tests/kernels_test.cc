// pf::kernels backend tests: registry dispatch, the scalar backend's
// bitwise identity with the seed loop order, the AVX2 backend's per-op
// tolerance tier, cross-thread determinism, and the fused low-rank forward.
//
// The reference kernels below reproduce the pre-refactor accumulation
// orders (ascending-k with the zero-skip for NN/TN, the four-way split
// dot for NT) as plain serial loops. Per output element those orders are
// what the seed's blocked/parallel code produced, so "bitwise equal to
// reference" == "bitwise equal to seed".
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "gradcheck.h"
#include "kernels/qmat.h"
#include "nn/layers.h"
#include "quant/quantize.h"
#include "runtime/thread_pool.h"
#include "tensor/im2col.h"
#include "tensor/matmul.h"
#include "tensor/rng.h"
#include "trace/trace.h"

namespace pf {
namespace {

// Restores the active backend and the thread pool on scope exit, so each
// test can switch freely without leaking state into the rest of the suite.
struct BackendGuard {
  std::string prev;
  BackendGuard() : prev(kernels::backend_name()) {}
  ~BackendGuard() {
    kernels::set_backend(prev.c_str());
    runtime::set_threads(0);  // back to the PF_THREADS env default
  }
};

Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor c(Shape{m, n});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (int64_t i = 0; i < m; ++i)
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = ad[i * k + kk];
      if (aval == 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) cd[i * n + j] += aval * bd[kk * n + j];
    }
  return c;
}

Tensor ref_matmul_tn(const Tensor& a, const Tensor& b) {
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  Tensor c(Shape{m, n});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (int64_t i = 0; i < m; ++i)
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = ad[kk * m + i];
      if (aval == 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) cd[i * n + j] += aval * bd[kk * n + j];
    }
  return c;
}

Tensor ref_matmul_nt(const Tensor& a, const Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  Tensor c(Shape{m, n});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      const float* arow = ad + i * k;
      const float* brow = bd + j * k;
      float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
      int64_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        acc0 += arow[kk] * brow[kk];
        acc1 += arow[kk + 1] * brow[kk + 1];
        acc2 += arow[kk + 2] * brow[kk + 2];
        acc3 += arow[kk + 3] * brow[kk + 3];
      }
      float acc = (acc0 + acc1) + (acc2 + acc3);
      for (; kk < k; ++kk) acc += arow[kk] * brow[kk];
      cd[i * n + j] = acc;
    }
  return c;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Per-op ulp-scaled tolerance for cross-backend comparisons: the AVX2
// kernel reassociates the k-sum, so the error bound grows with k and the
// operand magnitudes.
float cross_backend_tol(const Tensor& a, const Tensor& b, int64_t k) {
  float amax = 0, bmax = 0;
  for (int64_t i = 0; i < a.numel(); ++i)
    amax = std::max(amax, std::fabs(a.data()[i]));
  for (int64_t i = 0; i < b.numel(); ++i)
    bmax = std::max(bmax, std::fabs(b.data()[i]));
  return 16.0f * FLT_EPSILON * static_cast<float>(k) * amax * bmax + 1e-7f;
}

void expect_close(const Tensor& got, const Tensor& want, float tol,
                  const char* what) {
  ASSERT_EQ(got.numel(), want.numel());
  float worst = 0;
  for (int64_t i = 0; i < got.numel(); ++i)
    worst = std::max(worst, std::fabs(got.data()[i] - want.data()[i]));
  EXPECT_LE(worst, tol) << what << ": max |diff| " << worst;
}

// Fuzz shapes: odd extents, tails below the 6x16 microtile, k = 1, exact
// tile multiples, and sizes straddling the packed-path cutoff and the MC/KC
// cache blocks.
struct GemmShape {
  int64_t m, k, n;
};
const std::vector<GemmShape>& fuzz_shapes() {
  static const std::vector<GemmShape> shapes = {
      {1, 1, 1},    {1, 7, 1},     {2, 1, 3},     {3, 5, 2},
      {5, 3, 15},   {6, 8, 16},    {7, 17, 9},    {8, 13, 31},
      {13, 1, 17},  {16, 16, 16},  {17, 31, 33},  {31, 47, 5},
      {33, 64, 63}, {47, 95, 17},  {64, 97, 96},  {95, 33, 128},
      {96, 384, 16}, {97, 385, 17}, {128, 128, 128}, {130, 77, 201},
  };
  return shapes;
}

TEST(KernelsBackend, RegistryAndDispatch) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  EXPECT_STREQ(kernels::backend_name(), "scalar");
  EXPECT_FALSE(kernels::set_backend("no-such-backend"));
  EXPECT_STREQ(kernels::backend_name(), "scalar");  // unchanged on failure
  EXPECT_EQ(kernels::set_backend("avx2"), kernels::avx2_supported());
  ASSERT_TRUE(kernels::set_backend("auto"));
  if (kernels::avx2_supported()) {
    EXPECT_STREQ(kernels::backend_name(), "avx2");
    EXPECT_TRUE(kernels::avx2_compiled());
  } else {
    EXPECT_STREQ(kernels::backend_name(), "scalar");
  }
}

TEST(KernelsScalar, BitwiseMatchesSeedReferenceAcrossThreads) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Rng rng(123);
  for (const GemmShape& s : fuzz_shapes()) {
    const Tensor a = rng.randn(Shape{s.m, s.k});
    const Tensor b = rng.randn(Shape{s.k, s.n});
    const Tensor at = rng.randn(Shape{s.k, s.m});
    const Tensor bt = rng.randn(Shape{s.n, s.k});
    const Tensor c_nn = ref_matmul(a, b);
    const Tensor c_tn = ref_matmul_tn(at, b);
    const Tensor c_nt = ref_matmul_nt(a, bt);
    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      EXPECT_TRUE(bitwise_equal(matmul(a, b), c_nn))
          << "nn " << s.m << "x" << s.k << "x" << s.n << " t" << threads;
      EXPECT_TRUE(bitwise_equal(matmul_tn(at, b), c_tn))
          << "tn " << s.m << "x" << s.k << "x" << s.n << " t" << threads;
      EXPECT_TRUE(bitwise_equal(matmul_nt(a, bt), c_nt))
          << "nt " << s.m << "x" << s.k << "x" << s.n << " t" << threads;
    }
  }
}

TEST(KernelsAvx2, MatchesReferenceWithinUlpTolerance) {
  if (!kernels::avx2_supported())
    GTEST_SKIP() << "host CPU lacks AVX2/FMA; avx2 backend unavailable";
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("avx2"));
  Rng rng(321);
  for (const GemmShape& s : fuzz_shapes()) {
    const Tensor a = rng.randn(Shape{s.m, s.k});
    const Tensor b = rng.randn(Shape{s.k, s.n});
    const Tensor at = rng.randn(Shape{s.k, s.m});
    const Tensor bt = rng.randn(Shape{s.n, s.k});
    const Tensor c_nn = ref_matmul(a, b);
    const Tensor c_tn = ref_matmul_tn(at, b);
    const Tensor c_nt = ref_matmul_nt(a, bt);
    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      expect_close(matmul(a, b), c_nn, cross_backend_tol(a, b, s.k), "nn");
      expect_close(matmul_tn(at, b), c_tn, cross_backend_tol(at, b, s.k),
                   "tn");
      expect_close(matmul_nt(a, bt), c_nt, cross_backend_tol(a, bt, s.k),
                   "nt");
    }
  }
}

TEST(KernelsAvx2, BitwiseIdenticalAcrossThreads) {
  if (!kernels::avx2_supported())
    GTEST_SKIP() << "host CPU lacks AVX2/FMA; avx2 backend unavailable";
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("avx2"));
  Rng rng(77);
  // Shapes chosen to span multiple MC row chunks and KC k-blocks, so the
  // parallel partition is actually exercised.
  for (const GemmShape& s :
       {GemmShape{200, 500, 40}, GemmShape{97, 385, 130}}) {
    const Tensor a = rng.randn(Shape{s.m, s.k});
    const Tensor b = rng.randn(Shape{s.k, s.n});
    const Tensor bt = rng.randn(Shape{s.n, s.k});
    runtime::set_threads(1);
    const Tensor nn1 = matmul(a, b), nt1 = matmul_nt(a, bt);
    runtime::set_threads(4);
    EXPECT_TRUE(bitwise_equal(matmul(a, b), nn1));
    EXPECT_TRUE(bitwise_equal(matmul_nt(a, bt), nt1));
  }
}

TEST(KernelsLowrank, FusedMatchesUnfusedBitwiseOnScalar) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Rng rng(55);
  // (m, in, r, out): rank-1, tails, and row counts crossing the 64-row
  // blocking of the fused driver.
  const int64_t cases[][4] = {
      {1, 1, 1, 1}, {3, 7, 1, 5}, {9, 16, 4, 11}, {65, 33, 8, 17},
      {130, 64, 16, 48}, {200, 96, 24, 96},
  };
  for (const auto& c : cases) {
    const int64_t m = c[0], in = c[1], r = c[2], out = c[3];
    const Tensor x = rng.randn(Shape{m, in});
    const Tensor v = rng.randn(Shape{in, r});
    const Tensor u = rng.randn(Shape{out, r});
    const Tensor t_ref = ref_matmul(x, v);
    const Tensor y_ref = ref_matmul_nt(t_ref, u);
    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      Tensor t_out;
      const Tensor y = kernels::lowrank_matmul(x, v, u, &t_out);
      EXPECT_TRUE(bitwise_equal(y, y_ref)) << m << "x" << in << " r" << r;
      EXPECT_TRUE(bitwise_equal(t_out, t_ref)) << "intermediate";
      // Without t_out (eval path, pooled scratch): same output bits.
      EXPECT_TRUE(bitwise_equal(kernels::lowrank_matmul(x, v, u), y_ref));
    }
  }
}

TEST(KernelsLowrank, FusedWithinToleranceOnAvx2) {
  if (!kernels::avx2_supported())
    GTEST_SKIP() << "host CPU lacks AVX2/FMA; avx2 backend unavailable";
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("avx2"));
  Rng rng(56);
  const int64_t m = 130, in = 96, r = 16, out = 80;
  const Tensor x = rng.randn(Shape{m, in});
  const Tensor v = rng.randn(Shape{in, r});
  const Tensor u = rng.randn(Shape{out, r});
  const Tensor t_ref = ref_matmul(x, v);
  const Tensor y_ref = ref_matmul_nt(t_ref, u);
  // Two reassociated stages: combine both stages' tolerance bounds.
  const float tol = cross_backend_tol(x, v, in) * 4.0f +
                    cross_backend_tol(t_ref, u, r);
  for (int threads : {1, 4}) {
    runtime::set_threads(threads);
    expect_close(kernels::lowrank_matmul(x, v, u), y_ref, tol, "lowrank");
  }
}

TEST(KernelsLowrank, LinearOpBitwiseMatchesTwoOpTape) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Rng rng(57);
  const int64_t m = 12, in = 10, r = 3, out = 7;
  const Tensor x = rng.randn(Shape{m, in});
  const Tensor v = rng.randn(Shape{in, r});
  const Tensor u = rng.randn(Shape{out, r});
  const Tensor dy = rng.randn(Shape{m, out});

  auto run = [&](bool fused) {
    ag::Var xl = ag::leaf(x, true);
    ag::Var vl = ag::leaf(v, true);
    ag::Var ul = ag::leaf(u, true);
    ag::Var y = fused ? ag::lowrank_linear(xl, vl, ul)
                      : ag::matmul_nt(ag::matmul(xl, vl), ul);
    ag::backward(y, dy);
    return std::vector<Tensor>{y->value, xl->grad, vl->grad, ul->grad};
  };
  const std::vector<Tensor> fused = run(true);
  const std::vector<Tensor> unfused = run(false);
  for (size_t i = 0; i < fused.size(); ++i)
    EXPECT_TRUE(bitwise_equal(fused[i], unfused[i])) << "tensor " << i;
}

TEST(KernelsLowrank, LinearOpGradcheck) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Rng rng(58);
  testing::gradcheck(
      [](const std::vector<ag::Var>& in) {
        return ag::sum_all(ag::lowrank_linear(in[0], in[1], in[2]));
      },
      {rng.randn(Shape{4, 5}), rng.randn(Shape{5, 2}),
       rng.randn(Shape{3, 2})});
}

// The taped lowrank_conv2d node against conv2d(conv2d(x, u), v), on a
// geometry whose two convs chunk differently: the k x k lowering runs in 3
// chunks (3 + 3 + 1 samples), the 1x1 conv in 1. y, dX and dU keep every
// per-element sum, so they match bitwise; dV is summed per k x k chunk
// instead of in one 1x1 chunk, so it matches within 1e-5 of its max.
void expect_taped_lowrank_conv_matches_two_conv() {
  Rng rng(60);
  const int64_t n = 7, c_in = 8, hw = 16, r = 2, c_out = 6, k = 3;
  ASSERT_EQ(conv_chunk(ConvGeom{c_in, hw, hw, k, 1, 1}, n), 3);
  ASSERT_EQ(conv_chunk(ConvGeom{r, hw, hw, 1, 1, 0}, n), n);
  const Tensor x = rng.randn(Shape{n, c_in, hw, hw});
  const Tensor u = rng.randn(Shape{r, c_in, k, k});
  const Tensor v = rng.randn(Shape{c_out, r, 1, 1});
  const Tensor dy = rng.randn(Shape{n, c_out, hw, hw});
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::set_backend(backend)) continue;  // avx2 host gate
    auto run = [&](bool fused) {
      ag::Var xl = ag::leaf(x, true);
      ag::Var ul = ag::leaf(u, true);
      ag::Var vl = ag::leaf(v, true);
      ag::Var y = fused ? ag::lowrank_conv2d(xl, ul, vl, 1, 1)
                        : ag::conv2d(ag::conv2d(xl, ul, 1, 1), vl, 1, 0);
      ag::backward(y, dy);
      return std::vector<Tensor>{y->value, xl->grad, ul->grad, vl->grad};
    };
    const std::vector<Tensor> node = run(true);
    const std::vector<Tensor> two = run(false);
    for (size_t i = 0; i < 3; ++i)
      EXPECT_TRUE(bitwise_equal(node[i], two[i])) << backend << " tensor " << i;
    float diff = 0, scale = 0;
    for (int64_t j = 0; j < two[3].numel(); ++j) {
      diff = std::max(diff, std::fabs(node[3][j] - two[3][j]));
      scale = std::max(scale, std::fabs(two[3][j]));
    }
    EXPECT_LE(diff, 1e-5f * scale) << backend << " dV";
  }
}

TEST(KernelsLowrank, Conv2dFusedMatchesTwoConvEval) {
  BackendGuard guard;
  expect_taped_lowrank_conv_matches_two_conv();
  Rng rng(59);
  const int64_t n = 2, c_in = 5, h = 9, w = 9, r = 3, c_out = 8, k = 3;
  const Tensor x = rng.randn(Shape{n, c_in, h, w});
  const Tensor u = rng.randn(Shape{r, c_in, k, k});
  const Tensor v = rng.randn(Shape{c_out, r, 1, 1});
  ag::NoGradGuard ng;
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::set_backend(backend)) continue;  // avx2 host gate
    ag::Var xl = ag::leaf(x);
    ag::Var ul = ag::leaf(u);
    ag::Var vl = ag::leaf(v);
    const Tensor fused = ag::lowrank_conv2d(xl, ul, vl, 1, 1)->value;
    const Tensor two =
        ag::conv2d(ag::conv2d(xl, ul, 1, 1), vl, 1, 0)->value;
    // Same backend on both sides: the fusion only reorders per-sample loop
    // structure, never per-element accumulation, so bits must match.
    EXPECT_TRUE(bitwise_equal(fused, two)) << backend;
  }
}

TEST(KernelsTrace, GemmSpansReportAchievedGflops) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Rng rng(62);
  const Tensor a = rng.randn(Shape{64, 64});
  const Tensor b = rng.randn(Shape{64, 64});
  const bool was = trace::enabled();
  trace::set_enabled(true);
  trace::drain();  // drop spans buffered by earlier tests
  matmul(a, b);
  const std::vector<trace::Event> events = trace::drain();
  trace::set_enabled(was);
  const std::vector<trace::FlameRow> rows = trace::aggregate(events);
  bool found = false;
  for (const trace::FlameRow& r : rows) {
    if (r.name != "matmul") continue;
    found = true;
    EXPECT_EQ(r.counter_sum, 64 * 64 * 64);  // madds payload
    EXPECT_GT(r.gflops, 0.0);                // 2*madds / total time
  }
  EXPECT_TRUE(found) << "no matmul span recorded";
  EXPECT_TRUE(trace::is_gemm_span("lowrank"));
  EXPECT_FALSE(trace::is_gemm_span("im2col"));
}

TEST(KernelsBmm, BatchedVariantsBitwiseOnScalar) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Rng rng(61);
  const int64_t bt = 3, m = 7, k = 13, n = 5;
  const Tensor a = rng.randn(Shape{bt, m, k});
  const Tensor b = rng.randn(Shape{bt, k, n});
  const Tensor bnt = rng.randn(Shape{bt, n, k});
  const Tensor atn = rng.randn(Shape{bt, k, m});
  for (int threads : {1, 4}) {
    runtime::set_threads(threads);
    const Tensor c = bmm(a, b);
    const Tensor cnt = bmm_nt(a, bnt);
    const Tensor ctn = bmm_tn(atn, b);
    for (int64_t i = 0; i < bt; ++i) {
      const Tensor ai = a.narrow(i, 1).reshape(Shape{m, k});
      const Tensor bi = b.narrow(i, 1).reshape(Shape{k, n});
      const Tensor bnti = bnt.narrow(i, 1).reshape(Shape{n, k});
      const Tensor atni = atn.narrow(i, 1).reshape(Shape{k, m});
      EXPECT_TRUE(bitwise_equal(c.narrow(i, 1).reshape(Shape{m, n}),
                                ref_matmul(ai, bi)));
      EXPECT_TRUE(bitwise_equal(cnt.narrow(i, 1).reshape(Shape{m, n}),
                                ref_matmul_nt(ai, bnti)));
      EXPECT_TRUE(bitwise_equal(ctn.narrow(i, 1).reshape(Shape{m, n}),
                                ref_matmul_tn(atni, bi)));
    }
  }
}

// Rows [r0, r0 + rows) x columns [c0, c0 + cols) of a row-major 2-D
// tensor, copied into a contiguous matrix.
Tensor block(const Tensor& t, int64_t r0, int64_t rows, int64_t c0,
             int64_t cols) {
  Tensor out = Tensor::uninit(Shape{rows, cols});
  const int64_t ld = t.size(1);
  for (int64_t i = 0; i < rows; ++i)
    for (int64_t j = 0; j < cols; ++j)
      out.data()[i * cols + j] = t.data()[(r0 + i) * ld + c0 + j];
  return out;
}

// An element of C must not depend on where its row and column land in the
// GEMM: with k = 576 > KC the packed kernel runs two k blocks, and with a
// non-zero C the first block starts from C. Each (row block, column block)
// of A, B and C is multiplied on its own -- rows alone (m = 1), 7 rows
// (a full 6-row tile plus a 1-row edge tile) and all 16; columns 4 wide
// (an edge tile) and all 32 (two full tiles) -- and must equal the same
// block of the 16 x 32 product bitwise. The blocks take other avx2 paths
// than the 16-row product (the row kernel at m <= 8 or below the packed
// cutoff), so those must agree with the packed tiles as well.
TEST(KernelsEdgeTiles, BlockOfProductEqualsProductOfBlocksAtDeepK) {
  BackendGuard guard;
  Rng rng(63);
  const int64_t M = 16, K = 576, N = 32;
  const Tensor a = rng.randn(Shape{M, K});
  const Tensor at = rng.randn(Shape{K, M});  // gemm_tn's (k, m) operand
  const Tensor b = rng.randn(Shape{K, N});
  const Tensor c0 = rng.randn(Shape{M, N});

  enum class Op { kNN, kTN };
  // C block (r0, m) x (j0, n) after the op over the matching operand blocks.
  auto run = [&](Op op, int64_t r0, int64_t m, int64_t j0, int64_t n) {
    Tensor c = block(c0, r0, m, j0, n);
    const Tensor bb = block(b, 0, K, j0, n);
    const kernels::Backend& be = kernels::active();
    switch (op) {
      case Op::kNN: {
        const Tensor ab = block(a, r0, m, 0, K);
        be.gemm_nn(ab.data(), bb.data(), c.data(), m, K, n);
        break;
      }
      case Op::kTN: {
        const Tensor ab = block(at, 0, K, r0, m);
        be.gemm_tn(ab.data(), bb.data(), c.data(), m, K, n);
        break;
      }
    }
    return c;
  };

  std::vector<std::pair<int64_t, int64_t>> rows = {{0, M}, {0, 7}, {9, 7}};
  for (int64_t i = 0; i < M; ++i) rows.push_back({i, 1});
  const std::pair<int64_t, int64_t> cols[] = {{0, N}, {0, 4}, {28, 4}};
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::set_backend(backend)) continue;  // avx2 host gate
    for (Op op : {Op::kNN, Op::kTN}) {
      const Tensor full = run(op, 0, M, 0, N);
      for (const auto& [r0, m] : rows)
        for (const auto& [j0, n] : cols)
          EXPECT_TRUE(bitwise_equal(run(op, r0, m, j0, n),
                                    block(full, r0, m, j0, n)))
              << backend << " op " << static_cast<int>(op) << " rows ["
              << r0 << ", " << r0 + m << ") cols [" << j0 << ", " << j0 + n
              << ")";
    }
  }
}

// The rows of matmul_nt do not depend on how many rows the GEMM has: the
// first m rows computed at m = 1..256 equal, bitwise, those rows of the
// m = 256 product, per backend and at 1 and 4 threads. On avx2 these
// shapes change kernel as m grows (the NT panel kernel up to 8 rows, then
// the transposed-B row kernel or the packed tiles; DESIGN.md §13);
// (128, 10) is the width-0.25 ResNet-18 classifier, whose served rows must
// not change with the batch they arrive in (serve/fleet.h).
TEST(KernelsEdgeTiles, NtRowsIndependentOfRowCount) {
  BackendGuard guard;
  const std::pair<int64_t, int64_t> shapes[] = {
      {128, 10}, {12, 48}, {48, 12}, {48, 192}};  // (k, n)
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::set_backend(backend)) continue;  // avx2 host gate
    for (const auto& [k, n] : shapes) {
      Rng rng(static_cast<uint64_t>(k * 1000 + n));
      const Tensor a = rng.randn(Shape{256, k});
      const Tensor b = rng.randn(Shape{n, k});
      runtime::set_threads(1);
      const Tensor full = matmul_nt(a, b);
      for (int threads : {1, 4}) {
        runtime::set_threads(threads);
        for (int64_t m = 1; m <= 256; ++m)
          EXPECT_TRUE(bitwise_equal(matmul_nt(slice(a, 0, 0, m), b),
                                    block(full, 0, m, 0, n)))
              << backend << " threads " << threads << " (k, n) = (" << k
              << ", " << n << ") m " << m;
      }
    }
  }
}

// The rank-width shapes of the benchmark's ResNet-18 and LSTM, above and
// below the avx2 packed-path cutoff: a thin product is a block of rows (NN
// and TN with m <= 8, NT with m <= 8) or of columns (NT with n <= 16) of a
// wide product of the same operands, and must equal that block bitwise at
// 1 and 4 threads. On avx2 the wide product runs the 6x16 packed tiles,
// except an NT product with n <= 16 and m > 8 (the last two NT-row cases),
// which runs the transposed-B row kernel. NN and TN start from a non-zero
// C, so the chain must run through C.
TEST(KernelsEdgeTiles, ThinPathsEqualPackedTilesBitwise) {
  BackendGuard guard;
  struct Thin {
    int64_t m, k, n;
  };
  // The wide extent: over 16 and enough for m*k*n >= 32,768.
  auto wide = [](int64_t k, int64_t other) {
    return std::max<int64_t>(24, (1 << 15) / (k * other) + 1);
  };
  const Thin rows[] = {{1, 72, 768}, {2, 72, 768}, {4, 144, 448},
                       {8, 288, 224}, {8, 48, 12}, {8, 12, 48}, {4, 16, 112}};
  const Thin nt_cols[] = {{72, 768, 2},  {144, 448, 4}, {576, 112, 16},
                          {72, 768, 1},  {288, 224, 8}, {200, 48, 12},
                          {30, 12, 16}};
  const Thin nt_rows[] = {{8, 448, 32}, {8, 12, 48}, {2, 768, 8}, {8, 48, 12}};
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::set_backend(backend)) continue;  // avx2 host gate
    const kernels::Backend& be = kernels::active();
    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      for (const auto& [m, k, n] : rows) {
        const int64_t mw = wide(k, n), r0 = mw - m;  // the last rows
        Rng rng(static_cast<uint64_t>(m * 7919 + k * 31 + n));
        const Tensor a = rng.randn(Shape{mw, k});
        const Tensor at = rng.randn(Shape{k, mw});  // gemm_tn's (k, m)
        const Tensor b = rng.randn(Shape{k, n});
        const Tensor c0 = rng.randn(Shape{mw, n});
        Tensor nn = c0, tn = c0;  // copy-on-write: each write unshares
        be.gemm_nn(a.data(), b.data(), nn.data(), mw, k, n);
        be.gemm_tn(at.data(), b.data(), tn.data(), mw, k, n);
        Tensor nn_thin = block(c0, r0, m, 0, n), tn_thin = nn_thin;
        be.gemm_nn(block(a, r0, m, 0, k).data(), b.data(), nn_thin.data(), m,
                   k, n);
        be.gemm_tn(block(at, 0, k, r0, m).data(), b.data(), tn_thin.data(),
                   m, k, n);
        EXPECT_TRUE(bitwise_equal(nn_thin, block(nn, r0, m, 0, n)))
            << backend << " threads " << threads << " NN " << m << "x" << k
            << "x" << n;
        EXPECT_TRUE(bitwise_equal(tn_thin, block(tn, r0, m, 0, n)))
            << backend << " threads " << threads << " TN " << m << "x" << k
            << "x" << n;
      }
      for (const auto& [m, k, n] : nt_cols) {
        const int64_t nw = wide(k, m), j0 = nw - n;  // the last columns
        Rng rng(static_cast<uint64_t>(m * 104729 + k * 31 + n));
        const Tensor a = rng.randn(Shape{m, k});
        const Tensor b = rng.randn(Shape{nw, k});
        Tensor full(Shape{m, nw}), thin(Shape{m, n});
        be.gemm_nt(a.data(), b.data(), full.data(), m, k, nw);
        be.gemm_nt(a.data(), block(b, j0, n, 0, k).data(), thin.data(), m, k,
                   n);
        EXPECT_TRUE(bitwise_equal(thin, block(full, 0, m, j0, n)))
            << backend << " threads " << threads << " NT " << m << "x" << k
            << "x" << n;
      }
      for (const auto& [m, k, n] : nt_rows) {
        const int64_t mw = wide(k, n), r0 = mw - m;
        Rng rng(static_cast<uint64_t>(m * 15485863 + k * 31 + n));
        const Tensor a = rng.randn(Shape{mw, k});
        const Tensor b = rng.randn(Shape{n, k});
        Tensor full(Shape{mw, n}), thin(Shape{m, n});
        be.gemm_nt(a.data(), b.data(), full.data(), mw, k, n);
        be.gemm_nt(block(a, r0, m, 0, k).data(), b.data(), thin.data(), m, k,
                   n);
        EXPECT_TRUE(bitwise_equal(thin, block(full, r0, m, 0, n)))
            << backend << " threads " << threads << " NT " << m << "x" << k
            << "x" << n;
      }
    }
  }
}

// Conv shapes for the chunked-lowering tests. The first two leave a
// remainder chunk (n is not a multiple of conv_chunk); outputs are 16x16
// (256 columns per sample) and 2x2 (4 columns); patch 576 > KC = 384; and
// per-sample GEMMs fall on both sides of the avx2 packed-path cutoff
// (c_out * patch * spatial = 18,432 and 36,864 vs 32,768) while the chunk's
// GEMM is packed.
struct ConvChunkCase {
  int64_t n, c_in, hw, k, stride, pad, c_out, r;
};
const ConvChunkCase kConvChunkCases[] = {
    {11, 3, 16, 3, 1, 1, 8, 4},   // stem-like: nb 9, remainder 2
    {30, 64, 2, 3, 1, 1, 8, 8},   // deep patch, 2x2 out: nb 28, remainder 2
    {30, 64, 2, 3, 1, 1, 16, 8},  // same, per-sample GEMM above the cutoff
    {5, 8, 8, 3, 2, 1, 12, 3},    // strided, one chunk
    {7, 16, 4, 1, 1, 0, 24, 6},   // 1x1
};

ConvGeom geom(const ConvChunkCase& c) {
  return ConvGeom{c.c_in, c.hw, c.hw, c.k, c.stride, c.pad};
}

// The forward of a batch equals the per-sample forwards stacked, bitwise,
// for every conv path: the chunk a sample is lowered in must not change its
// output bits (serving relies on it; serve/fleet.h).
TEST(KernelsConvChunk, BatchForwardEqualsPerSampleForwards) {
  BackendGuard guard;
  ag::NoGradGuard ng;
  Rng rng(64);
  for (int i = 0; i < 2; ++i) {  // the remainder-chunk shapes
    const ConvChunkCase& c = kConvChunkCases[i];
    const int64_t nb = conv_chunk(geom(c), c.n);
    ASSERT_GT(nb, 1);
    ASSERT_NE(c.n % nb, 0);
  }
  for (const ConvChunkCase& c : kConvChunkCases) {
    const Tensor x = rng.randn(Shape{c.n, c.c_in, c.hw, c.hw});
    const Tensor w = rng.randn(Shape{c.c_out, c.c_in, c.k, c.k});
    const Tensor u = rng.randn(Shape{c.r, c.c_in, c.k, c.k});
    const Tensor v = rng.randn(Shape{c.c_out, c.r, 1, 1});
    std::vector<std::pair<const char*, std::function<Tensor(const Tensor&)>>>
        paths = {
            {"conv2d",
             [&](const Tensor& xi) {
               return ag::conv2d(ag::leaf(xi), ag::leaf(w), c.stride, c.pad)
                   ->value;
             }},
            {"lowrank_conv2d",
             [&](const Tensor& xi) {
               return ag::lowrank_conv2d(ag::leaf(xi), ag::leaf(u),
                                         ag::leaf(v), c.stride, c.pad)
                   ->value;
             }},
        };
    // The quantized layer forwards: int8 and bf16 slots on nn::Conv2d and
    // nn::LowRankConv2d.
    for (kernels::QMode mode : {kernels::QMode::kInt8, kernels::QMode::kBf16}) {
      Rng lr(66);
      auto conv = std::make_shared<nn::Conv2d>(c.c_in, c.c_out, c.k, c.stride,
                                               c.pad, lr);
      conv->weight->value = w;
      auto lowrank = std::make_shared<nn::LowRankConv2d>(
          c.c_in, c.c_out, c.k, c.stride, c.pad, c.r, lr);
      lowrank->u->value = u;
      lowrank->v->value = v;
      quant::QuantSpec spec;
      spec.mode = mode;
      spec.min_numel = 0;
      quant::quantize_module(*conv, spec);
      quant::quantize_module(*lowrank, spec);
      paths.push_back({"quantized Conv2d", [=](const Tensor& xi) {
                         return conv->forward(ag::leaf(xi))->value;
                       }});
      paths.push_back({"quantized LowRankConv2d", [=](const Tensor& xi) {
                         return lowrank->forward(ag::leaf(xi))->value;
                       }});
    }
    for (const char* backend : {"scalar", "avx2"}) {
      if (!kernels::set_backend(backend)) continue;  // avx2 host gate
      for (const auto& [name, fwd] : paths) {
        const Tensor batch = fwd(x);
        for (int64_t i = 0; i < c.n; ++i)
          EXPECT_TRUE(bitwise_equal(batch.narrow(i, 1), fwd(x.narrow(i, 1))))
              << backend << " " << name << " n" << c.n << " c_in" << c.c_in
              << " hw" << c.hw << " c_out" << c.c_out << " sample " << i;
      }
    }
  }
}

// The conv node's chunked backward, dense (conv2d) and factorized
// (lowrank_conv2d): every gradient matches finite differences on a shape
// that lowers in two chunks (2 + 1 samples), and is bitwise equal at 1 and
// 4 threads on every chunked shape.
TEST(KernelsConvChunk, BackwardGradcheckAndThreadInvariance) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Rng rng(65);
  {
    const ConvGeom g{1, 32, 32, 5, 1, 1};
    ASSERT_EQ(conv_chunk(g, 3), 2);
    const Tensor r = rng.randn(Shape{3, 2, g.out_h(), g.out_w()});
    testing::gradcheck(
        [&](const std::vector<ag::Var>& in) {
          return ag::sum_all(
              ag::mul(ag::conv2d(in[0], in[1], 1, 1), ag::leaf(r)));
        },
        {rng.randn(Shape{3, 1, 32, 32}), rng.randn(Shape{2, 1, 5, 5})});
    // The factorized output is larger (two random factors), so its loss is
    // scaled down to keep the loss's float rounding, divided by 2 eps,
    // inside the finite-difference tolerance.
    const Tensor rv = rng.randn(Shape{3, 3, g.out_h(), g.out_w()}) * 0.0625f;
    testing::gradcheck(
        [&](const std::vector<ag::Var>& in) {
          return ag::sum_all(ag::mul(
              ag::lowrank_conv2d(in[0], in[1], in[2], 1, 1), ag::leaf(rv)));
        },
        {rng.randn(Shape{3, 1, 32, 32}), rng.randn(Shape{2, 1, 5, 5}),
         rng.randn(Shape{3, 2, 1, 1})});
  }
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::set_backend(backend)) continue;  // avx2 host gate
    for (const ConvChunkCase& c : kConvChunkCases) {
      const Tensor x = rng.randn(Shape{c.n, c.c_in, c.hw, c.hw});
      const Tensor w = rng.randn(Shape{c.c_out, c.c_in, c.k, c.k});
      const Tensor u = rng.randn(Shape{c.r, c.c_in, c.k, c.k});
      const Tensor v = rng.randn(Shape{c.c_out, c.r, 1, 1});
      const ConvGeom g = geom(c);
      const Tensor dy = rng.randn(Shape{c.n, c.c_out, g.out_h(), g.out_w()});
      // dX, dW (dense) or dX, dU, dV (factorized) at `threads`.
      auto grads = [&](int threads, bool factorized) {
        runtime::set_threads(threads);
        ag::Var xl = ag::leaf(x, true);
        ag::Var wl = ag::leaf(factorized ? u : w, true);
        ag::Var vl = ag::leaf(v, true);
        ag::backward(factorized
                         ? ag::lowrank_conv2d(xl, wl, vl, c.stride, c.pad)
                         : ag::conv2d(xl, wl, c.stride, c.pad),
                     dy);
        std::vector<Tensor> out{xl->grad, wl->grad};
        if (factorized) out.push_back(vl->grad);
        return out;
      };
      for (bool factorized : {false, true}) {
        const std::vector<Tensor> g1 = grads(1, factorized);
        const std::vector<Tensor> g4 = grads(4, factorized);
        for (size_t i = 0; i < g1.size(); ++i)
          EXPECT_TRUE(bitwise_equal(g1[i], g4[i]))
              << backend << (factorized ? " lowrank" : " dense") << " grad "
              << i << " n" << c.n;
      }
    }
  }
}

}  // namespace
}  // namespace pf
