// AVX2+FMA packed GEMM backend.
//
// GotoBLAS-style blocking: B is packed once into L1-sized (KC x NR) column
// strips, A is packed per row-chunk per k-block into (KC x MR) row strips,
// and a 6x16 register-tiled microkernel (12 ymm accumulators, two B loads +
// six A broadcasts + twelve FMAs per k step) sweeps the tiles. Edge tiles
// (m % 6, n % 16, any k) run the same kernel on a local tile loaded from the
// valid region of C and stored back, so no masked loads or scalar inner
// loops sit on the hot path, and every element of C -- in a full tile or an
// edge tile -- carries one FMA chain through C in ascending k.
//
// Parallelism rides the existing deterministic runtime::parallel_for row
// partitioning (grain MC): chunk boundaries depend only on (m, MC), never on
// PF_THREADS, and each output row belongs to exactly one chunk -- so results
// are bitwise identical across thread counts. Across backends the
// accumulation order differs from the scalar loops by design; that contract
// is tolerance-gated (see kernels_test.cc).
//
// Compile/runtime guard: every function touching intrinsics carries
// __attribute__((target("avx2,fma"))), so this file builds into targets
// that do NOT pass -mavx2 (the ASan/TSan library rebuilds under tests/)
// and the registry only hands the backend out after
// __builtin_cpu_supports("avx2")/("fma") both pass.
#include "kernels/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PF_KERNELS_HAVE_AVX2 1
#else
#define PF_KERNELS_HAVE_AVX2 0
#endif

#if PF_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "kernels/gemm_panels.h"
#include "runtime/buffer_pool.h"
#include "runtime/thread_pool.h"

#define PF_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace pf::kernels {

namespace {

constexpr int64_t MR = 6;    // microtile rows (A broadcasts)
constexpr int64_t NR = 16;   // microtile cols (two ymm lanes)
constexpr int64_t KC = 384;  // k block: one packed B strip = KC*NR*4 = 24 KB
constexpr int64_t MC = 96;   // rows per parallel chunk; A pack = MC*KC*4 = 96 KB

// Below this many multiply-adds the packing traffic dominates, so fall back
// to the scalar panels. The cutoff depends only on the shape, keeping
// backend output deterministic.
constexpr int64_t kPackedCutoff = 1 << 15;

inline int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Pool-backed scratch for packed panels.
struct Scratch {
  float* p = nullptr;
  int64_t cap = 0;
  explicit Scratch(int64_t numel) {
    p = runtime::BufferPool::instance().acquire(numel, &cap);
  }
  ~Scratch() { runtime::BufferPool::instance().release(p, cap); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
};

// ---------------------------------------------------------------------------
// Packing. Packed B layout: strip (pc, js) is a contiguous kc*NR panel at
// bp + b_strip(pc, js, nstrips, kc) with element (kk, j) at [kk*NR + j],
// where kc is the k block's real depth (KC except for the last block), so a
// whole pack is exactly nstrips*k*NR floats; columns past n are zeroed so
// edge tiles can run the full-width kernel. Packed A
// layout per row chunk: strip `is` is a KC*MR panel at ap + is*KC*MR with
// element (r, kk) at [kk*MR + r]; rows past m are zeroed.
// ---------------------------------------------------------------------------

// Offset of packed-B strip (pc, js): every block before pc is a full KC
// deep, and the strips of block pc are kc*NR floats each.
inline int64_t b_strip(int64_t pc, int64_t js, int64_t nstr, int64_t kc) {
  return pc * nstr * KC * NR + js * kc * NR;
}

template <Trans TB>
PF_TARGET_AVX2 void pack_b(const float* b, int64_t ldb, int64_t k, int64_t n,
                           float* bp) {
  const int64_t npc = ceil_div(k, KC), nstr = ceil_div(n, NR);
  for (int64_t pc = 0; pc < npc; ++pc) {
    const int64_t k0 = pc * KC, kc = std::min(KC, k - k0);
    for (int64_t js = 0; js < nstr; ++js) {
      const int64_t j0 = js * NR, nr = std::min(NR, n - j0);
      float* dst = bp + b_strip(pc, js, nstr, kc);
      if constexpr (TB == Trans::N) {
        // b is (k, n) row-major: each kk row copies NR contiguous floats.
        for (int64_t kk = 0; kk < kc; ++kk) {
          const float* src = b + (k0 + kk) * ldb + j0;
          float* d = dst + kk * NR;
          if (nr == NR) {
            std::memcpy(d, src, NR * sizeof(float));
          } else {
            for (int64_t j = 0; j < nr; ++j) d[j] = src[j];
            for (int64_t j = nr; j < NR; ++j) d[j] = 0.0f;
          }
        }
      } else {
        // b is stored (n, k): read each b row contiguously along k, write
        // with stride NR.
        for (int64_t j = 0; j < nr; ++j) {
          const float* src = b + (j0 + j) * ldb + k0;
          for (int64_t kk = 0; kk < kc; ++kk) dst[kk * NR + j] = src[kk];
        }
        for (int64_t j = nr; j < NR; ++j)
          for (int64_t kk = 0; kk < kc; ++kk) dst[kk * NR + j] = 0.0f;
      }
    }
  }
}

template <Trans TA>
PF_TARGET_AVX2 void pack_a(const float* a, int64_t lda, int64_t m, int64_t k0,
                           int64_t kc, float* ap) {
  // `a` already points at the chunk's first row (TA==N) / column (TA==T).
  const int64_t nstr = ceil_div(m, MR);
  for (int64_t is = 0; is < nstr; ++is) {
    const int64_t i0 = is * MR, mr = std::min(MR, m - i0);
    float* dst = ap + is * (KC * MR);
    if constexpr (TA == Trans::N) {
      // a is (m, k) row-major: interleave MR row streams so every packed
      // write is contiguous (kk-outer with one pointer per row). Deep-k
      // narrow-n GEMMs are pack-bound, so write locality matters here.
      if (mr == MR) {
        const float* s0 = a + (i0 + 0) * lda + k0;
        const float* s1 = a + (i0 + 1) * lda + k0;
        const float* s2 = a + (i0 + 2) * lda + k0;
        const float* s3 = a + (i0 + 3) * lda + k0;
        const float* s4 = a + (i0 + 4) * lda + k0;
        const float* s5 = a + (i0 + 5) * lda + k0;
        float* d = dst;
        for (int64_t kk = 0; kk < kc; ++kk, d += MR) {
          d[0] = s0[kk];
          d[1] = s1[kk];
          d[2] = s2[kk];
          d[3] = s3[kk];
          d[4] = s4[kk];
          d[5] = s5[kk];
        }
      } else {
        for (int64_t kk = 0; kk < kc; ++kk) {
          float* d = dst + kk * MR;
          for (int64_t r = 0; r < mr; ++r) d[r] = a[(i0 + r) * lda + k0 + kk];
          for (int64_t r = mr; r < MR; ++r) d[r] = 0.0f;
        }
      }
    } else {
      // a is stored (k, m): each kk row holds MR contiguous floats.
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (k0 + kk) * lda + i0;
        float* d = dst + kk * MR;
        for (int64_t r = 0; r < mr; ++r) d[r] = src[r];
        for (int64_t r = mr; r < MR; ++r) d[r] = 0.0f;
      }
    }
  }
}

// Dequantizing pack for the quantized-weight GEMM (Backend::gemm_nt_q):
// B stored quantized (n, k) feeding an NT GEMM, in the pack_b Trans::T
// layout, but the source elements are expanded from int8 (scale * code) or
// bf16 (bit shift) while they stream into the panel -- the dequantized
// matrix is never materialized. Element values are computed with the exact
// expressions dequant_rows uses, so the fused results are bitwise identical
// to the default dequant-then-GEMM. (Quantized convs have no fused pack:
// measured against dequantize-then-gemm_nn it bought nothing; see
// EXPERIMENTS.md.)
PF_TARGET_AVX2 void pack_b_qt(const QView& b, int64_t ldb, int64_t k,
                              int64_t n, float* bp) {
  const int64_t npc = ceil_div(k, KC), nstr = ceil_div(n, NR);
  for (int64_t pc = 0; pc < npc; ++pc) {
    const int64_t k0 = pc * KC, kc = std::min(KC, k - k0);
    for (int64_t js = 0; js < nstr; ++js) {
      const int64_t j0 = js * NR, nr = std::min(NR, n - j0);
      float* dst = bp + b_strip(pc, js, nstr, kc);
      for (int64_t j = 0; j < nr; ++j) {
        const int64_t row = j0 + j;
        if (b.b16) {
          const uint16_t* src = b.b16 + row * ldb + k0;
          for (int64_t kk = 0; kk < kc; ++kk) {
            const uint32_t u = static_cast<uint32_t>(src[kk]) << 16;
            std::memcpy(dst + kk * NR + j, &u, sizeof(float));
          }
        } else {
          const float scale = b.scales[row];
          const int8_t* src = b.q + row * ldb + k0;
          for (int64_t kk = 0; kk < kc; ++kk)
            dst[kk * NR + j] = scale * static_cast<float>(src[kk]);
        }
      }
      for (int64_t j = nr; j < NR; ++j)
        for (int64_t kk = 0; kk < kc; ++kk) dst[kk * NR + j] = 0.0f;
    }
  }
}

// ---------------------------------------------------------------------------
// Microkernels.
// ---------------------------------------------------------------------------

// Full 6x16 tile: c[0..6)[0..16) += packed_a @ packed_b over kc steps.
PF_TARGET_AVX2 void kern_6x16(int64_t kc, const float* ap, const float* bp,
                              float* c, int64_t ldc) {
  __m256 c00 = _mm256_loadu_ps(c + 0 * ldc), c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
  __m256 c10 = _mm256_loadu_ps(c + 1 * ldc), c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
  __m256 c20 = _mm256_loadu_ps(c + 2 * ldc), c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 c30 = _mm256_loadu_ps(c + 3 * ldc), c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  __m256 c40 = _mm256_loadu_ps(c + 4 * ldc), c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
  __m256 c50 = _mm256_loadu_ps(c + 5 * ldc), c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
// One k step: two B loads, six A broadcasts, twelve FMAs. A macro (not a
// lambda) so the body stays inside this target("avx2,fma") function even in
// builds without -mavx2 -- lambdas do not inherit the target attribute.
#define PF_K_STEP(a6, b16)                 \
  do {                                     \
    const __m256 b0 = _mm256_loadu_ps(b16);      \
    const __m256 b1 = _mm256_loadu_ps((b16) + 8); \
    __m256 av;                             \
    av = _mm256_broadcast_ss((a6) + 0);    \
    c00 = _mm256_fmadd_ps(av, b0, c00);    \
    c01 = _mm256_fmadd_ps(av, b1, c01);    \
    av = _mm256_broadcast_ss((a6) + 1);    \
    c10 = _mm256_fmadd_ps(av, b0, c10);    \
    c11 = _mm256_fmadd_ps(av, b1, c11);    \
    av = _mm256_broadcast_ss((a6) + 2);    \
    c20 = _mm256_fmadd_ps(av, b0, c20);    \
    c21 = _mm256_fmadd_ps(av, b1, c21);    \
    av = _mm256_broadcast_ss((a6) + 3);    \
    c30 = _mm256_fmadd_ps(av, b0, c30);    \
    c31 = _mm256_fmadd_ps(av, b1, c31);    \
    av = _mm256_broadcast_ss((a6) + 4);    \
    c40 = _mm256_fmadd_ps(av, b0, c40);    \
    c41 = _mm256_fmadd_ps(av, b1, c41);    \
    av = _mm256_broadcast_ss((a6) + 5);    \
    c50 = _mm256_fmadd_ps(av, b0, c50);    \
    c51 = _mm256_fmadd_ps(av, b1, c51);    \
  } while (0)
  // Unroll by 4 to amortize loop overhead (the packed panels are read
  // strictly sequentially, so hardware prefetch covers them).
  int64_t kk = 0;
  for (; kk + 4 <= kc; kk += 4) {
    PF_K_STEP(ap + 0 * MR, bp + 0 * NR);
    PF_K_STEP(ap + 1 * MR, bp + 1 * NR);
    PF_K_STEP(ap + 2 * MR, bp + 2 * NR);
    PF_K_STEP(ap + 3 * MR, bp + 3 * NR);
    ap += 4 * MR;
    bp += 4 * NR;
  }
  for (; kk < kc; ++kk) {
    PF_K_STEP(ap, bp);
    ap += MR;
    bp += NR;
  }
#undef PF_K_STEP
  _mm256_storeu_ps(c + 0 * ldc, c00), _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10), _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20), _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30), _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  _mm256_storeu_ps(c + 4 * ldc, c40), _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  _mm256_storeu_ps(c + 5 * ldc, c50), _mm256_storeu_ps(c + 5 * ldc + 8, c51);
}

// Edge tile (mr < MR and/or nr < NR): load the valid region of c into a
// zero-padded local tile, run the full-width kernel on it (packed operands
// are zero-padded, so the extra lanes compute zeros) and store the valid
// region back. Starting the accumulators from c, as kern_6x16 does, keeps
// an element's bits independent of whether its row or column lands in a
// full or an edge tile -- which is what makes a GEMM's rows and columns
// invariant to the batch they are computed in.
PF_TARGET_AVX2 void kern_edge(int64_t kc, const float* ap, const float* bp,
                              float* c, int64_t ldc, int64_t mr, int64_t nr) {
  alignas(32) float tmp[MR * NR] = {};
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t j = 0; j < nr; ++j) tmp[r * NR + j] = c[r * ldc + j];
  __m256 acc[MR][2];
  for (int64_t r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_load_ps(tmp + r * NR);
    acc[r][1] = _mm256_load_ps(tmp + r * NR + 8);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    bp += NR;
    for (int64_t r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
    ap += MR;
  }
  for (int64_t r = 0; r < MR; ++r) {
    _mm256_store_ps(tmp + r * NR, acc[r][0]);
    _mm256_store_ps(tmp + r * NR + 8, acc[r][1]);
  }
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = tmp[r * NR + j];
}

// One row chunk [r0, r1) of the packed GEMM: pack A per k block, then sweep
// B strips x A strips. Kept out of the parallel_for lambda because lambdas
// do not reliably inherit __attribute__((target)) in GCC.
template <Trans TA>
PF_TARGET_AVX2 void gemm_chunk(const float* a, int64_t lda,
                               const float* bp_all, float* c, int64_t ldc,
                               int64_t r0, int64_t r1, int64_t k, int64_t n,
                               float* apack) {
  const int64_t mc = r1 - r0;
  const int64_t npc = ceil_div(k, KC);
  const int64_t nstr_n = ceil_div(n, NR);
  const int64_t nstr_m = ceil_div(mc, MR);
  const float* achunk = (TA == Trans::N) ? a + r0 * lda : a + r0;
  for (int64_t pc = 0; pc < npc; ++pc) {
    const int64_t k0 = pc * KC, kc = std::min(KC, k - k0);
    pack_a<TA>(achunk, lda, mc, k0, kc, apack);
    for (int64_t js = 0; js < nstr_n; ++js) {
      const int64_t j0 = js * NR, nr = std::min(NR, n - j0);
      const float* bp = bp_all + b_strip(pc, js, nstr_n, kc);
      for (int64_t is = 0; is < nstr_m; ++is) {
        const int64_t i0 = is * MR, mr = std::min(MR, mc - i0);
        const float* ap = apack + is * (KC * MR);
        float* ct = c + (r0 + i0) * ldc + j0;
        if (mr == MR && nr == NR)
          kern_6x16(kc, ap, bp, ct, ldc);
        else
          kern_edge(kc, ap, bp, ct, ldc, mr, nr);
      }
    }
  }
}

// Packed GEMM driver: c[m,n] += op(a) @ op(b). B is packed once (its packed
// image is identical no matter how rows are later partitioned), then row
// chunks of MC proceed in parallel. Accumulation order per output element is
// (pc ascending, kk ascending) -- a function of shape only, so results are
// bitwise stable across PF_THREADS.
template <Trans TA, Trans TB>
void gemm_packed(const float* a, int64_t lda, const float* b, int64_t ldb,
                 float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
  Scratch bpack(ceil_div(n, NR) * k * NR);
  pack_b<TB>(b, ldb, k, n, bpack.p);
  const float* bp_all = bpack.p;
  runtime::parallel_for(0, m, MC, [=](int64_t r0, int64_t r1) {
    Scratch apack(ceil_div(r1 - r0, MR) * KC * MR);
    gemm_chunk<TA>(a, lda, bp_all, c, ldc, r0, r1, k, n, apack.p);
  });
}

class Avx2Backend final : public Backend {
 public:
  const char* name() const override { return "avx2"; }

  void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) const override {
    if (m * k * n < kPackedCutoff) {
      runtime::parallel_for(0, m, row_grain(k, n), [=](int64_t r0, int64_t r1) {
        gemm_panel<Trans::N, Trans::N>(a + r0 * k, k, b, n, c + r0 * n, n,
                                       r1 - r0, k, n);
      });
      return;
    }
    gemm_packed<Trans::N, Trans::N>(a, k, b, n, c, n, m, k, n);
  }

  void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) const override {
    if (m * k * n < kPackedCutoff) {
      runtime::parallel_for(0, m, row_grain(k, n), [=](int64_t r0, int64_t r1) {
        gemm_panel<Trans::T, Trans::N>(a + r0, m, b, n, c + r0 * n, n, r1 - r0,
                                       k, n);
      });
      return;
    }
    gemm_packed<Trans::T, Trans::N>(a, m, b, n, c, n, m, k, n);
  }

  void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) const override {
    // Accumulates into the caller-zeroed c on both paths (the scalar panel
    // overwrites instead; both observe the "c starts zeroed" contract).
    // Below the cutoff b is transposed into pooled scratch and the NN panel
    // runs, so every element chains ascending k through c exactly as the
    // packed path does: a row's bits do not depend on how many rows the
    // GEMM has, on either side of the cutoff.
    if (m * k * n < kPackedCutoff) {
      Scratch bt(k * n);
      for (int64_t j = 0; j < n; ++j)
        for (int64_t kk = 0; kk < k; ++kk) bt.p[kk * n + j] = b[j * k + kk];
      const float* btp = bt.p;
      runtime::parallel_for(0, m, row_grain(k, n), [=](int64_t r0, int64_t r1) {
        gemm_panel<Trans::N, Trans::N>(a + r0 * k, k, btp, n, c + r0 * n, n,
                                       r1 - r0, k, n);
      });
      return;
    }
    gemm_packed<Trans::N, Trans::T>(a, k, b, k, c, n, m, k, n);
  }

  // Fused dequant-GEMM. Below the packed cutoff the default (dequant into
  // pooled scratch + this backend's own float GEMM) already wins, so only
  // the packed path carries the fused variant.
  void gemm_nt_q(const float* a, const QView& b, float* c, int64_t m,
                 int64_t k, int64_t n) const override {
    if (m * k * n < kPackedCutoff) {
      Backend::gemm_nt_q(a, b, c, m, k, n);
      return;
    }
    Scratch bpack(ceil_div(n, NR) * k * NR);
    pack_b_qt(b, k, k, n, bpack.p);
    const float* bp_all = bpack.p;
    runtime::parallel_for(0, m, MC, [=](int64_t r0, int64_t r1) {
      Scratch apack(ceil_div(r1 - r0, MR) * KC * MR);
      gemm_chunk<Trans::N>(a, k, bp_all, c, n, r0, r1, k, n, apack.p);
    });
  }
};

}  // namespace

namespace detail {

const Backend* avx2_backend_or_null() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static Avx2Backend backend;
  return &backend;
}

bool avx2_compiled_in() { return true; }

}  // namespace detail

}  // namespace pf::kernels

#else  // !PF_KERNELS_HAVE_AVX2

namespace pf::kernels::detail {

const Backend* avx2_backend_or_null() { return nullptr; }
bool avx2_compiled_in() { return false; }

}  // namespace pf::kernels::detail

#endif  // PF_KERNELS_HAVE_AVX2
