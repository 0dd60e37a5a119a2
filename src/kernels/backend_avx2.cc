// AVX2+FMA GEMM backend: a packed path for wide products and unpacked
// kernels for thin (rank-width) and small ones; the dispatch is at
// Avx2Backend and in DESIGN.md §13.
//
// Packed path, GotoBLAS-style blocking: B is packed once into L1-sized
// (KC x NR) column strips, A is packed per row-chunk per k-block into
// (KC x MR) row strips, and a 6x16 register-tiled microkernel (12 ymm
// accumulators, two B loads + six A broadcasts + twelve FMAs per k step)
// sweeps the tiles. Edge tiles (m % 6, n % 16, any k) run the same kernel
// on a local tile loaded from the valid region of C and stored back, so no
// masked loads or scalar inner loops sit on the hot path, and every element
// of C -- in a full tile or an edge tile -- carries one FMA chain through C
// in ascending k.
//
// Parallelism rides the deterministic runtime::parallel_for partitioning
// (packed: rows, grain MC; unpacked: row or column blocks of a shape-only
// grain): chunk boundaries never depend on PF_THREADS, and each output
// element belongs to exactly one chunk -- so results are bitwise identical
// across thread counts. Across backends the accumulation order differs
// from the scalar loops by design; that contract is tolerance-gated (see
// kernels_test.cc).
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

#include "kernels/gemm_panels.h"  // Trans
#include "runtime/buffer_pool.h"
#include "runtime/thread_pool.h"

#define PF_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace pf::kernels {

namespace {

constexpr int64_t MR = 6;    // microtile rows (A broadcasts)
constexpr int64_t NR = 16;   // microtile cols (two ymm lanes)
constexpr int64_t KC = 384;  // k block: one packed B strip = KC*NR*4 = 24 KB
constexpr int64_t MC = 96;   // rows per parallel chunk; A pack = MC*KC*4 = 96 KB

// Below this many multiply-adds the packing traffic dominates, so the
// unpacked kernels run instead. The cutoff depends only on the shape.
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

// ---------------------------------------------------------------------------
// Unpacked kernels for rank-width shapes (see the dispatch in Avx2Backend).
// Neither pads a thin dimension up to a 6x16 tile: the row kernel reads
// both operands in place, the panel kernel transposes 8 rows of A at a
// time into an L1-sized panel. Both keep each element of C in a register
// lane for the whole k loop and run c = fma(a, b, c) in ascending k from
// C's value, the packed path's chain.
// ---------------------------------------------------------------------------

// Lanes [0, rem) of a column tail.
PF_TARGET_AVX2 inline __m256i lane_mask(int64_t rem) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Row tile: C rows [0, M) x 8*NV columns stay in registers while the k rows
// of B stream in place; A element (i, kk) sits at a[i*sai + kk*sak], so
// one kernel serves A stored (m, k) (NN) and (k, m) (TN). kMask runs one
// vector on the first `rem` columns with masked loads and stores.
template <int M, int NV, bool kMask>
PF_TARGET_AVX2 void rows_tile(const float* a, int64_t sai, int64_t sak,
                              const float* b, int64_t ldb, float* c,
                              int64_t ldc, int64_t k, int64_t rem) {
  static_assert(!kMask || NV == 1);
  const __m256i mask = lane_mask(kMask ? rem : 8);
  __m256 acc[M][NV];
#pragma GCC unroll 8
  for (int i = 0; i < M; ++i)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v)
      acc[i][v] = kMask ? _mm256_maskload_ps(c + i * ldc, mask)
                        : _mm256_loadu_ps(c + i * ldc + 8 * v);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    __m256 bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v)
      bv[v] = kMask ? _mm256_maskload_ps(brow, mask)
                    : _mm256_loadu_ps(brow + 8 * v);
    const float* acol = a + kk * sak;
#pragma GCC unroll 8
    for (int i = 0; i < M; ++i) {
      const __m256 av = _mm256_broadcast_ss(acol + i * sai);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v)
        acc[i][v] = _mm256_fmadd_ps(av, bv[v], acc[i][v]);
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < M; ++i)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      if constexpr (kMask)
        _mm256_maskstore_ps(c + i * ldc, mask, acc[i][v]);
      else
        _mm256_storeu_ps(c + i * ldc + 8 * v, acc[i][v]);
    }
}

// M rows of C, columns [j0, j1): the widest tile that fits the registers,
// then single vectors, then one masked tail.
template <int M>
PF_TARGET_AVX2 void rows_span(const float* a, int64_t sai, int64_t sak,
                              const float* b, int64_t ldb, float* c,
                              int64_t ldc, int64_t k, int64_t j0, int64_t j1) {
  constexpr int NV = M <= 2 ? 4 : M <= 6 ? 2 : 1;
  int64_t j = j0;
  for (; j + 8 * NV <= j1; j += 8 * NV)
    rows_tile<M, NV, false>(a, sai, sak, b + j, ldb, c + j, ldc, k, 0);
  for (; j + 8 <= j1; j += 8)
    rows_tile<M, 1, false>(a, sai, sak, b + j, ldb, c + j, ldc, k, 0);
  if (j < j1)
    rows_tile<M, 1, true>(a, sai, sak, b + j, ldb, c + j, ldc, k, j1 - j);
}

// c[m, j0..j1) += A @ b[k, j0..j1): blocks of 8 rows (6 when more than 8,
// so a tile keeps two vectors per row), then the remainder.
PF_TARGET_AVX2 void rows_gemm(const float* a, int64_t sai, int64_t sak,
                              const float* b, int64_t ldb, float* c,
                              int64_t ldc, int64_t m, int64_t k, int64_t j0,
                              int64_t j1) {
  static constexpr decltype(&rows_span<1>) span[] = {
      rows_span<1>, rows_span<2>, rows_span<3>, rows_span<4>,
      rows_span<5>, rows_span<6>, rows_span<7>, rows_span<8>};
  const int64_t step = m <= 8 ? m : 6;
  for (int64_t i0 = 0; i0 < m; i0 += step)
    span[std::min(step, m - i0) - 1](a + i0 * sai, sai, sak, b, ldb,
                                     c + i0 * ldc, ldc, k, j0, j1);
}

// In-register transpose of an 8x8 block: r[i] lane j <- r[j] lane i.
PF_TARGET_AVX2 inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Rows [0, mr) (mr <= 8) of a (m, k) operand as a (k, 8) panel: panel
// row kk holds a[0..8)[kk], rows past mr zero.
PF_TARGET_AVX2 void pack_rows8(const float* a, int64_t lda, int64_t mr,
                               int64_t k, float* p) {
  int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    __m256 r[8];
    for (int i = 0; i < 8; ++i)
      r[i] = i < mr ? _mm256_loadu_ps(a + i * lda + kk) : _mm256_setzero_ps();
    transpose8(r);
    for (int j = 0; j < 8; ++j) _mm256_storeu_ps(p + (kk + j) * 8, r[j]);
  }
  for (; kk < k; ++kk)
    for (int64_t i = 0; i < 8; ++i)
      p[kk * 8 + i] = i < mr ? a[i * lda + kk] : 0.0f;
}

// NT tile: 8 rows of C (lanes) x NJ columns (registers) over a packed A
// panel, each k step one panel load and NJ broadcasts of B = (n, k).
template <int NJ>
PF_TARGET_AVX2 void nt_tile(const float* p, const float* b, int64_t ldb,
                            float* c, int64_t ldc, int64_t mr, int64_t k) {
  alignas(32) float t[NJ * 8] = {};
  for (int64_t i = 0; i < mr; ++i)
    for (int j = 0; j < NJ; ++j) t[j * 8 + i] = c[i * ldc + j];
  __m256 acc[NJ];
#pragma GCC unroll 8
  for (int j = 0; j < NJ; ++j) acc[j] = _mm256_load_ps(t + j * 8);
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 av = _mm256_loadu_ps(p + kk * 8);
#pragma GCC unroll 8
    for (int j = 0; j < NJ; ++j)
      acc[j] = _mm256_fmadd_ps(av, _mm256_broadcast_ss(b + j * ldb + kk),
                               acc[j]);
  }
#pragma GCC unroll 8
  for (int j = 0; j < NJ; ++j) _mm256_store_ps(t + j * 8, acc[j]);
  for (int64_t i = 0; i < mr; ++i)
    for (int j = 0; j < NJ; ++j) c[i * ldc + j] = t[j * 8 + i];
}

// c[r0..r1, n] += a @ b^T: per 8-row block, pack A once, then one NT tile
// per group of up to 8 columns.
PF_TARGET_AVX2 void nt_rows(const float* a, const float* b, float* c,
                            int64_t r0, int64_t r1, int64_t k, int64_t n,
                            float* p) {
  static constexpr decltype(&nt_tile<1>) tile[] = {
      nt_tile<1>, nt_tile<2>, nt_tile<3>, nt_tile<4>,
      nt_tile<5>, nt_tile<6>, nt_tile<7>, nt_tile<8>};
  for (int64_t i0 = r0; i0 < r1; i0 += 8) {
    const int64_t mr = std::min<int64_t>(8, r1 - i0);
    pack_rows8(a + i0 * k, k, mr, k, p);
    for (int64_t j0 = 0; j0 < n; j0 += 8)
      tile[std::min<int64_t>(8, n - j0) - 1](p, b + j0 * k, k,
                                             c + i0 * n + j0, n, mr, k);
  }
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

// c[m, n] += A @ b (b (k, n) row-major) on the unpacked row kernel,
// parallel over column blocks: 32-column multiples (every tile width)
// worth ~256k multiply-adds, so the split depends on the shape only and
// never splits a tile.
void rows_parallel(const float* a, int64_t sai, int64_t sak, const float* b,
                   float* c, int64_t m, int64_t k, int64_t n) {
  const int64_t grain =
      32 * std::max<int64_t>(1, (1 << 18) / std::max<int64_t>(1, 32 * m * k));
  runtime::parallel_for(0, n, grain, [=](int64_t j0, int64_t j1) {
    rows_gemm(a, sai, sak, b, n, c, n, m, k, j0, j1);
  });
}

// Rows 8 at a time, each chunk packing its A blocks into one pooled panel.
void nt_parallel(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  const int64_t grain =
      8 * std::max<int64_t>(1, (1 << 18) / std::max<int64_t>(1, 8 * k * n));
  runtime::parallel_for(0, m, grain, [=](int64_t r0, int64_t r1) {
    Scratch panel(k * 8);
    nt_rows(a, b, c, r0, r1, k, n, panel.p);
  });
}

// Dispatch, by shape only (DESIGN.md §13): NN / TN with m <= 8 or below the
// packed cutoff run the row kernel; NT with m <= 8 or n < 8 runs the panel
// kernel, and the remaining NT with n <= 16 or below the cutoff the row
// kernel on a transposed B; the rest packs. Every path chains each element
// of C through fma in ascending k, so which one runs never changes a bit.
class Avx2Backend final : public Backend {
 public:
  const char* name() const override { return "avx2"; }

  void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) const override {
    if (m <= 8 || m * k * n < kPackedCutoff)
      return rows_parallel(a, k, 1, b, c, m, k, n);
    gemm_packed<Trans::N, Trans::N>(a, k, b, n, c, n, m, k, n);
  }

  void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) const override {
    if (m <= 8 || m * k * n < kPackedCutoff)
      return rows_parallel(a, 1, m, b, c, m, k, n);
    gemm_packed<Trans::T, Trans::N>(a, m, b, n, c, n, m, k, n);
  }

  // Accumulates into the caller-zeroed c on every path. Below the cutoff
  // with n > 16, b is transposed into pooled scratch for the row kernel.
  void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) const override {
    if (m <= 8 || n < 8) return nt_parallel(a, b, c, m, k, n);
    if (n <= 16 || m * k * n < kPackedCutoff) {
      Scratch bt(k * n);
      for (int64_t j = 0; j < n; ++j)
        for (int64_t kk = 0; kk < k; ++kk) bt.p[kk * n + j] = b[j * k + kk];
      return rows_parallel(a, k, 1, bt.p, c, m, k, n);
    }
    gemm_packed<Trans::N, Trans::T>(a, k, b, k, c, n, m, k, n);
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
