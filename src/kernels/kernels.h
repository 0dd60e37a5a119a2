// Pluggable kernel backends with runtime dispatch.
//
// Every heavy-math entry point in the repo (matmul/bmm wrappers, im2col
// convolution lowering, the fused low-rank forward) bottoms out in a
// pf::kernels::Backend, which holds only float GEMMs and conv lowering.
// Quantized weights add no entry point: a quantized layer dequantizes its
// weights (kernels/qmat.h) and runs the fp32 op. Two backends exist:
//
//  * "scalar" -- the reference backend: the seed triple-loop kernels,
//    bit-for-bit. Golden values, convergence gates, and cross-run
//    reproducibility are defined against it.
//  * "avx2"   -- AVX2+FMA GEMMs (backend_avx2.cc): a cache-blocked,
//    operand-packing 6x16 tile kernel for wide products, and unpacked
//    register kernels for thin ones (NN / TN with m <= 8, NT with
//    n <= 16 or m <= 8) and for products below the packed cutoff.
//    The path depends on the shape only, and every path chains each
//    element of C through fma in ascending k, so all give the same bits
//    (DESIGN.md §13). Only registered when the compiler can target AVX2
//    *and* the host CPU reports avx2+fma at runtime.
//
// Selection: PF_BACKEND=scalar|avx2|auto (default auto = avx2 when
// available, else scalar), read once on first use; set_backend() overrides
// at any point. Determinism contract, in tiers:
//  * within a backend, results are bitwise identical across PF_THREADS --
//    mandatory, tested;
//  * across backends, results agree to a per-op ulp tolerance (different
//    accumulation orders), gated by the kernels_test tolerance tier.
#pragma once

#include <cstdint>

#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace pf::kernels {

// A kernel implementation. GEMM methods take tightly-packed row-major
// operands (lda == k etc.); they parallelize internally over output rows via
// runtime::parallel_for, so callers invoke them once per logical GEMM, not
// once per row chunk.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual const char* name() const = 0;

  // c[m,n] += a[m,k] @ b[k,n].
  virtual void gemm_nn(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) const = 0;
  // c[m,n] += a[k,m]^T @ b[k,n].
  virtual void gemm_tn(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) const = 0;
  // c[m,n] <- a[m,k] @ b[n,k]^T over a zero-filled c. The scalar backend
  // overwrites c (seed semantics, preserving +0/-0 bits); the avx2 backend
  // accumulates, in the same per-element order at every m. Callers must
  // pass a zeroed c.
  virtual void gemm_nt(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) const = 0;

  // Convolution lowering of `nb` consecutive images into / out of one
  // (patch, nb*out_h*out_w) column matrix; the single-image lowering is
  // nb = 1. The defaults (kernels.cc) are portable loops, compiled per
  // output width and, at stride 1, for the stride, so those rows
  // vectorize; both backends use them. Layout and zero-padding semantics
  // are fixed by tensor/im2col.h.
  virtual void im2col(const float* img, const ConvGeom& g, int64_t nb,
                      float* col) const;
  virtual void col2im(const float* col, const ConvGeom& g, int64_t nb,
                      float* img) const;
};

// The active backend (resolves PF_BACKEND on first call; thread-safe).
const Backend& active();
const char* backend_name();  // == active().name()

// Select a backend by name: "scalar", "avx2", or "auto". Returns false (and
// leaves the active backend unchanged) when the request names an unknown or
// unavailable backend. Intended for tests, benches, and calibration; not
// synchronized against concurrently running kernels.
bool set_backend(const char* name);

// Compile-time / runtime AVX2 availability, split so tests can
// skip-with-message precisely.
bool avx2_compiled();   // translation units carry the AVX2 microkernel
bool avx2_supported();  // ...and this CPU can execute it

// Fused low-rank forward: y[m,out] = (x[m,in] @ v[in,r]) @ u[out,r]^T,
// computed in row blocks so the (rows, r) intermediate stays cache-resident
// instead of materializing a full (m, r) tensor. When `t_out` is non-null
// the intermediate IS materialized there (shape (m, r)) for the backward
// pass; the fused path is then purely a fusion of the two kernel launches.
// Bitwise-identical to matmul(x, v) followed by matmul_nt(t, u) under the
// scalar backend (row-independent chunking, same per-element orders).
Tensor lowrank_matmul(const Tensor& x, const Tensor& v, const Tensor& u,
                      Tensor* t_out = nullptr);

namespace detail {
// Defined in backend_scalar.cc / backend_avx2.cc. avx2_backend_or_null()
// returns nullptr when the microkernel was compiled out or the CPU lacks
// avx2/fma.
const Backend* scalar_backend_ptr();
const Backend* avx2_backend_or_null();
bool avx2_compiled_in();
}  // namespace detail

}  // namespace pf::kernels
