// Quantized weight matrices for the serving path.
//
// Post-training, weights-only quantization (DESIGN.md §14): a frozen
// engine's large weight tensors are stored either as per-row symmetric int8
// (scale_r = max|W[r,:]| / 127, one fp32 scale per output row) or as bf16
// (the upper 16 bits of the fp32 pattern, round-to-nearest-even). Rows are
// always the *non-contracted* axis of the serving GEMM the matrix feeds, so
// the per-row scale factors out of every dot product. Two ways serve the
// whole engine zoo:
//
//  * gemm_nt_q (Backend): c[m,n] (+)= a[m,k] @ qb[n,k]^T -- the
//    Linear / LowRankLinear GEMMs (W, U, and V stored transposed as
//    (r, in)). The default dequantizes into pooled scratch
//    and calls the backend's own float GEMM; the AVX2 backend overrides it
//    with a fused variant that dequantizes inside the operand packing
//    (backend_avx2.cc), bitwise identical to its own default.
//  * dequantize-then-run: a quantized conv (dense W as (c_out, patch),
//    low-rank U (r, patch) and V (c_out, r)) or LSTM layer dequantizes its
//    weights once per forward and runs the fp32 layer (nn/layers.cc,
//    nn/lstm.cc), so it is the fp32 layer on the dequantized weights, bit
//    for bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/kernels.h"
#include "tensor/tensor.h"

namespace pf::kernels {

// One quantized 2-D weight: `rows` is the per-scale (non-contracted) axis.
struct QuantizedMat {
  QMode mode = QMode::kInt8;
  int64_t rows = 0, cols = 0;
  std::vector<int8_t> q;        // int8 codes, rows*cols (mode kInt8)
  std::vector<uint16_t> b16;    // bf16 patterns, rows*cols (mode kBf16)
  std::vector<float> scales;    // per-row scales, size rows (mode kInt8)

  // Resident bytes of the quantized representation (codes + scales).
  int64_t bytes() const;
  QView view() const {
    return QView{q.empty() ? nullptr : q.data(),
                 b16.empty() ? nullptr : b16.data(),
                 scales.empty() ? nullptr : scales.data()};
  }
};

// Round a float to the nearest-even bf16 bit pattern / expand it back.
inline uint16_t bf16_from_float(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  // Round to nearest, ties to even on the truncated mantissa half.
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<uint16_t>(u >> 16);
}
inline float bf16_to_float(uint16_t h) {
  const uint32_t u = static_cast<uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Quantize `rows x cols` floats at `w` (row-major). Int8 is per-row
// symmetric: scale_r = max|row| / 127 (scale 0 for an all-zero row), code =
// round(w / scale) clamped to [-127, 127].
QuantizedMat quantize_rows(const float* w, int64_t rows, int64_t cols,
                           QMode mode);
// Tensor convenience: any shape, viewed as (size(0), numel/size(0)).
QuantizedMat quantize_tensor(const Tensor& t, QMode mode);

// Exact dequantized value of element (r, c) -- the per-element reference
// the dequantizing paths must reproduce bit-for-bit.
float dequant_at(const QuantizedMat& m, int64_t r, int64_t c);
// Materialize the full fp32 matrix (rows, cols) in a pooled tensor
// (dequant_rows: parallel over rows).
Tensor dequantize(const QuantizedMat& m);

// ---- Tensor-level quantized forwards (serving fast paths) ----

// y[m, rows] = x[m, k] @ W^T with W quantized as (rows, k).
Tensor qmatmul_nt(const Tensor& x, const QuantizedMat& w);

// Fused low-rank forward with both factors quantized: vt is V^T stored
// (r, in) with per-r scales, u is U stored (out, r) with per-out scales.
// y = (x @ vt^T) @ u^T, one pooled (m, r) scratch between the two GEMMs.
Tensor qlowrank_matmul(const Tensor& x, const QuantizedMat& vt,
                       const QuantizedMat& u);

}  // namespace pf::kernels
