// Quantized weight matrices: quantization as a storage format.
//
// Post-training, weights-only quantization (DESIGN.md §14): a frozen
// engine's large weight tensors are stored either as per-row symmetric int8
// (scale_r = max|W[r,:]| / 127, one fp32 scale per output row) or as bf16
// (the upper 16 bits of the fp32 pattern, round-to-nearest-even). A
// QuantizedMat keeps the weight's own shape, and rows are always its dim 0
// (a Linear's out, a conv's c_out, a factor's leading axis), viewed as
// (rows, numel / rows). No kernel reads this format: a quantized weight
// (nn::Weight::read) is expanded with dequantize() once per forward and the
// layer runs its fp32 op, so it is the fp32 layer on the dequantized
// weights, bit for bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/tensor.h"

namespace pf::kernels {

// Weight quantization modes.
enum class QMode : uint8_t { kInt8 = 0, kBf16 = 1 };

// One quantized weight of shape `shape`, stored as the (rows, cols) matrix
// rows = shape[0], cols = numel / rows; `rows` is the per-scale axis.
struct QuantizedMat {
  QMode mode = QMode::kInt8;
  Shape shape;
  int64_t rows = 0, cols = 0;
  std::vector<int8_t> q;        // int8 codes, rows*cols (mode kInt8)
  std::vector<uint16_t> b16;    // bf16 patterns, rows*cols (mode kBf16)
  std::vector<float> scales;    // per-row scales, size rows (mode kInt8)

  // Resident bytes of the quantized representation (codes + scales).
  int64_t bytes() const;
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
// Any shape, viewed as (size(0), numel/size(0)); keeps t's shape.
QuantizedMat quantize_tensor(const Tensor& t, QMode mode);

// Exact dequantized value of element (r, c) -- the per-element reference
// dequantize must reproduce bit-for-bit.
float dequant_at(const QuantizedMat& m, int64_t r, int64_t c);
// Materialize the fp32 weight, in its own shape, in a pooled tensor.
// Parallel over rows and elementwise, so bitwise-stable across PF_THREADS.
Tensor dequantize(const QuantizedMat& m);

}  // namespace pf::kernels
