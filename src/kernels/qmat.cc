#include "kernels/qmat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "runtime/thread_pool.h"

namespace pf::kernels {

int64_t QuantizedMat::bytes() const {
  int64_t b = static_cast<int64_t>(q.size()) * sizeof(int8_t);
  b += static_cast<int64_t>(b16.size()) * sizeof(uint16_t);
  b += static_cast<int64_t>(scales.size()) * sizeof(float);
  return b;
}

QuantizedMat quantize_rows(const float* w, int64_t rows, int64_t cols,
                           QMode mode) {
  if (rows < 1 || cols < 1)
    throw std::runtime_error("quantize_rows: empty matrix");
  QuantizedMat m;
  m.mode = mode;
  m.shape = {rows, cols};
  m.rows = rows;
  m.cols = cols;
  if (mode == QMode::kBf16) {
    m.b16.resize(static_cast<size_t>(rows * cols));
    for (int64_t i = 0; i < rows * cols; ++i)
      m.b16[static_cast<size_t>(i)] = bf16_from_float(w[i]);
    return m;
  }
  m.q.resize(static_cast<size_t>(rows * cols));
  m.scales.resize(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    float amax = 0.0f;
    for (int64_t c = 0; c < cols; ++c) amax = std::max(amax, std::fabs(row[c]));
    const float scale = amax / 127.0f;
    m.scales[static_cast<size_t>(r)] = scale;
    int8_t* code = m.q.data() + r * cols;
    if (scale == 0.0f) {
      std::memset(code, 0, static_cast<size_t>(cols));
      continue;
    }
    const float inv = 1.0f / scale;
    for (int64_t c = 0; c < cols; ++c) {
      const float v = std::nearbyintf(row[c] * inv);
      code[c] = static_cast<int8_t>(std::clamp(v, -127.0f, 127.0f));
    }
  }
  return m;
}

QuantizedMat quantize_tensor(const Tensor& t, QMode mode) {
  if (t.dim() < 1 || t.numel() < 1)
    throw std::runtime_error("quantize_tensor: empty tensor");
  const int64_t rows = t.size(0);
  QuantizedMat m = quantize_rows(t.data(), rows, t.numel() / rows, mode);
  m.shape = t.shape();
  return m;
}

float dequant_at(const QuantizedMat& m, int64_t r, int64_t c) {
  const size_t idx = static_cast<size_t>(r * m.cols + c);
  if (m.mode == QMode::kBf16) return bf16_to_float(m.b16[idx]);
  return m.scales[static_cast<size_t>(r)] * static_cast<float>(m.q[idx]);
}

namespace {

// The one expansion loop behind every quantized forward: all `rows x cols`
// of `m` into `out` (row-major fp32).
void dequant_rows(const QuantizedMat& m, float* out) {
  const int64_t cols = m.cols;
  const int64_t grain = std::max<int64_t>(1, 16384 / std::max<int64_t>(1, cols));
  runtime::parallel_for(0, m.rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* d = out + r * cols;
      if (m.mode == QMode::kBf16) {
        const uint16_t* src = m.b16.data() + r * cols;
        for (int64_t c = 0; c < cols; ++c) d[c] = bf16_to_float(src[c]);
      } else {
        const float scale = m.scales[static_cast<size_t>(r)];
        const int8_t* src = m.q.data() + r * cols;
        for (int64_t c = 0; c < cols; ++c)
          d[c] = scale * static_cast<float>(src[c]);
      }
    }
  });
}

}  // namespace

Tensor dequantize(const QuantizedMat& m) {
  const bool i8 = m.mode == QMode::kInt8;
  if ((i8 && (m.q.empty() || m.scales.empty())) || (!i8 && m.b16.empty()) ||
      shape_numel(m.shape) != m.rows * m.cols)
    throw std::runtime_error("dequantize: malformed QuantizedMat");
  Tensor out = Tensor::uninit(m.shape);
  dequant_rows(m, out.data());
  return out;
}

}  // namespace pf::kernels
