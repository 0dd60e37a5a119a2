#include "kernels/qmat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "runtime/buffer_pool.h"
#include "trace/trace.h"

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
  return quantize_rows(t.data(), rows, t.numel() / rows, mode);
}

float dequant_at(const QuantizedMat& m, int64_t r, int64_t c) {
  const size_t idx = static_cast<size_t>(r * m.cols + c);
  if (m.mode == QMode::kBf16) return bf16_to_float(m.b16[idx]);
  return m.scales[static_cast<size_t>(r)] * static_cast<float>(m.q[idx]);
}

namespace {

void check_view(const QuantizedMat& m, const char* who) {
  const bool i8 = m.mode == QMode::kInt8;
  if ((i8 && (m.q.empty() || m.scales.empty())) || (!i8 && m.b16.empty()))
    throw std::runtime_error(std::string(who) + ": malformed QuantizedMat");
}

}  // namespace

Tensor dequantize(const QuantizedMat& m) {
  check_view(m, "dequantize");
  Tensor out = Tensor::uninit(Shape{m.rows, m.cols});
  dequant_rows(m.view(), m.rows, m.cols, out.data());
  return out;
}

Tensor qmatmul_nt(const Tensor& x, const QuantizedMat& w) {
  if (x.dim() != 2) throw std::runtime_error("qmatmul_nt: 2-D x required");
  if (x.size(1) != w.cols)
    throw std::runtime_error("qmatmul_nt: x/w inner-dim mismatch");
  check_view(w, "qmatmul_nt");
  const int64_t m = x.size(0), k = x.size(1), n = w.rows;
  PF_TRACE_SCOPE_C("qmatmul_nt", m * k * n);
  Tensor y(Shape{m, n});  // zero-filled: gemm_nt_q contract
  active().gemm_nt_q(x.data(), w.view(), y.data(), m, k, n);
  return y;
}

Tensor qlowrank_matmul(const Tensor& x, const QuantizedMat& vt,
                       const QuantizedMat& u) {
  if (x.dim() != 2) throw std::runtime_error("qlowrank_matmul: 2-D x");
  if (x.size(1) != vt.cols)
    throw std::runtime_error("qlowrank_matmul: x/v mismatch");
  if (u.cols != vt.rows)
    throw std::runtime_error("qlowrank_matmul: v/u rank mismatch");
  check_view(vt, "qlowrank_matmul");
  check_view(u, "qlowrank_matmul");
  const int64_t m = x.size(0), in = x.size(1), r = vt.rows, out = u.rows;
  PF_TRACE_SCOPE_C("qlowrank", m * r * (in + out));
  const Backend& be = active();
  Tensor y(Shape{m, out});
  int64_t cap = 0;
  float* t = runtime::BufferPool::instance().acquire(m * r, &cap);
  std::memset(t, 0, static_cast<size_t>(m * r) * sizeof(float));
  be.gemm_nt_q(x.data(), vt.view(), t, m, in, r);
  be.gemm_nt_q(t, u.view(), y.data(), m, r, out);
  runtime::BufferPool::instance().release(t, cap);
  return y;
}

}  // namespace pf::kernels
