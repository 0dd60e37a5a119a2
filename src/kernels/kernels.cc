#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/buffer_pool.h"
#include "runtime/thread_pool.h"
#include "trace/trace.h"

namespace pf::kernels {

namespace {

// Column rows per parallel chunk: each row is `cols` floats, so target a
// few KB of writes per chunk to keep dispatch overhead off small convs.
int64_t col_row_grain(int64_t cols) {
  return std::max<int64_t>(1, 8192 / std::max<int64_t>(1, cols));
}

// One channel's nb image planes as the tap loops walk them: planes `ps`
// floats apart, rows `ld` apart. With padding they are zero-bordered
// copies, so every kernel tap reads in bounds and the loops carry no
// bounds checks: tap (ki, kj) of output (oy, ox) sits at
// (oy*stride + ki) * ld + ox*stride + kj of its plane.
struct TapGeom {
  int64_t nb, ps, ld, oh, ow, stride;
};

// Walks one kernel tap's window over the nb planes (`plane` points at the
// tap's offset in plane 0) alongside the tap's column-matrix row `col`,
// calling op(plane element, column element) in column order. W > 0 fixes
// the window width and S > 0 the stride at compile time: with the stride
// known, a stride-1 row is a contiguous copy GCC vectorizes (a runtime
// stride left it element by element), and the 2- to 16-wide outputs of
// late ResNet stages unroll instead of paying a loop prologue per row.
template <int64_t W, int64_t S, class P, class C, class Op>
void tap_rows_w(P* plane, C* col, const TapGeom& t, Op op) {
  const int64_t ow = W > 0 ? W : t.ow, stride = S > 0 ? S : t.stride;
  for (int64_t s = 0; s < t.nb; ++s)
    for (int64_t oy = 0; oy < t.oh; ++oy, col += ow) {
      P* __restrict src = plane + s * t.ps + oy * stride * t.ld;
      C* __restrict dst = col;
      for (int64_t ox = 0; ox < ow; ++ox) op(src[ox * stride], dst[ox]);
    }
}

// Only stride 1 is compiled in; other strides keep the runtime loop, and
// so do 2-wide rows at stride 1: told the stride, GCC vectorizes across
// rows instead, which measured slower at 2x2 outputs.
template <int64_t W, class P, class C, class Op>
void tap_rows_s(P* plane, C* col, const TapGeom& t, Op op) {
  if (t.stride == 1 && W != 2) return tap_rows_w<W, 1>(plane, col, t, op);
  tap_rows_w<W, 0>(plane, col, t, op);
}

template <class P, class C, class Op>
void tap_rows(P* plane, C* col, const TapGeom& t, Op op) {
  switch (t.ow) {
    case 2: return tap_rows_s<2>(plane, col, t, op);
    case 4: return tap_rows_s<4>(plane, col, t, op);
    case 8: return tap_rows_s<8>(plane, col, t, op);
    case 16: return tap_rows_s<16>(plane, col, t, op);
    default: return tap_rows_s<0>(plane, col, t, op);
  }
}

// The walk geometry for g: bordered planes with padding, else the image
// planes in place (a whole image apart).
TapGeom tap_geom(const ConvGeom& g, int64_t nb) {
  const int64_t ld = g.w + 2 * g.pad;
  const int64_t ps = g.pad > 0 ? (g.h + 2 * g.pad) * ld : g.c_in * g.h * g.w;
  return TapGeom{nb, ps, ld, g.out_h(), g.out_w(), g.stride};
}

}  // namespace

// Default (scalar, seed-identical) convolution lowering; the pf::im2col /
// pf::col2im wrappers keep the trace spans so per-op flop accounting is
// backend-independent.
void Backend::im2col(const float* img, const ConvGeom& g, int64_t nb,
                     float* col) const {
  const int64_t k = g.kernel;
  const int64_t ld = nb * g.out_h() * g.out_w();
  const int64_t plane = g.h * g.w, img_stride = g.c_in * plane;
  // Column layout: row index = (c*k + ki)*k + kj, col index =
  // s*spatial + oy*ow + ox for sample s of the chunk. The parallel split is
  // over channels, i.e. blocks of k*k column rows; every row is written by
  // exactly one chunk, so it is race-free and bit-identical to the serial
  // walk.
  const int64_t grain =
      std::max<int64_t>(1, col_row_grain(ld) / std::max<int64_t>(1, k * k));
  runtime::parallel_for(0, g.c_in, grain, [=](int64_t c0, int64_t c1) {
    const TapGeom t = tap_geom(g, nb);
    std::vector<float> buf(g.pad > 0 ? nb * t.ps : 0);  // borders stay zero
    for (int64_t c = c0; c < c1; ++c) {
      const float* planes = img + c * plane;
      if (g.pad > 0) {
        for (int64_t s = 0; s < nb; ++s) {
          const float* src = planes + s * img_stride;
          float* dst = buf.data() + s * t.ps + g.pad * t.ld + g.pad;
          for (int64_t y = 0; y < g.h; ++y)
            for (int64_t x = 0; x < g.w; ++x)
              dst[y * t.ld + x] = src[y * g.w + x];
        }
        planes = buf.data();
      }
      for (int64_t ki = 0; ki < k; ++ki)
        for (int64_t kj = 0; kj < k; ++kj)
          tap_rows(planes + ki * t.ld + kj, col + ((c * k + ki) * k + kj) * ld,
                   t, [](const float& p, float& v) { v = p; });
    }
  });
}

void Backend::col2im(const float* col, const ConvGeom& g, int64_t nb,
                     float* img) const {
  const int64_t k = g.kernel;
  const int64_t ld = nb * g.out_h() * g.out_w();
  const int64_t plane = g.h * g.w, img_stride = g.c_in * plane;
  // Scatter-add: all (ki, kj) rows of one channel accumulate into the same
  // image planes, so the parallel split is over channels only -- planes
  // are disjoint and each keeps the serial accumulation order: per pixel,
  // taps add in ascending (ki, kj), each at most once. With padding the
  // sums build in zeroed bordered planes and are then added onto the
  // (caller-zeroed) images, so every pixel is the same sum.
  runtime::parallel_for(0, g.c_in, 1, [=](int64_t c0, int64_t c1) {
    const TapGeom t = tap_geom(g, nb);
    std::vector<float> buf(g.pad > 0 ? nb * t.ps : 0);
    for (int64_t c = c0; c < c1; ++c) {
      float* planes = img + c * plane;
      if (g.pad > 0) {
        std::fill(buf.begin(), buf.end(), 0.0f);
        planes = buf.data();
      }
      for (int64_t ki = 0; ki < k; ++ki)
        for (int64_t kj = 0; kj < k; ++kj)
          tap_rows(planes + ki * t.ld + kj, col + ((c * k + ki) * k + kj) * ld,
                   t, [](float& p, const float& v) { p += v; });
      if (g.pad > 0) {
        for (int64_t s = 0; s < nb; ++s) {
          const float* src = buf.data() + s * t.ps + g.pad * t.ld + g.pad;
          float* dst = img + c * plane + s * img_stride;
          for (int64_t y = 0; y < g.h; ++y)
            for (int64_t x = 0; x < g.w; ++x)
              dst[y * g.w + x] += src[y * t.ld + x];
        }
      }
    }
  });
}

namespace {

std::atomic<const Backend*> g_active{nullptr};

const Backend* resolve(const std::string& req) {
  if (req == "scalar") return detail::scalar_backend_ptr();
  if (req == "avx2") return detail::avx2_backend_or_null();
  if (req == "auto" || req.empty()) {
    const Backend* v = detail::avx2_backend_or_null();
    return v ? v : detail::scalar_backend_ptr();
  }
  return nullptr;
}

const Backend* init_from_env() {
  const char* s = std::getenv("PF_BACKEND");
  const std::string req = s ? s : "auto";
  const Backend* b = resolve(req);
  if (!b) {
    std::fprintf(stderr,
                 "[pf::kernels] PF_BACKEND=%s unknown or unavailable on this "
                 "host; falling back to scalar\n",
                 req.c_str());
    b = detail::scalar_backend_ptr();
  }
  return b;
}

}  // namespace

const Backend& active() {
  const Backend* b = g_active.load(std::memory_order_acquire);
  if (!b) {
    // init_from_env() is idempotent, so a first-use race just stores the
    // same pointer twice.
    b = init_from_env();
    const Backend* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, b,
                                          std::memory_order_acq_rel))
      b = expected;
  }
  return *b;
}

const char* backend_name() { return active().name(); }

bool set_backend(const char* name) {
  const Backend* b = resolve(name ? name : "auto");
  if (!b) return false;
  g_active.store(b, std::memory_order_release);
  return true;
}

bool avx2_compiled() { return detail::avx2_compiled_in(); }
bool avx2_supported() { return detail::avx2_backend_or_null() != nullptr; }

Tensor lowrank_matmul(const Tensor& x, const Tensor& v, const Tensor& u,
                      Tensor* t_out) {
  if (x.dim() != 2 || v.dim() != 2 || u.dim() != 2)
    throw std::runtime_error("lowrank_matmul: 2-D tensors required");
  const int64_t m = x.size(0), in = x.size(1);
  const int64_t r = v.size(1), out = u.size(0);
  if (v.size(0) != in) throw std::runtime_error("lowrank_matmul: x/v mismatch");
  if (u.size(1) != r) throw std::runtime_error("lowrank_matmul: v/u mismatch");
  PF_TRACE_SCOPE_C("lowrank", m * r * (in + out));
  Tensor y(Shape{m, out});
  if (t_out) *t_out = Tensor(Shape{m, r});
  const Backend& be = active();
  const float* xd = x.data();
  const float* vd = v.data();
  const float* ud = u.data();
  float* yd = y.data();
  // Two whole-matrix backend calls sharing one rank-width scratch. An
  // earlier version row-blocked the chain to keep the (rows, r) slice
  // cache-resident, but that made the packed avx2 backend re-pack v and u
  // once per block, costing more than the locality bought (0.8x vs two-op
  // at m=512); whole-matrix calls pack each operand once and let the
  // backend's internal parallel_for do the partitioning. Per-element
  // accumulation order is row-partition-invariant in both backends, so
  // this is bitwise-identical to the row-blocked form and to the unfused
  // two-op sequence per backend.
  float* scratch = nullptr;
  int64_t cap = 0;
  float* t;
  if (t_out) {
    t = t_out->data();  // Tensor(Shape) zero-fills
  } else {
    scratch = runtime::BufferPool::instance().acquire(m * r, &cap);
    std::memset(scratch, 0, static_cast<size_t>(m * r) * sizeof(float));
    t = scratch;
  }
  be.gemm_nn(xd, vd, t, m, in, r);
  be.gemm_nt(t, ud, yd, m, r, out);
  if (scratch) runtime::BufferPool::instance().release(scratch, cap);
  return y;
}

}  // namespace pf::kernels
