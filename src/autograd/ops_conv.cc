// Convolution and pooling. Convolution is computed with im2col + GEMM over
// cache-sized chunks of samples (tensor/im2col.h: for_each_conv_chunk), so
// one GEMM spans many images; the backward pass re-lowers each chunk instead
// of caching the columns (cheap relative to the GEMMs, and it keeps peak
// memory at one chunk's column matrix).
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "autograd/ops.h"
#include "tensor/matmul.h"
#include "trace/trace.h"

namespace pf::ag {

namespace {

void check(bool cond, const char* msg) {
  if (!cond) throw std::runtime_error(msg);
}

}  // namespace

Var conv2d(const Var& x, const Var& w, int64_t stride, int64_t pad) {
  check(x->value.dim() == 4 && w->value.dim() == 4, "conv2d: 4-D x and w");
  const int64_t n = x->value.size(0), c_in = x->value.size(1),
                h = x->value.size(2), wd = x->value.size(3);
  const int64_t c_out = w->value.size(0), k = w->value.size(2);
  check(w->value.size(1) == c_in, "conv2d: channel mismatch");
  check(w->value.size(3) == k, "conv2d: square kernels only");

  const ConvGeom g{c_in, h, wd, k, stride, pad};
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t spatial = oh * ow, patch = g.patch();

  Tensor out = Tensor::uninit(Shape{n, c_out, oh, ow});
  // Weight viewed as (c_out, patch): PyTorch layout (c_out, c_in, k, k)
  // flattens to exactly that row-major 2-D view.
  const Tensor& xv = x->value;  // const reads: no COW unshare of shard views
  const Tensor& wv = w->value;
  float* outp = out.data();
  // Per chunk: Y (c_out, b*spatial) = W (c_out, patch) @ col, then scatter
  // Y's per-sample column blocks back to NCHW.
  for_each_conv_chunk(
      xv.data(), g, n, true, [&](int64_t i0, int64_t b, const Tensor& col) {
        Tensor y(Shape{c_out, b * spatial});  // zero-filled: matmul_accum +=
        matmul_accum(wv.data(), col.data(), y.data(), c_out, patch,
                     b * spatial);
        chunk_to_nchw(std::as_const(y).data(), c_out, b, spatial,
                      outp + i0 * c_out * spatial);
      });

  return make_node(std::move(out), {x, w}, [g](Node& nd) {
    const Var& x = nd.inputs[0];
    const Var& w = nd.inputs[1];
    const Tensor& xv = x->value;
    const Tensor& gr = nd.grad;
    const int64_t n = xv.size(0);
    const int64_t c_out = w->value.size(0);
    const int64_t spatial = g.out_h() * g.out_w(), patch = g.patch();
    const bool need_dw = w->requires_grad, need_dx = x->requires_grad;

    Tensor dwt = need_dw ? Tensor(Shape{patch, c_out}) : Tensor();
    Tensor dx = need_dx ? Tensor(x->shape()) : Tensor();
    float* dxp = need_dx ? dx.data() : nullptr;
    const Tensor w2d = w->value.reshape(Shape{c_out, patch});
    for_each_conv_chunk(
        xv.data(), g, n, need_dw,
        [&](int64_t i0, int64_t b, const Tensor& col) {
          // The chunk's dY in the forward GEMM's (c_out, b*spatial) layout.
          Tensor dy = Tensor::uninit(Shape{c_out, b * spatial});
          nchw_to_chunk(gr.data() + i0 * c_out * spatial, c_out, b, spatial,
                        dy.data());
          // dW^T (patch, c_out) += col @ dY^T: the same dot products as
          // dY @ col^T, bit for bit, but the deep operand packs as
          // contiguous A panels (DESIGN.md §13).
          if (need_dw) dwt.add_(pf::matmul_nt(col, dy));
          if (need_dx) {
            // dcol = W^T (patch, c_out) @ dY (c_out, b*spatial).
            const Tensor dcol = pf::matmul_tn(w2d, dy);
            col2im(dcol.data(), g, dxp + i0 * g.c_in * g.h * g.w, b);
          }
        });
    if (need_dw) w->accumulate(dwt.t().reshape(w->shape()));
    if (need_dx) x->accumulate(dx);
  });
}

Var lowrank_conv2d(const Var& x, const Var& u, const Var& v, int64_t stride,
                   int64_t pad) {
  check(!(grad_enabled() &&
          (x->requires_grad || u->requires_grad || v->requires_grad)),
        "lowrank_conv2d: tape-free forward only (train via two conv2d nodes)");
  check(x->value.dim() == 4 && u->value.dim() == 4 && v->value.dim() == 4,
        "lowrank_conv2d: 4-D x, u, v");
  const int64_t n = x->value.size(0), c_in = x->value.size(1),
                h = x->value.size(2), wd = x->value.size(3);
  const int64_t r = u->value.size(0), k = u->value.size(2);
  const int64_t c_out = v->value.size(0);
  check(u->value.size(1) == c_in, "lowrank_conv2d: channel mismatch");
  check(u->value.size(3) == k, "lowrank_conv2d: square kernels only");
  check(v->value.size(1) == r && v->value.size(2) == 1 && v->value.size(3) == 1,
        "lowrank_conv2d: v must be (c_out, r, 1, 1)");

  const ConvGeom g{c_in, h, wd, k, stride, pad};
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t spatial = oh * ow, patch = g.patch();
  PF_TRACE_SCOPE_C("lowrank_conv", n * spatial * r * (patch + c_out));

  Tensor out = Tensor::uninit(Shape{n, c_out, oh, ow});
  const Tensor& xv = x->value;  // const reads: no COW unshare
  const Tensor& uv = u->value;
  const Tensor& vv = v->value;
  float* outp = out.data();
  // Per chunk: U (r, patch) @ col into a rank-width `mid`, then
  // V (c_out, r) @ mid. The unfused path ran a second conv2d whose 1x1
  // im2col is an identity copy of the whole (n, r, oh, ow) intermediate;
  // here `mid` is one chunk wide and feeds the second GEMM directly, so bits
  // match the two-conv composition per backend while skipping the copy and
  // the big allocation.
  for_each_conv_chunk(
      xv.data(), g, n, true, [&](int64_t i0, int64_t b, const Tensor& col) {
        Tensor mid(Shape{r, b * spatial});  // zero-filled: matmul_accum +=
        Tensor y(Shape{c_out, b * spatial});
        matmul_accum(uv.data(), col.data(), mid.data(), r, patch, b * spatial);
        matmul_accum(vv.data(), std::as_const(mid).data(), y.data(), c_out, r,
                     b * spatial);
        chunk_to_nchw(std::as_const(y).data(), c_out, b, spatial,
                      outp + i0 * c_out * spatial);
      });
  return make_node(std::move(out), {x, u, v}, nullptr);
}

Var maxpool2d(const Var& x, int64_t kernel, int64_t stride) {
  check(x->value.dim() == 4, "maxpool2d: 4-D input");
  const int64_t n = x->value.size(0), c = x->value.size(1),
                h = x->value.size(2), w = x->value.size(3);
  const int64_t oh = (h - kernel) / stride + 1, ow = (w - kernel) / stride + 1;
  Tensor out(Shape{n, c, oh, ow});
  // Flat index of each selected max, for the backward scatter.
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(n * c * oh * ow));
  const Tensor& xv = x->value;  // const read: no COW unshare
  const float* src = xv.data();
  float* dst = out.data();
  int64_t oi = 0;
  for (int64_t i = 0; i < n; ++i)
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = src + (i * c + ch) * h * w;
      const int64_t base = (i * c + ch) * h * w;
      for (int64_t oy = 0; oy < oh; ++oy)
        for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = -1;
          for (int64_t ky = 0; ky < kernel; ++ky)
            for (int64_t kx = 0; kx < kernel; ++kx) {
              const int64_t iy = oy * stride + ky, ix = ox * stride + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = base + iy * w + ix;
              }
            }
          dst[oi] = best;
          (*argmax)[static_cast<size_t>(oi)] = best_idx;
        }
    }

  return make_node(std::move(out), {x}, [argmax](Node& nd) {
    const Var& x = nd.inputs[0];
    if (!x->requires_grad) return;
    Tensor dx(x->shape());
    float* dxp = dx.data();
    const Tensor& gr = nd.grad;
    const float* gp = gr.data();
    for (int64_t i = 0; i < gr.numel(); ++i)
      dxp[(*argmax)[static_cast<size_t>(i)]] += gp[i];
    x->accumulate(dx);
  });
}

Var global_avgpool(const Var& x) {
  check(x->value.dim() == 4, "global_avgpool: 4-D input");
  const int64_t n = x->value.size(0), c = x->value.size(1),
                h = x->value.size(2), w = x->value.size(3);
  const int64_t hw = h * w;
  Tensor out = Tensor::uninit(Shape{n, c});
  const Tensor& xv = x->value;  // const read: no COW unshare
  const float* src = xv.data();
  float* dst = out.data();
  for (int64_t i = 0; i < n * c; ++i) {
    const float* plane = src + i * hw;
    double acc = 0;
    for (int64_t j = 0; j < hw; ++j) acc += plane[j];
    dst[i] = static_cast<float>(acc / static_cast<double>(hw));
  }
  return make_node(std::move(out), {x}, [hw](Node& nd) {
    const Var& x = nd.inputs[0];
    if (!x->requires_grad) return;
    Tensor dx = Tensor::uninit(x->shape());
    float* dxp = dx.data();
    const Tensor& gr = nd.grad;
    const float* gp = gr.data();
    const float inv = 1.0f / static_cast<float>(hw);
    for (int64_t i = 0; i < gr.numel(); ++i) {
      float* plane = dxp + i * hw;
      const float g = gp[i] * inv;
      for (int64_t j = 0; j < hw; ++j) plane[j] = g;
    }
    x->accumulate(dx);
  });
}

Var avgpool2d(const Var& x, int64_t kernel, int64_t stride) {
  check(x->value.dim() == 4, "avgpool2d: 4-D input");
  const int64_t n = x->value.size(0), c = x->value.size(1),
                h = x->value.size(2), w = x->value.size(3);
  const int64_t oh = (h - kernel) / stride + 1, ow = (w - kernel) / stride + 1;
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  Tensor out = Tensor::uninit(Shape{n, c, oh, ow});
  const Tensor& xv = x->value;  // const read: no COW unshare
  const float* src = xv.data();
  float* dst = out.data();
  int64_t oi = 0;
  for (int64_t i = 0; i < n * c; ++i) {
    const float* plane = src + i * h * w;
    for (int64_t oy = 0; oy < oh; ++oy)
      for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
        double acc = 0;
        for (int64_t ky = 0; ky < kernel; ++ky)
          for (int64_t kx = 0; kx < kernel; ++kx)
            acc += plane[(oy * stride + ky) * w + ox * stride + kx];
        dst[oi] = static_cast<float>(acc) * inv;
      }
  }
  return make_node(std::move(out), {x}, [kernel, stride, inv](Node& nd) {
    const Var& x = nd.inputs[0];
    if (!x->requires_grad) return;
    const int64_t n = x->value.size(0), c = x->value.size(1),
                  h = x->value.size(2), w = x->value.size(3);
    const int64_t oh = nd.value.size(2), ow = nd.value.size(3);
    Tensor dx(x->shape());
    float* dxp = dx.data();
    const Tensor& gr = nd.grad;
    const float* gp = gr.data();
    int64_t oi = 0;
    for (int64_t i = 0; i < n * c; ++i) {
      float* plane = dxp + i * h * w;
      for (int64_t oy = 0; oy < oh; ++oy)
        for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
          const float g = gp[oi] * inv;
          for (int64_t ky = 0; ky < kernel; ++ky)
            for (int64_t kx = 0; kx < kernel; ++kx)
              plane[(oy * stride + ky) * w + ox * stride + kx] += g;
        }
    }
    x->accumulate(dx);
  });
}

}  // namespace pf::ag
