// Convolution and pooling. conv2d and lowrank_conv2d are one node: im2col +
// GEMM over cache-sized chunks of samples (tensor/im2col.h:
// for_each_conv_chunk), so one GEMM spans many images. The backward pass
// re-lowers each chunk instead of caching the columns (cheap relative to the
// GEMMs, and it keeps peak memory at one chunk's column matrix).
#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "autograd/ops.h"
#include "tensor/matmul.h"
#include "trace/trace.h"

namespace pf::ag {

namespace {

void check(bool cond, const char* op, const char* what) {
  if (!cond) throw std::runtime_error(std::string(op) + ": " + what);
}

// The checked geometry of a k x k window (conv or pool) over 4-D x. A window
// wider than the padded plane would still get one output from the
// truncating (h - k) / s + 1 and read past the plane, so it throws; with the
// window fitting and stride >= 1, every output dim is >= 1.
ConvGeom window_geom(const char* op, const Tensor& x, int64_t k,
                     int64_t stride, int64_t pad) {
  check(x.dim() == 4, op, "4-D input");
  const ConvGeom g{x.size(1), x.size(2), x.size(3), k, stride, pad};
  check(k >= 1 && stride >= 1 && pad >= 0 && std::min(g.h, g.w) + 2 * pad >= k,
        op, "window larger than the padded input, or stride < 1");
  return g;
}

// The one conv node: y = conv(x, w), or, given v (c_out, r, 1, 1), the
// factorized y = 1x1 conv(conv(x, w), v) without ever building the
// (N, r, oh, ow) intermediate. Per chunk, forward runs Y = W col, then
// Y = V Y when factorized, keeping the rank-width pre-V Y ("mid") only when
// taped. Backward gathers dY per chunk; when factorized dV^T += mid dY^T,
// then dY = V^T dY; then dW^T += col dY^T and dX = col2im(W^T dY). So dV is
// summed per chunk of the k x k lowering, in chunk order.
Var conv_node(const char* op, const Var& x, const Var& w, const Var& v,
              int64_t stride, int64_t pad) {
  check(w->value.dim() == 4, op, "4-D weight");
  const int64_t k = w->value.size(2);
  const ConvGeom g = window_geom(op, x->value, k, stride, pad);
  const int64_t n = x->value.size(0), c_w = w->value.size(0);
  const int64_t c_out = v ? v->value.size(0) : c_w;
  check(w->value.size(1) == g.c_in && w->value.size(3) == k, op,
        "w must be (c_out, c_in, k, k)");
  check(!v || (v->value.dim() == 4 && v->value.size(1) == c_w &&
               v->value.size(2) == 1 && v->value.size(3) == 1),
        op, "v must be (c_out, r, 1, 1)");
  const int64_t spatial = g.out_h() * g.out_w(), patch = g.patch();
  const bool taped = grad_enabled() && (x->requires_grad ||
                                        w->requires_grad ||
                                        (v && v->requires_grad));
  auto mids = std::make_shared<std::vector<Tensor>>();
  std::optional<trace::Scope> span;
  if (v) span.emplace("lowrank_conv", n * spatial * c_w * (patch + c_out));

  Tensor out = Tensor::uninit(Shape{n, c_out, g.out_h(), g.out_w()});
  // Weights viewed as (c_w, patch) and (c_out, c_w): PyTorch layout
  // (c_out, c_in, k, k) flattens to exactly that row-major 2-D view.
  const Tensor& xv = x->value;  // const reads: no COW unshare of shard views
  const Tensor& wv = w->value;
  float* outp = out.data();
  for_each_conv_chunk(
      xv.data(), g, n, true, [&](int64_t i0, int64_t b, const Tensor& col) {
        Tensor y(Shape{c_w, b * spatial});  // zero-filled: matmul_accum +=
        matmul_accum(wv.data(), col.data(), y.data(), c_w, patch, b * spatial);
        if (v) {
          Tensor vy(Shape{c_out, b * spatial});
          matmul_accum(std::as_const(v->value).data(), std::as_const(y).data(),
                       vy.data(), c_out, c_w, b * spatial);
          if (taped) mids->push_back(std::move(y));
          y = std::move(vy);
        }
        chunk_to_nchw(std::as_const(y).data(), c_out, b, spatial,
                      outp + i0 * c_out * spatial);
      });

  std::vector<Var> inputs{x, w};
  if (v) inputs.push_back(v);
  return make_node(std::move(out), std::move(inputs), [g, mids](Node& nd) {
    const Var& x = nd.inputs[0];
    const Var& w = nd.inputs[1];
    const Var v = nd.inputs.size() > 2 ? nd.inputs[2] : nullptr;
    const Tensor& xv = x->value;
    const Tensor& gr = nd.grad;
    const int64_t n = xv.size(0), c_w = w->value.size(0), c_out = gr.size(1);
    const int64_t spatial = g.out_h() * g.out_w(), patch = g.patch();
    const bool need_dw = w->requires_grad, need_dx = x->requires_grad;
    const bool need_dv = v && v->requires_grad;

    Tensor dwt = need_dw ? Tensor(Shape{patch, c_w}) : Tensor();
    Tensor dvt = need_dv ? Tensor(Shape{c_w, c_out}) : Tensor();
    Tensor dx = need_dx ? Tensor(x->shape()) : Tensor();
    const Tensor w2d = w->value.reshape(Shape{c_w, patch});
    const Tensor v2d = v ? v->value.reshape(Shape{c_out, c_w}) : Tensor();
    size_t chunk = 0;
    for_each_conv_chunk(
        xv.data(), g, n, need_dw,
        [&](int64_t i0, int64_t b, const Tensor& col) {
          // The chunk's dY in the forward GEMM's (c_out, b*spatial) layout.
          Tensor dy = Tensor::uninit(Shape{c_out, b * spatial});
          nchw_to_chunk(gr.data() + i0 * c_out * spatial, c_out, b, spatial,
                        dy.data());
          if (v) {
            const Tensor& mid = (*mids)[chunk++];
            if (need_dv) dvt.add_(pf::matmul_nt(mid, dy));
            if (need_dw || need_dx) dy = pf::matmul_tn(v2d, dy);  // dMid
          }
          // dW^T (patch, c_w) += col @ dY^T: the same dot products as
          // dY @ col^T, bit for bit, but the deep operand packs as
          // contiguous A panels (DESIGN.md §13).
          if (need_dw) dwt.add_(pf::matmul_nt(col, dy));
          if (need_dx) {
            // dcol = W^T (patch, c_w) @ dY (c_w, b*spatial).
            const Tensor dcol = pf::matmul_tn(w2d, dy);
            col2im(dcol.data(), g, dx.data() + i0 * g.c_in * g.h * g.w, b);
          }
        });
    if (need_dw) w->accumulate(dwt.t().reshape(w->shape()));
    if (need_dv) v->accumulate(dvt.t().reshape(v->shape()));
    if (need_dx) x->accumulate(dx);
  });
}

}  // namespace

Var conv2d(const Var& x, const Var& w, int64_t stride, int64_t pad) {
  return conv_node("conv2d", x, w, nullptr, stride, pad);
}

Var lowrank_conv2d(const Var& x, const Var& u, const Var& v, int64_t stride,
                   int64_t pad) {
  return conv_node("lowrank_conv2d", x, u, v, stride, pad);
}

Var maxpool2d(const Var& x, int64_t kernel, int64_t stride) {
  const ConvGeom g = window_geom("maxpool2d", x->value, kernel, stride, 0);
  const int64_t n = x->value.size(0), c = g.c_in, h = g.h, w = g.w;
  const int64_t oh = g.out_h(), ow = g.out_w();
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
  check(x->value.dim() == 4, "global_avgpool", "4-D input");
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
  const ConvGeom g = window_geom("avgpool2d", x->value, kernel, stride, 0);
  const int64_t n = x->value.size(0), c = g.c_in, h = g.h, w = g.w;
  const int64_t oh = g.out_h(), ow = g.out_w();
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
