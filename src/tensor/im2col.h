// im2col / col2im lowering for convolution.
//
// Convolutions in this repo are computed by lowering a chunk of images to a
// column matrix of receptive-field patches and calling the matmul kernel --
// the same strategy cuDNN's GEMM algorithm uses, and the one the paper's MAC
// accounting (Table 1) assumes.
#pragma once

#include <algorithm>
#include <utility>

#include "tensor/tensor.h"

namespace pf {

struct ConvGeom {
  int64_t c_in = 0, h = 0, w = 0;      // input geometry
  int64_t kernel = 1, stride = 1, pad = 0;
  int64_t out_h() const { return (h + 2 * pad - kernel) / stride + 1; }
  int64_t out_w() const { return (w + 2 * pad - kernel) / stride + 1; }
  int64_t patch() const { return c_in * kernel * kernel; }
};

// Floats of column matrix one conv chunk may lower at once: 64K floats =
// 256 KB, about an L2. Chunking lets one GEMM span many samples (a per-image
// GEMM at 2x2 or 4x4 outputs runs on 4- and 16-column edge tiles); capping
// the chunk keeps the column matrix cache-resident, which measured faster
// and leaner than lowering the whole batch at once (DESIGN.md §13).
inline constexpr int64_t kColBudget = int64_t{1} << 16;

// Samples per conv chunk for `n` images of geometry `g`: as many as fit in
// kColBudget, at least 1, at most n. A function of shape only, so chunk
// boundaries never depend on PF_THREADS.
inline int64_t conv_chunk(const ConvGeom& g, int64_t n) {
  const int64_t per = g.patch() * g.out_h() * g.out_w();
  return std::clamp<int64_t>(kColBudget / std::max<int64_t>(1, per), 1,
                             std::max<int64_t>(1, n));
}

// Lower `nb` consecutive images (nb, c_in, h, w) at `img` to one
// (c_in*k*k, nb*out_h*out_w) column matrix at `col`: sample s occupies
// columns [s*out_h*out_w, (s+1)*out_h*out_w) of every row. nb = 1 is the
// single-image lowering.
void im2col(const float* img, const ConvGeom& g, float* col, int64_t nb = 1);

// Adjoint of im2col: scatter-add an (c_in*k*k, nb*out_h*out_w) column matrix
// back into nb image gradients. `img` must be pre-zeroed by the caller.
void col2im(const float* col, const ConvGeom& g, float* img, int64_t nb = 1);

// The chunked lowering behind every conv (the one node behind ag::conv2d and
// ag::lowrank_conv2d, forward and backward).
// Splits the n images at `x` into chunks of conv_chunk(g, n) samples and
// calls fn(i0, b, col) per chunk, where `col` is the (patch, b*spatial)
// column matrix of images [i0, i0 + b). With lower == false `col` is left
// empty: a backward pass that needs only dX has no use for the columns.
template <class Fn>
void for_each_conv_chunk(const float* x, const ConvGeom& g, int64_t n,
                         bool lower, Fn&& fn) {
  const int64_t nb = conv_chunk(g, n);
  const int64_t spatial = g.out_h() * g.out_w(), img = g.c_in * g.h * g.w;
  for (int64_t i0 = 0; i0 < n; i0 += nb) {
    const int64_t b = std::min(nb, n - i0);
    Tensor col;
    if (lower) {
      col = Tensor::uninit(Shape{g.patch(), b * spatial});
      im2col(x + i0 * img, g, col.data(), b);
    }
    fn(i0, b, std::as_const(col));
  }
}

// Copies between a chunk's channel-major GEMM layout (c, nb*spatial) and
// the NCHW layout (nb, c, spatial) of the same nb samples.
void chunk_to_nchw(const float* chunk, int64_t c, int64_t nb, int64_t spatial,
                   float* nchw);
void nchw_to_chunk(const float* nchw, int64_t c, int64_t nb, int64_t spatial,
                   float* chunk);

}  // namespace pf
