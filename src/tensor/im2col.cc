#include "tensor/im2col.h"

#include <cstring>

#include "kernels/kernels.h"
#include "trace/trace.h"

namespace pf {

// Thin dispatching wrappers: the loop nests live in the kernel backend
// (pf::kernels::Backend::im2col / col2im defaults in src/kernels/kernels.cc).
// Trace spans stay here so flop accounting is identical for every backend.

void im2col(const float* img, const ConvGeom& g, float* col, int64_t nb) {
  const int64_t spatial = g.out_h() * g.out_w();
  PF_TRACE_SCOPE_C("im2col", g.patch() * nb * spatial);
  kernels::active().im2col(img, g, nb, col);
}

void col2im(const float* col, const ConvGeom& g, float* img, int64_t nb) {
  const int64_t spatial = g.out_h() * g.out_w();
  PF_TRACE_SCOPE_C("col2im", g.patch() * nb * spatial);
  kernels::active().col2im(col, g, nb, img);
}

void chunk_to_nchw(const float* chunk, int64_t c, int64_t nb, int64_t spatial,
                   float* nchw) {
  const size_t bytes = static_cast<size_t>(spatial) * sizeof(float);
  for (int64_t s = 0; s < nb; ++s)
    for (int64_t ch = 0; ch < c; ++ch)
      std::memcpy(nchw + (s * c + ch) * spatial,
                  chunk + (ch * nb + s) * spatial, bytes);
}

void nchw_to_chunk(const float* nchw, int64_t c, int64_t nb, int64_t spatial,
                   float* chunk) {
  const size_t bytes = static_cast<size_t>(spatial) * sizeof(float);
  for (int64_t s = 0; s < nb; ++s)
    for (int64_t ch = 0; ch < c; ++ch)
      std::memcpy(chunk + (ch * nb + s) * spatial,
                  nchw + (s * c + ch) * spatial, bytes);
}

}  // namespace pf
