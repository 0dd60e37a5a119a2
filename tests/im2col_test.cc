#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "kernels/kernels.h"

#include "tensor/matmul.h"
#include "tensor/rng.h"

namespace pf {
namespace {

// Direct (nested-loop) convolution reference of one image.
Tensor ref_conv(const Tensor& img, const Tensor& w, const ConvGeom& g) {
  const int64_t c_out = w.size(0);
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor out(Shape{c_out, oh, ow});
  for (int64_t co = 0; co < c_out; ++co)
    for (int64_t oy = 0; oy < oh; ++oy)
      for (int64_t ox = 0; ox < ow; ++ox) {
        double acc = 0;
        for (int64_t ci = 0; ci < g.c_in; ++ci)
          for (int64_t ky = 0; ky < g.kernel; ++ky)
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
              const int64_t iy = oy * g.stride - g.pad + ky;
              const int64_t ix = ox * g.stride - g.pad + kx;
              if (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w) continue;
              acc += static_cast<double>(
                         img[(ci * g.h + iy) * g.w + ix]) *
                     w[((co * g.c_in + ci) * g.kernel + ky) * g.kernel + kx];
            }
        out[(co * oh + oy) * ow + ox] = static_cast<float>(acc);
      }
  return out;
}

struct ConvCase {
  int64_t c_in, h, w, k, stride, pad;
};

class Im2ColP : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Im2ColP, GemmConvMatchesDirect) {
  const auto [c_in, h, w, k, stride, pad] = GetParam();
  const ConvGeom g{c_in, h, w, k, stride, pad};
  Rng rng(c_in * 100 + h + k);
  Tensor img = rng.randn(Shape{c_in, h, w});
  const int64_t c_out = 3;
  Tensor weight = rng.randn(Shape{c_out, c_in, k, k});

  Tensor col(Shape{g.patch(), g.out_h() * g.out_w()});
  im2col(img.data(), g, col.data());
  Tensor w2d = weight.reshape(Shape{c_out, g.patch()});
  Tensor y = matmul(w2d, col).reshape(Shape{c_out, g.out_h(), g.out_w()});

  EXPECT_TRUE(allclose(y, ref_conv(img, weight, g), 1e-3f, 1e-4f));
}

TEST_P(Im2ColP, Col2ImIsAdjoint) {
  // Adjoint property: <im2col(x), y> == <x, col2im(y)> for all x, y.
  const auto [c_in, h, w, k, stride, pad] = GetParam();
  const ConvGeom g{c_in, h, w, k, stride, pad};
  Rng rng(h * 31 + k);
  Tensor x = rng.randn(Shape{c_in, h, w});
  const int64_t cols = g.out_h() * g.out_w();
  Tensor y = rng.randn(Shape{g.patch(), cols});

  Tensor cx(Shape{g.patch(), cols});
  im2col(x.data(), g, cx.data());
  double lhs = 0;
  for (int64_t i = 0; i < cx.numel(); ++i)
    lhs += static_cast<double>(cx[i]) * y[i];

  Tensor xy(Shape{c_in, h, w});
  col2im(y.data(), g, xy.data());
  double rhs = 0;
  for (int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * xy[i];

  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColP,
    ::testing::Values(ConvCase{1, 5, 5, 3, 1, 1}, ConvCase{3, 8, 8, 3, 1, 1},
                      ConvCase{2, 7, 9, 3, 2, 1}, ConvCase{4, 6, 6, 1, 1, 0},
                      ConvCase{2, 10, 10, 5, 1, 2},
                      ConvCase{3, 8, 8, 3, 2, 0},
                      ConvCase{1, 4, 4, 7, 1, 3},
                      ConvCase{2, 9, 9, 1, 2, 0}));

// The backend lowering against plain loops over nb = 3 images, 3x3 taps,
// pad 1, at stride 1 and 2 and output widths 2, 4, 8 and 16 (each a
// compile-time width) and 5 (the runtime width). im2col is a copy, so it
// must match exactly; col2im must match bitwise a scatter-add that adds
// each pixel's taps in ascending (ki, kj) order onto the zeroed image.
TEST(Im2Col, StrideAndWidthSpecializedLoweringMatchesLoops) {
  const std::string prev = kernels::backend_name();
  const int64_t nb = 3, c_in = 2, k = 3, pad = 1;
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::set_backend(backend)) continue;  // avx2 host gate
    for (int64_t stride : {1, 2})
      for (int64_t ow : {2, 4, 8, 16, 5}) {
        const ConvGeom g{c_in, 5, stride * ow, k, stride, pad};
        ASSERT_EQ(g.out_w(), ow);
        const int64_t oh = g.out_h(), cols = nb * oh * ow;
        Rng rng(static_cast<uint64_t>(stride * 100 + ow));
        const Tensor x = rng.randn(Shape{nb, c_in, g.h, g.w});
        const Tensor y = rng.randn(Shape{g.patch(), cols});
        Tensor col(Shape{g.patch(), cols}), want_col(Shape{g.patch(), cols});
        Tensor img(Shape{nb, c_in, g.h, g.w}), want_img(img.shape());
        im2col(x.data(), g, col.data(), nb);
        col2im(y.data(), g, img.data(), nb);
        for (int64_t c = 0; c < c_in; ++c)
          for (int64_t ki = 0; ki < k; ++ki)
            for (int64_t kj = 0; kj < k; ++kj)
              for (int64_t s = 0; s < nb; ++s)
                for (int64_t oy = 0; oy < oh; ++oy)
                  for (int64_t ox = 0; ox < ow; ++ox) {
                    const int64_t iy = oy * stride - pad + ki;
                    const int64_t ix = ox * stride - pad + kj;
                    const int64_t r = (c * k + ki) * k + kj;
                    const int64_t j = (s * oh + oy) * ow + ox;
                    if (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w) continue;
                    const int64_t p = ((s * c_in + c) * g.h + iy) * g.w + ix;
                    want_col[r * cols + j] = x[p];
                    want_img[p] += y[r * cols + j];
                  }
        const auto bytes = [](const Tensor& t) {
          return static_cast<size_t>(t.numel()) * sizeof(float);
        };
        EXPECT_EQ(std::memcmp(col.data(), want_col.data(), bytes(col)), 0)
            << backend << " im2col stride " << stride << " ow " << ow;
        EXPECT_EQ(std::memcmp(img.data(), want_img.data(), bytes(img)), 0)
            << backend << " col2im stride " << stride << " ow " << ow;
      }
  }
  kernels::set_backend(prev.c_str());
}

TEST(Im2Col, GeometryHelpers) {
  ConvGeom g{3, 32, 32, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.patch(), 27);
  ConvGeom s{64, 16, 16, 3, 2, 1};
  EXPECT_EQ(s.out_h(), 8);
  ConvGeom p{8, 7, 7, 7, 2, 3};
  EXPECT_EQ(p.out_h(), 4);
}

TEST(Im2Col, PaddingProducesZeros) {
  ConvGeom g{1, 2, 2, 3, 1, 1};
  Tensor img = Tensor::ones(Shape{1, 2, 2});
  Tensor col(Shape{g.patch(), g.out_h() * g.out_w()});
  im2col(img.data(), g, col.data());
  // Top-left output patch: the (0,0) kernel tap reads padding => zero.
  EXPECT_FLOAT_EQ(col[0], 0.0f);
  // Center taps read real pixels.
  EXPECT_FLOAT_EQ(col.at({4, 0}), 1.0f);
}

}  // namespace
}  // namespace pf
