#include "nn/layers.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/init.h"

namespace pf::nn {

ag::Var dequantized(const char* layer, const QWeight& q, bool transpose,
                    Shape shape) {
  if (ag::grad_enabled())
    throw std::runtime_error(std::string(layer) +
                             ": quantized weights are eval-only (tape-free "
                             "forwards); dequantize before training");
  Tensor w = kernels::dequantize(*q);
  if (transpose) return ag::leaf(w.t());
  if (shape.empty()) return ag::leaf(std::move(w));
  if (shape[0] != q->rows)
    throw std::runtime_error(std::string(layer) +
                             ": quantized weight rows mismatch");
  return ag::leaf(w.reshape(std::move(shape)));
}

Linear::Linear(int64_t in, int64_t out, Rng& rng, bool with_bias)
    : in_(in), out_(out) {
  weight = add_param(
      "weight", init::kaiming_uniform_default(Shape{out, in}, in, rng));
  if (with_bias)
    bias = add_param("bias",
                     init::kaiming_uniform_default(Shape{out}, in, rng),
                     /*no_decay=*/true);
}

ag::Var Linear::forward(const ag::Var& x) {
  const ag::Var w = qweight ? dequantized("Linear", qweight) : weight;
  ag::Var y = ag::matmul_nt(x, w);  // (N, in) x (out, in)^T
  if (bias) y = ag::add(y, bias);
  return y;
}

LowRankLinear::LowRankLinear(int64_t in, int64_t out, int64_t rank, Rng& rng,
                             bool with_bias)
    : in_(in), out_(out), rank_(rank) {
  // Initialized so that U V^T has roughly the variance of a default Linear:
  // each factor gets the fourth root of the product scale.
  const float bound =
      std::sqrt(1.0f / std::sqrt(static_cast<float>(in) *
                                 static_cast<float>(rank)));
  u = add_param("u", init::uniform(Shape{out, rank}, bound, rng));
  v = add_param("v", init::uniform(Shape{in, rank}, bound, rng));
  if (with_bias)
    bias = add_param("bias",
                     init::kaiming_uniform_default(Shape{out}, in, rng),
                     /*no_decay=*/true);
}

ag::Var LowRankLinear::forward(const ag::Var& x) {
  // Fused (x @ v) @ u^T: one kernel launch; when taped it materializes the
  // (N, r) intermediate for the backward pass, when not (eval / frozen
  // serve) the intermediate stays a per-row-block scratch buffer.
  ag::Var y =
      qu ? ag::lowrank_linear(x, dequantized("LowRankLinear", qvt, true),
                              dequantized("LowRankLinear", qu))
         : ag::lowrank_linear(x, v, u);
  if (bias) y = ag::add(y, bias);
  return y;
}

Conv2d::Conv2d(int64_t c_in, int64_t c_out, int64_t kernel, int64_t stride,
               int64_t pad, Rng& rng)
    : c_in_(c_in), c_out_(c_out), kernel_(kernel), stride_(stride), pad_(pad) {
  weight = add_param("weight", init::kaiming_normal_conv(
                                   Shape{c_out, c_in, kernel, kernel}, rng));
}

ag::Var Conv2d::forward(const ag::Var& x) {
  const ag::Var w =
      qweight ? dequantized("Conv2d", qweight, false,
                            Shape{c_out_, c_in_, kernel_, kernel_})
              : weight;
  return ag::conv2d(x, w, stride_, pad_);
}

LowRankConv2d::LowRankConv2d(int64_t c_in, int64_t c_out, int64_t kernel,
                             int64_t stride, int64_t pad, int64_t rank,
                             Rng& rng)
    : c_in_(c_in),
      c_out_(c_out),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      rank_(rank) {
  u = add_param("u", init::kaiming_normal_conv(
                         Shape{rank, c_in, kernel, kernel}, rng));
  v = add_param("v",
                init::kaiming_normal_conv(Shape{c_out, rank, 1, 1}, rng));
}

ag::Var LowRankConv2d::forward(const ag::Var& x) {
  // One node for training, eval, serving and quantized eval (a quantized
  // slot runs it on its dequantized factors): see ag::lowrank_conv2d.
  if (!qu) return ag::lowrank_conv2d(x, u, v, stride_, pad_);
  const int64_t r = qu->rows;
  return ag::lowrank_conv2d(
      x,
      dequantized("LowRankConv2d", qu, false,
                  Shape{r, c_in_, kernel_, kernel_}),
      dequantized("LowRankConv2d", qv, false, Shape{c_out_, r, 1, 1}),
      stride_, pad_);
}

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma = add_param("gamma", Tensor::ones(Shape{channels}),
                    /*no_decay=*/true);
  beta = add_param("beta", Tensor::zeros(Shape{channels}),
                   /*no_decay=*/true);
  running_mean = add_buffer("running_mean", Tensor::zeros(Shape{channels}));
  running_var = add_buffer("running_var", Tensor::ones(Shape{channels}));
}

ag::Var BatchNorm2d::forward(const ag::Var& x) {
  return ag::batchnorm2d(x, gamma, beta, running_mean, running_var,
                         is_training(), momentum_, eps_);
}

LayerNorm::LayerNorm(int64_t dim, float eps) : eps_(eps) {
  gamma = add_param("gamma", Tensor::ones(Shape{dim}), /*no_decay=*/true);
  beta = add_param("beta", Tensor::zeros(Shape{dim}), /*no_decay=*/true);
}

ag::Var LayerNorm::forward(const ag::Var& x) {
  return ag::layernorm(x, gamma, beta, eps_);
}

Embedding::Embedding(int64_t vocab, int64_t dim, Rng& rng)
    : vocab_(vocab), dim_(dim) {
  // N(0, 1/sqrt(dim)) keeps tied-softmax logits at O(1) scale.
  weight = add_param(
      "weight",
      init::normal(Shape{vocab, dim},
                   1.0f / std::sqrt(static_cast<float>(dim)), rng));
}

ag::Var Embedding::forward(const std::vector<int64_t>& ids) {
  return ag::embedding(ids, weight);
}

}  // namespace pf::nn
