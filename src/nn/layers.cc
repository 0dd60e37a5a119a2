#include "nn/layers.h"

#include <cmath>
#include <utility>

#include "nn/init.h"

namespace pf::nn {

Linear::Linear(int64_t in, int64_t out, Rng& rng, bool with_bias)
    : in_(in), out_(out) {
  weight = add_weight(
      "weight", init::kaiming_uniform_default(Shape{out, in}, in, rng));
  if (with_bias)
    bias = add_param("bias",
                     init::kaiming_uniform_default(Shape{out}, in, rng),
                     /*no_decay=*/true);
}

ag::Var Linear::forward(const ag::Var& x) {
  ag::Var y = ag::matmul_nt(x, weight.read());  // (N, in) x (out, in)^T
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
  u = add_weight("u", init::uniform(Shape{out, rank}, bound, rng));
  v = add_weight("v", init::uniform(Shape{in, rank}, bound, rng));
  if (with_bias)
    bias = add_param("bias",
                     init::kaiming_uniform_default(Shape{out}, in, rng),
                     /*no_decay=*/true);
}

ag::Var LowRankLinear::forward(const ag::Var& x) {
  // Fused (x @ v) @ u^T: one kernel launch; when taped it materializes the
  // (N, r) intermediate for the backward pass, when not (eval / frozen
  // serve) the intermediate stays a per-row-block scratch buffer.
  ag::Var y = ag::lowrank_linear(x, v.read(), u.read());
  if (bias) y = ag::add(y, bias);
  return y;
}

Conv2d::Conv2d(int64_t c_in, int64_t c_out, int64_t kernel, int64_t stride,
               int64_t pad, Rng& rng)
    : c_in_(c_in), c_out_(c_out), kernel_(kernel), stride_(stride), pad_(pad) {
  weight = add_weight("weight", init::kaiming_normal_conv(
                                    Shape{c_out, c_in, kernel, kernel}, rng));
}

ag::Var Conv2d::forward(const ag::Var& x) {
  return ag::conv2d(x, weight.read(), stride_, pad_);
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
  u = add_weight("u", init::kaiming_normal_conv(
                          Shape{rank, c_in, kernel, kernel}, rng));
  v = add_weight("v",
                 init::kaiming_normal_conv(Shape{c_out, rank, 1, 1}, rng));
}

ag::Var LowRankConv2d::forward(const ag::Var& x) {
  // One node for training, eval, serving and quantized eval (quantized
  // factors read dequantized): see ag::lowrank_conv2d.
  return ag::lowrank_conv2d(x, u.read(), v.read(), stride_, pad_);
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
