// Core layers: dense and low-rank linear / convolution, normalization,
// pooling, dropout, embedding, and the Sequential container.
//
// The low-rank layers implement the paper's Section 2 factorizations:
//   FC:   W (out,in) ~= U (out,r) V(in,r)^T          -> y = (x V) U^T
//   Conv: W (c_out,c_in,k,k) unrolled to (c_in k^2, c_out) ~= U V^T, giving
//         a thin k x k convolution with r filters followed by a 1x1
//         convolution ("linear combination of r basis filters").
//
// Every weight matrix (not biases or norms) is an nn::Weight, registered
// quantizable and read through Weight::read, so any layer here runs
// quantized (eval-only) on its dequantized weights with the same fp32 op.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace pf::nn {

class Linear : public UnaryModule {
 public:
  // weight (out, in); bias optional.
  Linear(int64_t in, int64_t out, Rng& rng, bool bias = true);
  std::string type_name() const override { return "Linear"; }
  ag::Var forward(const ag::Var& x) override;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Weight weight;  // (out, in)
  ag::Var bias;   // (out) or null

 private:
  int64_t in_, out_;
};

class LowRankLinear : public UnaryModule {
 public:
  LowRankLinear(int64_t in, int64_t out, int64_t rank, Rng& rng,
                bool bias = true);
  std::string type_name() const override { return "LowRankLinear"; }
  ag::Var forward(const ag::Var& x) override;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  int64_t rank() const { return rank_; }
  // Re-targets the rank (AB-style re-projection, core::reproject). Updates
  // only the bookkeeping: the caller must immediately re-factorize (or
  // apply_ranks-reshape) so u/v take their new (out, r)/(in, r) shapes.
  void set_rank(int64_t r) { rank_ = r; }
  Weight u;      // (out, r)
  Weight v;      // (in, r)
  ag::Var bias;  // (out) or null

 private:
  int64_t in_, out_, rank_;
};

class Conv2d : public UnaryModule {
 public:
  Conv2d(int64_t c_in, int64_t c_out, int64_t kernel, int64_t stride,
         int64_t pad, Rng& rng);
  std::string type_name() const override { return "Conv2d"; }
  ag::Var forward(const ag::Var& x) override;

  int64_t c_in() const { return c_in_; }
  int64_t c_out() const { return c_out_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }
  Weight weight;  // (c_out, c_in, k, k), bias-free (BN follows every conv)

 private:
  int64_t c_in_, c_out_, kernel_, stride_, pad_;
};

class LowRankConv2d : public UnaryModule {
 public:
  LowRankConv2d(int64_t c_in, int64_t c_out, int64_t kernel, int64_t stride,
                int64_t pad, int64_t rank, Rng& rng);
  std::string type_name() const override { return "LowRankConv2d"; }
  ag::Var forward(const ag::Var& x) override;

  int64_t c_in() const { return c_in_; }
  int64_t c_out() const { return c_out_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }
  int64_t rank() const { return rank_; }
  // See LowRankLinear::set_rank; u/v must be re-factorized right after.
  void set_rank(int64_t r) { rank_ = r; }
  Weight u;  // (r, c_in, k, k): thin convolution
  Weight v;  // (c_out, r, 1, 1): channel up-projection

 private:
  int64_t c_in_, c_out_, kernel_, stride_, pad_, rank_;
};

class BatchNorm2d : public UnaryModule {
 public:
  explicit BatchNorm2d(int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);
  std::string type_name() const override { return "BatchNorm2d"; }
  ag::Var forward(const ag::Var& x) override;

  int64_t channels() const { return channels_; }
  float momentum() const { return momentum_; }
  ag::Var gamma, beta;
  Tensor* running_mean;
  Tensor* running_var;

 private:
  int64_t channels_;
  float momentum_, eps_;
};

class LayerNorm : public UnaryModule {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-6f);
  std::string type_name() const override { return "LayerNorm"; }
  ag::Var forward(const ag::Var& x) override;
  ag::Var gamma, beta;

 private:
  float eps_;
};

class ReLU : public UnaryModule {
 public:
  std::string type_name() const override { return "ReLU"; }
  ag::Var forward(const ag::Var& x) override { return ag::relu(x); }
};

class MaxPool2d : public UnaryModule {
 public:
  MaxPool2d(int64_t kernel, int64_t stride)
      : kernel_(kernel), stride_(stride) {}
  std::string type_name() const override { return "MaxPool2d"; }
  ag::Var forward(const ag::Var& x) override {
    return ag::maxpool2d(x, kernel_, stride_);
  }

 private:
  int64_t kernel_, stride_;
};

class Dropout : public UnaryModule {
 public:
  Dropout(float p, uint64_t seed) : p_(p), rng_(seed) {}
  std::string type_name() const override { return "Dropout"; }
  ag::Var forward(const ag::Var& x) override {
    return ag::dropout(x, p_, is_training(), rng_);
  }

 private:
  float p_;
  Rng rng_;
};

// Flattens (N, C, H, W) -> (N, C*H*W).
class Flatten : public UnaryModule {
 public:
  std::string type_name() const override { return "Flatten"; }
  ag::Var forward(const ag::Var& x) override {
    return ag::reshape(x, Shape{x->value.size(0), -1});
  }
};

class Embedding : public Module {
 public:
  Embedding(int64_t vocab, int64_t dim, Rng& rng);
  std::string type_name() const override { return "Embedding"; }
  // ids (flat) -> (len, dim).
  ag::Var forward(const std::vector<int64_t>& ids);

  int64_t vocab() const { return vocab_; }
  int64_t dim() const { return dim_; }
  ag::Var weight;  // (V, D)

 private:
  int64_t vocab_, dim_;
};

class Sequential : public UnaryModule {
 public:
  Sequential() = default;
  std::string type_name() const override { return "Sequential"; }
  // Adds a layer and returns a raw pointer for further wiring.
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = layer.get();
    register_child(raw);
    layers_.push_back(std::move(layer));
    return raw;
  }
  ag::Var forward(const ag::Var& x) override {
    ag::Var cur = x;
    for (auto& l : layers_) cur = l->forward(cur);
    return cur;
  }
  size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<UnaryModule>> layers_;
};

}  // namespace pf::nn
