// ResNet-18 (CIFAR, appendix Table 13), ResNet-50 and WideResNet-50-2
// (ImageNet, appendix Tables 14/15), with Pufferfish hybrid factorization.
//
// Factorization policy (verified against the paper's exact counts):
//   rank = rank_ratio * min(c_in * k^2, c_out)  -- the "initial rank"
//   (core::ratio_rank).
// ResNet-18: hybrid keeps conv1 and the first basic block dense and
// factorizes from the 2nd block on; downsample convs stay dense ("we did
// not handle the downsample weights").
// ResNet-50/WRN-50-2: only the conv5_x stage is factorized, *including* its
// downsample (shapes (1024,256,1,1)/(256,2048,1,1) as in Table 14). With
// this policy our Pufferfish ResNet-50 has exactly 15,202,344 parameters
// (paper Table 7); our vanilla count (25,557,032, the torchvision count)
// differs from the paper's printed 25,610,205 -- see EXPERIMENTS.md.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.h"

namespace pf::models {

// 3x3-3x3 residual block (ResNet-18/34 style).
class BasicBlock : public nn::UnaryModule {
 public:
  BasicBlock(int64_t c_in, int64_t c_out, int64_t stride, bool low_rank,
             double rank_ratio, Rng& rng);
  std::string type_name() const override { return "BasicBlock"; }
  ag::Var forward(const ag::Var& x) override;
  int64_t forward_macs(int64_t h, int64_t w, int64_t* out_h,
                       int64_t* out_w) const;

 private:
  int64_t c_in_, c_out_, stride_;
  int64_t r1_ = 0, r2_ = 0;  // 0 = dense
  std::unique_ptr<nn::UnaryModule> conv1_, conv2_;
  nn::BatchNorm2d bn1_, bn2_;
  std::unique_ptr<nn::Conv2d> down_conv_;  // dense 1x1 (never factorized)
  std::unique_ptr<nn::BatchNorm2d> down_bn_;
};

// 1x1-3x3-1x1 bottleneck block (ResNet-50 style).
class Bottleneck : public nn::UnaryModule {
 public:
  Bottleneck(int64_t c_in, int64_t mid, int64_t c_out, int64_t stride,
             bool low_rank, bool factorize_downsample, double rank_ratio,
             Rng& rng);
  std::string type_name() const override { return "Bottleneck"; }
  ag::Var forward(const ag::Var& x) override;
  int64_t forward_macs(int64_t h, int64_t w, int64_t* out_h,
                       int64_t* out_w) const;

 private:
  int64_t c_in_, mid_, c_out_, stride_;
  bool low_rank_;
  std::unique_ptr<nn::UnaryModule> conv1_, conv2_, conv3_, down_conv_;
  nn::BatchNorm2d bn1_, bn2_, bn3_;
  std::unique_ptr<nn::BatchNorm2d> down_bn_;
  int64_t r1_ = 0, r2_ = 0, r3_ = 0, rd_ = 0;
};

struct ResNetCifarConfig {
  int64_t num_classes = 10;
  // 1-based index of the first factorized basic block (of 8); 0 = vanilla.
  // The paper's hybrid uses 2 (K = 4 in conv-layer numbering).
  int first_lowrank_block = 0;
  double rank_ratio = 0.25;
  double width_mult = 1.0;

  static ResNetCifarConfig vanilla() { return {}; }
  static ResNetCifarConfig pufferfish() {
    ResNetCifarConfig c;
    c.first_lowrank_block = 2;
    return c;
  }
  // Fully factorized except conv1 / last FC (Fig. 2 "low-rank" ablation).
  static ResNetCifarConfig low_rank_all() {
    ResNetCifarConfig c;
    c.first_lowrank_block = 1;
    return c;
  }
};

class ResNet18Cifar : public nn::UnaryModule {
 public:
  ResNet18Cifar(const ResNetCifarConfig& cfg, Rng& rng);
  std::string type_name() const override { return "ResNet18Cifar"; }
  ag::Var forward(const ag::Var& x) override;
  int64_t forward_macs(int64_t h, int64_t w) const;
  const ResNetCifarConfig& config() const { return cfg_; }

 private:
  ResNetCifarConfig cfg_;
  nn::Conv2d conv1_;
  nn::BatchNorm2d bn1_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  nn::Linear fc_;
};

struct ResNetImageNetConfig {
  int64_t num_classes = 1000;
  bool wide = false;  // WideResNet-50-2
  // Factorize the conv5_x stage (the paper's hybrid); false = vanilla.
  bool factorize_stage4 = false;
  // Factorize EVERY bottleneck stage (the appendix L "low-rank ResNet-50"
  // from-scratch arm); overrides factorize_stage4.
  bool factorize_all = false;
  double rank_ratio = 0.25;
  double width_mult = 1.0;
  // Input spatial size the MACs are quoted for (224 at paper scale).
  int64_t input_hw = 224;

  static ResNetImageNetConfig resnet50_vanilla() { return {}; }
  static ResNetImageNetConfig resnet50_pufferfish() {
    ResNetImageNetConfig c;
    c.factorize_stage4 = true;
    return c;
  }
  static ResNetImageNetConfig wrn50_vanilla() {
    ResNetImageNetConfig c;
    c.wide = true;
    return c;
  }
  static ResNetImageNetConfig wrn50_pufferfish() {
    ResNetImageNetConfig c;
    c.wide = true;
    c.factorize_stage4 = true;
    return c;
  }
};

class ResNet50 : public nn::UnaryModule {
 public:
  ResNet50(const ResNetImageNetConfig& cfg, Rng& rng);
  std::string type_name() const override { return "ResNet50"; }
  ag::Var forward(const ag::Var& x) override;
  int64_t forward_macs(int64_t h, int64_t w) const;
  const ResNetImageNetConfig& config() const { return cfg_; }

 private:
  ResNetImageNetConfig cfg_;
  nn::Conv2d conv1_;
  nn::BatchNorm2d bn1_;
  std::vector<std::unique_ptr<Bottleneck>> blocks_;
  nn::Linear fc_;
};

}  // namespace pf::models
