#include "models/resnet.h"

#include <algorithm>
#include <cmath>

#include "core/factorize.h"

namespace pf::models {

namespace {

int64_t scaled(int64_t w, double mult) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::lround(w * mult)));
}

std::unique_ptr<nn::UnaryModule> make_conv(int64_t c_in, int64_t c_out,
                                           int64_t k, int64_t stride,
                                           int64_t pad, int64_t rank,
                                           Rng& rng) {
  if (rank <= 0)
    return std::make_unique<nn::Conv2d>(c_in, c_out, k, stride, pad, rng);
  return std::make_unique<nn::LowRankConv2d>(c_in, c_out, k, stride, pad,
                                             rank, rng);
}

int64_t conv_macs(int64_t c_in, int64_t c_out, int64_t k, int64_t rank,
                  int64_t oh, int64_t ow) {
  if (rank <= 0) return c_in * c_out * k * k * oh * ow;
  return c_in * rank * k * k * oh * ow + rank * c_out * oh * ow;
}

}  // namespace

// ---------------- BasicBlock ----------------

BasicBlock::BasicBlock(int64_t c_in, int64_t c_out, int64_t stride,
                       bool low_rank, double rank_ratio, Rng& rng)
    : c_in_(c_in),
      c_out_(c_out),
      stride_(stride),
      r1_(low_rank ? core::ratio_rank(c_in * 9, c_out, rank_ratio) : 0),
      r2_(low_rank ? core::ratio_rank(c_out * 9, c_out, rank_ratio) : 0),
      conv1_(make_conv(c_in, c_out, 3, stride, 1, r1_, rng)),
      conv2_(make_conv(c_out, c_out, 3, 1, 1, r2_, rng)),
      bn1_(c_out),
      bn2_(c_out) {
  register_child(conv1_.get());
  register_child(&bn1_);
  register_child(conv2_.get());
  register_child(&bn2_);
  if (stride != 1 || c_in != c_out) {
    down_conv_ = std::make_unique<nn::Conv2d>(c_in, c_out, 1, stride, 0, rng);
    down_bn_ = std::make_unique<nn::BatchNorm2d>(c_out);
    register_child(down_conv_.get());
    register_child(down_bn_.get());
  }
}

ag::Var BasicBlock::forward(const ag::Var& x) {
  ag::Var out = ag::relu(bn1_.forward(conv1_->forward(x)));
  out = bn2_.forward(conv2_->forward(out));
  ag::Var shortcut = x;
  if (down_conv_) shortcut = down_bn_->forward(down_conv_->forward(x));
  return ag::relu(ag::add(out, shortcut));
}

int64_t BasicBlock::forward_macs(int64_t h, int64_t w, int64_t* out_h,
                                 int64_t* out_w) const {
  const int64_t oh = (h + 2 - 3) / stride_ + 1;
  const int64_t ow = (w + 2 - 3) / stride_ + 1;
  int64_t macs = conv_macs(c_in_, c_out_, 3, r1_, oh, ow) +
                 conv_macs(c_out_, c_out_, 3, r2_, oh, ow);
  if (down_conv_) macs += c_in_ * c_out_ * oh * ow;
  *out_h = oh;
  *out_w = ow;
  return macs;
}

// ---------------- Bottleneck ----------------

Bottleneck::Bottleneck(int64_t c_in, int64_t mid, int64_t c_out,
                       int64_t stride, bool low_rank,
                       bool factorize_downsample, double rank_ratio, Rng& rng)
    : c_in_(c_in),
      mid_(mid),
      c_out_(c_out),
      stride_(stride),
      low_rank_(low_rank),
      bn1_(mid),
      bn2_(mid),
      bn3_(c_out) {
  if (low_rank) {
    r1_ = core::ratio_rank(c_in, mid, rank_ratio);
    r2_ = core::ratio_rank(mid * 9, mid, rank_ratio);
    r3_ = core::ratio_rank(mid, c_out, rank_ratio);
  }
  conv1_ = make_conv(c_in, mid, 1, 1, 0, r1_, rng);
  conv2_ = make_conv(mid, mid, 3, stride, 1, r2_, rng);
  conv3_ = make_conv(mid, c_out, 1, 1, 0, r3_, rng);
  register_child(conv1_.get());
  register_child(&bn1_);
  register_child(conv2_.get());
  register_child(&bn2_);
  register_child(conv3_.get());
  register_child(&bn3_);
  if (stride != 1 || c_in != c_out) {
    if (low_rank && factorize_downsample)
      rd_ = core::ratio_rank(c_in, c_out, rank_ratio);
    down_conv_ = make_conv(c_in, c_out, 1, stride, 0, rd_, rng);
    down_bn_ = std::make_unique<nn::BatchNorm2d>(c_out);
    register_child(down_conv_.get());
    register_child(down_bn_.get());
  }
}

ag::Var Bottleneck::forward(const ag::Var& x) {
  ag::Var out = ag::relu(bn1_.forward(conv1_->forward(x)));
  out = ag::relu(bn2_.forward(conv2_->forward(out)));
  out = bn3_.forward(conv3_->forward(out));
  ag::Var shortcut = x;
  if (down_conv_) shortcut = down_bn_->forward(down_conv_->forward(x));
  return ag::relu(ag::add(out, shortcut));
}

int64_t Bottleneck::forward_macs(int64_t h, int64_t w, int64_t* out_h,
                                 int64_t* out_w) const {
  const int64_t oh = stride_ == 1 ? h : (h + 2 - 3) / stride_ + 1;
  const int64_t ow = stride_ == 1 ? w : (w + 2 - 3) / stride_ + 1;
  int64_t macs = conv_macs(c_in_, mid_, 1, r1_, h, w);
  macs += conv_macs(mid_, mid_, 3, r2_, oh, ow);
  macs += conv_macs(mid_, c_out_, 1, r3_, oh, ow);
  if (down_conv_) macs += conv_macs(c_in_, c_out_, 1, rd_, oh, ow);
  *out_h = oh;
  *out_w = ow;
  return macs;
}

// ---------------- ResNet18 (CIFAR) ----------------

ResNet18Cifar::ResNet18Cifar(const ResNetCifarConfig& cfg, Rng& rng)
    : cfg_(cfg),
      conv1_(3, scaled(64, cfg.width_mult), 3, 1, 1, rng),
      bn1_(scaled(64, cfg.width_mult)),
      fc_(scaled(512, cfg.width_mult), cfg.num_classes, rng) {
  register_child(&conv1_);
  register_child(&bn1_);
  const int64_t widths[4] = {scaled(64, cfg.width_mult),
                             scaled(128, cfg.width_mult),
                             scaled(256, cfg.width_mult),
                             scaled(512, cfg.width_mult)};
  int64_t c_in = widths[0];
  int block_idx = 1;  // 1-based over the 8 basic blocks
  for (int stage = 0; stage < 4; ++stage) {
    for (int b = 0; b < 2; ++b) {
      const int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      const bool lr = cfg.first_lowrank_block > 0 &&
                      block_idx >= cfg.first_lowrank_block;
      blocks_.push_back(std::make_unique<BasicBlock>(
          c_in, widths[stage], stride, lr, cfg.rank_ratio, rng));
      register_child(blocks_.back().get());
      c_in = widths[stage];
      ++block_idx;
    }
  }
  register_child(&fc_);
}

ag::Var ResNet18Cifar::forward(const ag::Var& x) {
  ag::Var out = ag::relu(bn1_.forward(conv1_.forward(x)));
  for (auto& b : blocks_) out = b->forward(out);
  out = ag::global_avgpool(out);
  return fc_.forward(out);
}

int64_t ResNet18Cifar::forward_macs(int64_t h, int64_t w) const {
  int64_t macs = conv1_.c_in() * conv1_.c_out() * 9 * h * w;
  for (const auto& b : blocks_) macs += b->forward_macs(h, w, &h, &w);
  macs += fc_.in_features() * fc_.out_features();
  return macs;
}

// ---------------- ResNet50 / WideResNet-50-2 (ImageNet) ----------------

ResNet50::ResNet50(const ResNetImageNetConfig& cfg, Rng& rng)
    : cfg_(cfg),
      conv1_(3, scaled(64, cfg.width_mult), 7, 2, 3, rng),
      bn1_(scaled(64, cfg.width_mult)),
      fc_(scaled(2048, cfg.width_mult), cfg.num_classes, rng) {
  register_child(&conv1_);
  register_child(&bn1_);
  const int64_t base_mid = cfg.wide ? 128 : 64;
  const int kBlocks[4] = {3, 4, 6, 3};
  int64_t c_in = scaled(64, cfg.width_mult);
  for (int stage = 0; stage < 4; ++stage) {
    const int64_t mid = scaled(base_mid << stage, cfg.width_mult);
    const int64_t out = scaled(256 << stage, cfg.width_mult);
    const bool lr =
        cfg.factorize_all || (cfg.factorize_stage4 && stage == 3);
    for (int b = 0; b < kBlocks[stage]; ++b) {
      const int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      blocks_.push_back(std::make_unique<Bottleneck>(
          c_in, mid, out, stride, lr, /*factorize_downsample=*/lr,
          cfg.rank_ratio, rng));
      register_child(blocks_.back().get());
      c_in = out;
    }
  }
  register_child(&fc_);
}

ag::Var ResNet50::forward(const ag::Var& x) {
  ag::Var out = ag::relu(bn1_.forward(conv1_.forward(x)));
  out = ag::maxpool2d(out, 3, 2);
  for (auto& b : blocks_) out = b->forward(out);
  out = ag::global_avgpool(out);
  return fc_.forward(out);
}

int64_t ResNet50::forward_macs(int64_t h, int64_t w) const {
  int64_t oh = (h + 6 - 7) / 2 + 1, ow = (w + 6 - 7) / 2 + 1;
  int64_t macs = 3 * conv1_.c_out() * 49 * oh * ow;
  oh = (oh - 3) / 2 + 1;
  ow = (ow - 3) / 2 + 1;
  for (const auto& b : blocks_) macs += b->forward_macs(oh, ow, &oh, &ow);
  macs += fc_.in_features() * fc_.out_features();
  return macs;
}

}  // namespace pf::models
