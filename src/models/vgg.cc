#include "models/vgg.h"

#include <algorithm>
#include <cmath>

#include "core/factorize.h"

namespace pf::models {

namespace {

// VGG-19 plan: channel width per conv layer; `true` = max-pool after.
struct Plan {
  int64_t width;
  bool pool_after;
};
constexpr Plan kVgg19Plan[] = {
    {64, false},  {64, true},    // conv1-2
    {128, false}, {128, true},   // conv3-4
    {256, false}, {256, false}, {256, false}, {256, true},   // conv5-8
    {512, false}, {512, false}, {512, false}, {512, true},   // conv9-12
    {512, false}, {512, false}, {512, false}, {512, true},   // conv13-16
};

constexpr Plan kVgg11Plan[] = {
    {64, true},                  // conv1
    {128, true},                 // conv2
    {256, false}, {256, true},   // conv3-4
    {512, false}, {512, true},   // conv5-6
    {512, false}, {512, true},   // conv7-8
};

int64_t scaled(int64_t w, double mult) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::lround(w * mult)));
}

}  // namespace

Vgg19::Vgg19(const VggConfig& cfg, Rng& rng) : cfg_(cfg) {
  register_child(&features_);
  register_child(&classifier_);

  int64_t c_in = cfg.in_channels;
  int layer_idx = 1;
  const Plan* plan = kVgg19Plan;
  size_t plan_size = std::size(kVgg19Plan);
  if (cfg.variant == VggVariant::kVgg11) {
    plan = kVgg11Plan;
    plan_size = std::size(kVgg11Plan);
  }
  for (size_t pi = 0; pi < plan_size; ++pi) {
    const Plan& p = plan[pi];
    const int64_t c_out = scaled(p.width, cfg.width_mult);
    const bool low_rank =
        cfg.k_first_lowrank > 0 && layer_idx >= cfg.k_first_lowrank;
    int64_t rank = 0;
    if (low_rank) {
      rank = core::ratio_rank(c_in * 9, c_out, cfg.rank_ratio);
      features_.emplace<nn::LowRankConv2d>(c_in, c_out, 3, 1, 1, rank, rng);
    } else {
      features_.emplace<nn::Conv2d>(c_in, c_out, 3, 1, 1, rng);
    }
    features_.emplace<nn::BatchNorm2d>(c_out);
    features_.emplace<nn::ReLU>();
    if (p.pool_after) features_.emplace<nn::MaxPool2d>(2, 2);
    conv_specs_.push_back(ConvSpec{c_in, c_out, rank, p.pool_after});
    c_in = c_out;
    ++layer_idx;
  }

  classifier_.emplace<nn::Flatten>();
  const int64_t feat = c_in;  // 1x1 spatial after five pools on 32x32
  if (cfg.lth_classifier) {
    classifier_.emplace<nn::Linear>(feat, cfg.num_classes, rng);
    fc_specs_.push_back({feat, cfg.num_classes});
    fc_ranks_.push_back(0);
  } else {
    const bool fc_lr = cfg.factorize_fc && cfg.k_first_lowrank > 0;
    const int64_t fc_rank = core::ratio_rank(feat, feat, cfg.rank_ratio);
    for (int i = 0; i < 2; ++i) {
      if (fc_lr) {
        classifier_.emplace<nn::LowRankLinear>(feat, feat, fc_rank, rng);
        fc_ranks_.push_back(fc_rank);
      } else {
        classifier_.emplace<nn::Linear>(feat, feat, rng);
        fc_ranks_.push_back(0);
      }
      classifier_.emplace<nn::ReLU>();
      fc_specs_.push_back({feat, feat});
    }
    // Last FC stays dense: "its rank is equal to the number of classes"
    // (Section 3).
    classifier_.emplace<nn::Linear>(feat, cfg.num_classes, rng);
    fc_specs_.push_back({feat, cfg.num_classes});
    fc_ranks_.push_back(0);
  }
}

ag::Var Vgg19::forward(const ag::Var& x) {
  return classifier_.forward(features_.forward(x));
}

int64_t Vgg19::forward_macs(int64_t h, int64_t w) const {
  int64_t macs = 0;
  for (const ConvSpec& s : conv_specs_) {
    if (s.rank == 0) {
      macs += s.c_in * s.c_out * 9 * h * w;
    } else {
      macs += s.c_in * s.rank * 9 * h * w;  // thin kxk conv
      macs += s.rank * s.c_out * h * w;     // 1x1 up-projection
    }
    if (s.pool_after) {
      h /= 2;
      w /= 2;
    }
  }
  for (size_t i = 0; i < fc_specs_.size(); ++i) {
    const auto [in, out] = fc_specs_[i];
    const int64_t r = fc_ranks_[i];
    macs += r == 0 ? in * out : r * (in + out);
  }
  return macs;
}

}  // namespace pf::models
