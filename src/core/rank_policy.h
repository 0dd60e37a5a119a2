// First-class rank-allocation policies.
//
// The paper uses one global rule -- rank = 0.25 * initial rank -- and cites
// per-layer allocation (Idelbayev & Carreira-Perpinan) as future work.
// RankPolicy packages that rule plus three adaptive relatives:
//
//   * kFixedRatio    -- the paper's global rule (shape-only).
//   * kEnergy        -- per-layer spectral-energy allocation: inspect each
//                       (warm-up trained) layer's spectrum and spend rank
//                       where the energy is.
//   * kVarianceGated -- variance-based gradient compression (Tsuzuku et
//                       al.): ranks follow the fixed-ratio rule, but the
//                       warm-up phase gates per-layer gradient transmission
//                       on a mean/variance ambiguity criterion with error
//                       feedback (compress::VarianceGateReducer).
//   * kAbReproject   -- AB-Training-style periodic re-projection: every
//                       `reproject_every` epochs the trainer runs one
//                       full-rank refresh round, re-SVDs each factorized
//                       layer, and lets its rank shrink or grow under the
//                       energy criterion (core::reproject).
//
// `plan(model)` walks a module tree and reports, per factorizable layer,
// the rank each policy would assign and the resulting parameter counts --
// the analysis the rank-policy ablation bench prints.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace pf::core {

struct RankPolicy {
  enum class Kind { kFixedRatio, kEnergy, kVarianceGated, kAbReproject };
  Kind kind = Kind::kFixedRatio;
  double ratio = 0.25;    // kFixedRatio / kVarianceGated: fraction of the
                          // initial rank
  double energy = 0.9;    // kEnergy / kAbReproject: squared-spectral-mass
                          // to retain
  int64_t min_rank = 1;

  // kVarianceGated knobs: a layer's mean gradient is transmitted when its
  // squared mass exceeds vg_threshold^2 times its variance estimate; the
  // first vg_warmup_steps steps always send (moments are still warming).
  double vg_threshold = 2.0;
  int64_t vg_warmup_steps = 8;

  // kAbReproject knob: epochs between full-rank refresh rounds (0 = never,
  // which degenerates to kEnergy behaviour).
  int64_t reproject_every = 0;

  static RankPolicy fixed(double ratio) {
    RankPolicy p;
    p.kind = Kind::kFixedRatio;
    p.ratio = ratio;
    return p;
  }
  static RankPolicy energy_based(double energy, int64_t min_rank = 1) {
    RankPolicy p;
    p.kind = Kind::kEnergy;
    p.energy = energy;
    p.min_rank = min_rank;
    return p;
  }
  static RankPolicy variance_gated(double threshold,
                                   int64_t warmup_steps = 8,
                                   double ratio = 0.25) {
    RankPolicy p;
    p.kind = Kind::kVarianceGated;
    p.vg_threshold = threshold;
    p.vg_warmup_steps = warmup_steps;
    p.ratio = ratio;
    return p;
  }
  static RankPolicy ab_reproject(double energy, int64_t every,
                                 int64_t min_rank = 1) {
    RankPolicy p;
    p.kind = Kind::kAbReproject;
    p.energy = energy;
    p.reproject_every = every;
    p.min_rank = min_rank;
    return p;
  }

  // Rank for a dense (out, in)-style layer whose unrolled weight is `w`.
  // kFixedRatio / kVarianceGated ignore the values and apply the paper's
  // rule (core::ratio_rank) to the shape; kEnergy / kAbReproject inspect
  // the spectrum. The result is always clamped to [1, min(rows, cols)] -- a
  // min_rank larger than the layer's full rank cannot request an
  // over-complete factorization.
  int64_t rank_for(const Tensor& unrolled_weight) const;

  // Stable on-disk encoding (kind word + three knob words, layout per
  // kind), used by TrainState snapshots (core/checkpoint.h): a resumed run
  // verifies it was handed the policy that produced the snapshot, because
  // silently continuing a 0.25-ratio run under an energy policy would
  // fine-tune a different hybrid than the one the snapshot's phase was
  // planned for. decode() rejects unknown kind words with a
  // clear error instead of silently treating them as kFixedRatio.
  std::array<uint64_t, 4> encode() const;
  static RankPolicy decode(const std::array<uint64_t, 4>& words);
};

// Equality compares the encoded representation: two policies are equal
// exactly when they would produce interchangeable snapshots (only the
// knobs active for the kind participate).
bool operator==(const RankPolicy& a, const RankPolicy& b);
inline bool operator!=(const RankPolicy& a, const RankPolicy& b) {
  return !(a == b);
}

// One factorizable layer's planning entry.
struct RankPlanEntry {
  std::string layer;        // type + unrolled shape, e.g. "Conv2d 576x64"
  int64_t full_rank = 0;    // min(rows, cols) of the unrolled weight
  int64_t rank = 0;         // what the policy assigns
  int64_t dense_params = 0;
  int64_t factored_params = 0;
  double retained_energy = 0;  // spectral mass the assigned rank keeps
};

struct RankPlan {
  std::vector<RankPlanEntry> entries;
  int64_t dense_params_total = 0;
  int64_t factored_params_total = 0;
  double compression() const {
    return factored_params_total > 0
               ? static_cast<double>(dense_params_total) /
                     factored_params_total
               : 1.0;
  }
};

// Walks `model` and plans ranks for every dense Conv2d / Linear layer,
// convs through their unrolled weight (core::unroll_conv). Which of them a
// hybrid factorizes is the model's choice, so this plans every candidate;
// LSTMLayer, which warm_start also factorizes, is not planned. Does not
// modify the model.
RankPlan plan_ranks(nn::Module& model, const RankPolicy& policy);

}  // namespace pf::core
