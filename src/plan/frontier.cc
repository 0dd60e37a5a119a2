#include "plan/frontier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pf::plan {

const std::vector<FrontierPoint>& recorded_frontier() {
  // 3-seed means from the recorded ResNet-18-class runs (EXPERIMENTS.md:
  // Table 8 ablation, Figure 3(b) E_wu sweep, rank-policy knee sweep).
  // Shape, not folklore: hybrid-with-warm-up sits at the vanilla level,
  // low-rank-from-scratch clearly below it, accuracy saturates at rank
  // ratio 0.25, and over-long warm-up gives the SVD too little fine-tuning
  // room (the Fig 3(b) mid-range peak).
  static const std::vector<FrontierPoint> table = {
      {1.0, 0, 0, 0.993},    // vanilla baseline
      {0.50, 2, 2, 0.993},   // ratio sweep: saturated at and above 0.25
      {0.25, 2, 2, 0.993},
      {0.125, 2, 2, 0.983},  // below the knee: measurable drop
      {0.25, 2, 0, 0.933},   // low-rank from scratch (Table 8 contrast)
      {0.25, 2, 1, 0.967},
      {0.25, 2, 4, 0.975},   // over-warm-up: Fig 3(b) falls past the peak
      {0.25, 4, 2, 0.995},   // larger K keeps more of the net dense
      {0.25, 1, 2, 0.978},   // fully factorized (K = 1) gives a little back
  };
  return table;
}

namespace {

// The recorded table is three 1-D sweeps around the anchor (0.25, 2, 2).
constexpr double kAnchorRatio = 0.25;
constexpr int kAnchorK = 2;
constexpr int kAnchorWu = 2;

// Piecewise-linear interpolation over (x, acc) pairs, clamped outside the
// recorded range. `pts` need not be sorted (the table is small).
double interp(std::vector<std::pair<double, double>> pts, double x) {
  std::sort(pts.begin(), pts.end());
  if (x <= pts.front().first) return pts.front().second;
  if (x >= pts.back().first) return pts.back().second;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (x <= pts[i].first) {
      const double t =
          (x - pts[i - 1].first) / (pts[i].first - pts[i - 1].first);
      return pts[i - 1].second + t * (pts[i].second - pts[i - 1].second);
    }
  }
  return pts.back().second;
}

}  // namespace

double predicted_accuracy(double rank_ratio, int hybrid_k,
                          int warmup_epochs) {
  double vanilla_acc = 0, anchor_acc = 0;
  std::vector<std::pair<double, double>> ratio_axis, k_axis, wu_axis;
  for (const FrontierPoint& f : recorded_frontier()) {
    if (f.rank_ratio >= 1.0) {
      vanilla_acc = f.final_acc;
      // The barely-compressed limit of the ratio sweep is the dense model.
      ratio_axis.emplace_back(1.0, f.final_acc);
      continue;
    }
    if (f.hybrid_k == kAnchorK && f.warmup_epochs == kAnchorWu)
      ratio_axis.emplace_back(f.rank_ratio, f.final_acc);
    if (f.rank_ratio == kAnchorRatio && f.warmup_epochs == kAnchorWu)
      k_axis.emplace_back(f.hybrid_k, f.final_acc);
    if (f.rank_ratio == kAnchorRatio && f.hybrid_k == kAnchorK)
      wu_axis.emplace_back(f.warmup_epochs, f.final_acc);
    if (f.rank_ratio == kAnchorRatio && f.hybrid_k == kAnchorK &&
        f.warmup_epochs == kAnchorWu)
      anchor_acc = f.final_acc;
  }
  if (rank_ratio >= 1.0 || hybrid_k <= 0) return vanilla_acc;
  // Additive deviation from the anchor, one term per recorded sweep: the
  // sweeps vary one knob at a time, so their deviations compose additively
  // to first order (a config extreme on two axes pays both penalties --
  // something nearest-neighbor lookup cannot express).
  const double acc = anchor_acc +
                     (interp(ratio_axis, rank_ratio) - anchor_acc) +
                     (interp(k_axis, hybrid_k) - anchor_acc) +
                     (interp(wu_axis, warmup_epochs) - anchor_acc);
  return std::min(1.0, std::max(0.0, acc));
}

const std::vector<MethodCosts>& recorded_methods() {
  // Payload factors follow from each encoding's definition; the per-byte
  // encode/decode rates are recorded from bench_fig4_distributed /
  // bench_fig7_binary_quant on this substrate (order-of-magnitude numbers:
  // what matters to the planner is that PowerSGD pays encode, and the
  // allgather family pays decode that grows with the worker count --
  // exactly the paper's Figure 4 / appendix F structure).
  static const std::vector<MethodCosts> table = {
      // Uncompressed flat-buffer allreduce: the optimized vanilla baseline
      // and what Pufferfish itself runs on the factorized model.
      {"allreduce", dist::Coll::kAllreduce, 1.0, 1, 0.0, 0.0, false, 1.0},
      // PowerSGD rank 4: P and Q rounds (2 messages), tiny payload, but a
      // Gram-Schmidt + two GEMMs encode pass over every matrix gradient.
      {"powersgd-r4", dist::Coll::kAllreduce, 0.15, 2, 4.0e-9, 1.0e-9, false,
       0.995},
      // SIGNUM: 1 bit/coordinate, majority vote decoded per peer.
      {"signum", dist::Coll::kAllgather, 1.0 / 32.0, 1, 0.3e-9, 8.0e-9, true,
       0.95},
      // Top-k 1%: (index, value) pairs = 8 bytes per kept coordinate.
      {"topk-1pct", dist::Coll::kAllgather, 0.02, 1, 1.5e-9, 2.0e-9, true,
       0.99},
      // Variance-gated transmission (Tsuzuku et al.,
      // compress::VarianceGateReducer): per-layer mean/variance gating with
      // error feedback skips ambiguous layers, so the average payload is a
      // fraction of the dense gradient (0.6 recorded from
      // bench_adaptive_frontier on this substrate); sent layers are dense
      // floats, so the collective stays allreduce and decode is free. Error
      // feedback keeps the accuracy cost marginal.
      {"variance-gate", dist::Coll::kAllreduce, 0.6, 1, 0.5e-9, 0.2e-9, false,
       0.998},
  };
  return table;
}

const MethodCosts& method_costs(const std::string& method) {
  for (const MethodCosts& m : recorded_methods())
    if (m.method == method) return m;
  throw std::runtime_error("plan: unknown method " + method);
}

}  // namespace pf::plan
