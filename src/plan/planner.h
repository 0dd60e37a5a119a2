// The `pf plan` auto-tuner: searches (rank ratio, hybrid-K, warm-up epochs,
// DDP bucket size, worker count, compression method) for the fastest
// modeled time-to-accuracy meeting an accuracy floor -- the paper's Table
// 19/20 trade-off study turned into a decision procedure.
//
// Deterministic by construction: model costs are introspected from built
// models (model_costs.h), accuracy comes from the recorded frontier
// (frontier.h), and communication from the one alpha-beta model
// (dist/cost_model.h). Same request -> bitwise-identical plan
// (tests/plan_test.cc asserts it); measurement only enters through the
// HardwareProfile the caller passes (e.g. plan::calibrated_profile) and the
// optional measured_step_seconds override.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/hardware.h"
#include "plan/frontier.h"
#include "plan/model_costs.h"

namespace pf::plan {

struct PlannerRequest {
  std::string model = "resnet18";
  double width = 1.0;
  int64_t classes = 10;
  int64_t input_hw = 32;
  int64_t per_worker_batch = 32;
  int epochs = 8;                    // recipe length (frontier scale)
  double images_per_epoch = 50000;   // CIFAR-sized default
  double accuracy_floor = 0.96;      // fraction, vs the recorded frontier
  dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
  // true: DDP bucketed overlap hides plain-allreduce comm behind backward
  // (the bench_fig4 model). false: synchronous step accounting, matching
  // the shm executor's barrier-per-bucket schedule -- use for calibrated
  // verification against ShmDataParallelTrainer.
  bool overlap = true;
  // Measured seconds of one real vanilla fwd+bwd+step at per_worker_batch
  // (calibrate.h: measure_step_seconds). > 0 replaces the flops-derived
  // compute estimate; other configs scale it by their introspected FLOP
  // ratio, so one measurement calibrates the whole search space.
  double measured_step_seconds = 0;

  // Search grids (defaults mirror the paper's Table 19/20 knobs).
  std::vector<double> rank_ratios = {0.125, 0.25, 0.5};
  std::vector<int> hybrid_ks = {1, 2, 4};
  std::vector<int> warmup_epochs = {0, 1, 2, 4};
  std::vector<int64_t> bucket_bytes = {1 << 20, 25 << 20};
  std::vector<int> workers = {4, 8, 16};
  std::vector<std::string> methods = {"allreduce", "powersgd-r4", "signum",
                                      "topk-1pct"};
  // AB-style re-projection cadence grid (core::RankPolicy::reproject_every).
  // Each R > 0 prices the periodic full-rank refresh rounds: a dense epoch
  // (vanilla compute + dense allreduce) plus a fresh SVD, every R low-rank
  // epochs. The default {0} (never refresh) keeps existing plans unchanged.
  std::vector<int> reproject_every = {0};
};

struct CandidateEval {
  // Knobs. rank_ratio 1.0 / hybrid_k 0 = vanilla; `method` is the gradient
  // reducer (for hybrids: during warm-up -- the factorized phase always
  // runs plain allreduce, its payloads sum).
  double rank_ratio = 1.0;
  int hybrid_k = 0;
  int warmup_epochs = 0;
  int64_t bucket_bytes = 25 << 20;
  int workers = 16;
  std::string method = "allreduce";
  int reproject_every = 0;  // R > 0: refresh round every R low-rank epochs

  int64_t grad_bytes = 0;   // final-phase flat gradient
  double predicted_acc = 0; // recorded-frontier prediction
  double warmup_epoch_s = 0;
  double final_epoch_s = 0;
  double svd_s = 0;
  double total_s = 0;       // full-recipe modeled time
  bool feasible = false;    // predicted_acc >= floor

  std::string config_string() const;  // "hybrid r=0.25 K=2 wu=2 ..." label
};

struct Plan {
  PlannerRequest request;
  // Every evaluated candidate, best-first (feasible before infeasible,
  // then ascending total_s, ties broken on the knob tuple).
  std::vector<CandidateEval> candidates;

  bool has_feasible() const;
  const CandidateEval& best() const;  // throws when none feasible
  // Deterministic rendering (fixed precision): the determinism test
  // compares plans bitwise through this.
  std::string summary(int top_n = 8) const;
};

// Modeled epoch seconds for one configuration point -- exposed so tests can
// pin the degeneracy (vanilla + allreduce + flat profile == steps *
// overlap_epoch_seconds, the prediction bench_fig4_distributed prints)
// and monotonicity properties. `compute_override_s` > 0 replaces the
// flops-derived per-step compute.
double modeled_epoch_seconds(const ModelCosts& costs, const MethodCosts& mc,
                             int workers, int64_t bucket_bytes,
                             int64_t per_worker_batch,
                             double images_per_epoch,
                             const dist::HardwareProfile& hw, bool overlap,
                             double compute_override_s = 0);

// Throws std::runtime_error for a request no cluster can run: a `workers`
// or `bucket_bytes` entry < 1, per_worker_batch < 1, epochs < 1, or
// images_per_epoch <= 0 (each would otherwise price to inf, NaN or a
// negative "best" time).
Plan make_plan(const PlannerRequest& req);

}  // namespace pf::plan
