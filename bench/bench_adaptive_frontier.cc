// Adaptive-rank frontier: communication bytes vs final accuracy for the
// adaptive-rank training additions (extends Table 20's trade-off study).
//
// Four arms on the ResNet-18-class CIFAR-like setup of Figure 4(b), all on
// the 8-worker data-parallel executor with REAL gradients and REAL payload
// bytes:
//  (a) vanilla SGD + dense allreduce            -- accuracy ceiling, most bytes
//  (b) fixed-rank Pufferfish (warm-up + SVD)    -- the paper's recipe
//  (c) Pufferfish, variance-gated warm-up       -- VarianceGateReducer trims
//      the dense phase; skipped layers ride the error-feedback residual
//  (d) Pufferfish + AB-style re-projection      -- every R low-rank epochs a
//      full-rank refresh round, then re-SVD with policy-chosen ranks
//
// The bytes axis is cumulative per-worker payload over the WHOLE run
// (runtime::ShmDataParallelTrainer::cumulative_bytes_per_worker), so warm-up
// savings and refresh-round costs both land in the frontier. The acceptance
// claim: at least one adaptive arm strictly dominates fixed-rank Pufferfish
// (fewer bytes at equal-or-better accuracy).
//
// --smoke shrinks every knob for the CI target (pf_bench_adaptive_smoke);
// --json[=path] appends the machine-readable report.
#include "common.h"

#include <cstring>

#include "compress/variance_gate.h"
#include "core/factorize.h"
#include "core/rank_policy.h"
#include "dist/cluster.h"

using namespace bench;

namespace {

bool g_smoke = false;

struct ArmSpec {
  std::string name;
  bool hybrid = false;         // switch to the low-rank model after warm-up
  bool variance_gate = false;  // gate the warm-up phase's transmissions
  double vg_threshold = 0;
  int reproject_every = 0;  // R > 0: refresh round every R low-rank epochs
};

struct ArmResult {
  std::string name;
  double final_acc = 0;
  int64_t bytes = 0;  // cumulative per-worker payload, full run
  int64_t layers_sent = -1, layers_skipped = -1;  // variance-gate arms only
  int refreshes = 0;
  std::vector<dist::DistEpochRecord> records;
};

ArmResult run_arm(const ArmSpec& spec, const core::VisionModelFactory& vf,
                  const core::VisionModelFactory& hf,
                  const data::SyntheticImages& ds, int nodes,
                  const dist::DistTrainConfig& cfg, int warmup_epochs,
                  const core::RankPolicy& policy) {
  std::unique_ptr<compress::Reducer> warm_reducer;
  if (spec.variance_gate)
    warm_reducer = std::make_unique<compress::VarianceGateReducer>(
        spec.vg_threshold, /*warmup_steps=*/4);
  else
    warm_reducer = std::make_unique<compress::AllreduceReducer>();
  runtime::ShmDataParallelTrainer trainer =
      make_cluster(vf, std::move(warm_reducer), nodes, cfg);
  ArmResult out;
  out.name = spec.name;
  for (int e = 0; e < cfg.epochs; ++e) {
    if (spec.hybrid && e == warmup_epochs) {
      // Freeze the gate counters before the reducer is swapped out.
      if (auto* vg = dynamic_cast<compress::VarianceGateReducer*>(
              trainer.reducer())) {
        out.layers_sent = vg->layers_sent();
        out.layers_skipped = vg->layers_skipped();
      }
      trainer.replace_model(hf, warm_start_with(17),
                            std::make_unique<compress::AllreduceReducer>());
    }
    const bool refresh = spec.reproject_every > 0 && spec.hybrid &&
                         e > warmup_epochs &&
                         (e - warmup_epochs) % spec.reproject_every == 0;
    if (refresh) {
      // AB refresh round: densify and train this epoch at full rank (its
      // dense allreduce payload lands in the bytes axis)...
      trainer.replace_model(
          vf, [](nn::UnaryModule& from, nn::UnaryModule& to) {
            core::defactorize(from, to);
          });
      ++out.refreshes;
    }
    out.records.push_back(trainer.train_epoch(ds, e));
    if (refresh) {
      // ...then re-SVD back to low rank with policy-chosen per-layer ranks.
      trainer.replace_model(
          hf, [&](nn::UnaryModule& from, nn::UnaryModule& to) {
            Rng svd_rng(static_cast<uint64_t>(17 + e));
            core::reproject(from, to, policy, svd_rng);
          });
    }
  }
  out.final_acc = out.records.back().test_acc;
  out.bytes = trainer.cumulative_bytes_per_worker();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  std::string json_path;
  const bool want_json = JsonReport::wants_json(argc, argv, &json_path);

  banner("Adaptive-rank frontier: bytes vs accuracy",
         "extends Pufferfish Table 20 with adaptive-rank arms",
         "8 worker threads, real grads/payloads; variance-gated "
         "warm-up (Tsuzuku et al.) and AB-style re-projection rounds");

  const int64_t classes = g_smoke ? 4 : 10;
  data::SyntheticImages ds = g_smoke ? cifar_like(classes, 8, 48, 24)
                                     : cifar_like(classes, 16, 192, 96);
  const double width = g_smoke ? 0.0625 : 0.125;
  const int warmup = g_smoke ? 1 : 2;
  const int reproject_every = 2;

  const int nodes = 8;
  dist::DistTrainConfig cfg;
  cfg.epochs = g_smoke ? 4 : 8;
  cfg.global_batch = g_smoke ? 32 : 64;
  // The smoke-width model diverges under the large-batch lr ramp; give it
  // the plain small recipe instead.
  cfg.lr = g_smoke ? 0.02f : 0.08f;
  cfg.lr_warmup_epochs = g_smoke ? 0 : 2;
  cfg.lr_warmup_start = 0.02f;
  cfg.lr_milestones = {g_smoke ? 3 : 6};

  const core::VisionModelFactory vf = make_resnet18(width, 0, classes);
  const core::VisionModelFactory hf = make_resnet18(width, 2, classes);
  // Re-projection re-picks each layer's rank from the trained dense
  // weights' spectrum; min_rank keeps degenerate layers trainable.
  const core::RankPolicy policy =
      core::RankPolicy::ab_reproject(0.9, reproject_every, 2);

  const std::vector<ArmSpec> specs = {
      {"vanilla SGD", false, false, 0, 0},
      {"Pufferfish (fixed rank)", true, false, 0, 0},
      {"Pufferfish (variance-gated warm-up)", true, true, 1.5, 0},
      {"Pufferfish (AB re-projection R=2)", true, false, 0, reproject_every},
  };
  std::vector<ArmResult> arms;
  for (const ArmSpec& s : specs)
    arms.push_back(run_arm(s, vf, hf, ds, nodes, cfg, warmup, policy));

  const ArmResult& fixed = arms[1];
  metrics::Table t({"arm", "final acc (%)", "bytes/worker (total)",
                    "vs fixed rank", "gate sent/skipped", "refreshes"});
  for (const ArmResult& a : arms) {
    std::string gate = "-";
    if (a.layers_sent >= 0)
      gate = std::to_string(a.layers_sent) + "/" +
             std::to_string(a.layers_skipped);
    t.add_row({a.name, metrics::fmt(100 * a.final_acc, 1),
               metrics::fmt_bytes(a.bytes),
               metrics::fmt_ratio(static_cast<double>(a.bytes) /
                                  static_cast<double>(fixed.bytes)),
               gate, std::to_string(a.refreshes)});
  }
  t.print();

  // The acceptance check: an adaptive arm (c or d) strictly dominates the
  // fixed-rank recipe when it ships fewer bytes at >= its accuracy.
  bool dominated = false;
  for (size_t i = 2; i < arms.size(); ++i)
    if (arms[i].bytes < fixed.bytes && arms[i].final_acc >= fixed.final_acc)
      dominated = true;
  std::printf(
      "claim: variance gating trims the dense warm-up phase (error feedback "
      "defers, not drops, the skipped mass) and re-projection pays dense "
      "refresh rounds back through re-tuned ranks; adaptive dominates fixed "
      "rank here: %s\n",
      dominated ? "yes" : "no");

  if (want_json) {
    JsonReport rep;
    for (const ArmResult& a : arms) {
      rep.section(a.name);
      rep.kv("final_acc", a.final_acc);
      rep.kv("bytes_per_worker", static_cast<double>(a.bytes));
      rep.kv("refreshes", a.refreshes);
      if (a.layers_sent >= 0) {
        rep.kv("gate_layers_sent", static_cast<double>(a.layers_sent));
        rep.kv("gate_layers_skipped",
               static_cast<double>(a.layers_skipped));
      }
    }
    rep.section("frontier");
    rep.kv("adaptive_dominates_fixed", dominated ? "yes" : "no");
    rep.emit("bench_adaptive_frontier", json_path);
  }
  return 0;
}
