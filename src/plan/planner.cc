#include "plan/planner.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "dist/cost_model.h"

namespace pf::plan {

namespace {

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

double modeled_epoch_seconds(const ModelCosts& costs, const MethodCosts& mc,
                             int workers, int64_t bucket_bytes,
                             int64_t per_worker_batch,
                             double images_per_epoch,
                             const dist::HardwareProfile& hw, bool overlap,
                             double compute_override_s) {
  const double steps =
      images_per_epoch /
      (static_cast<double>(workers) * static_cast<double>(per_worker_batch));
  // Ranks sharing compute (shm workers on one host) serialize: p ranks on
  // `compute_slots` slots step ceil(p/slots) x slower than a lone replica.
  const double oversub =
      hw.compute_slots > 0
          ? static_cast<double>((workers + hw.compute_slots - 1) /
                                hw.compute_slots)
          : 1.0;
  // A synchronous step finishes when the slowest participating rank does:
  // heterogeneous profiles (hw.worker_speeds) stretch compute by the
  // slowest of the first `workers` ranks, which is what lets the planner
  // answer "is the slow node worth keeping" (bench_elastic's hetero table).
  const double compute =
      (compute_override_s > 0
           ? compute_override_s
           : costs.step_flops(per_worker_batch) / hw.flops_per_s) *
      oversub / hw.slowest_speed(workers);
  const int64_t bytes = costs.grad_bytes();
  if (mc.collective == dist::Coll::kAllreduce && mc.encode_s_per_byte == 0 &&
      overlap) {
    // Plain flat-buffer allreduce under DDP bucketed overlap: the
    // bench_fig4_distributed model, generalized to hierarchical profiles.
    return steps *
           dist::overlap_epoch_seconds(compute, bytes, workers, hw,
                                       bucket_bytes);
  }
  // Synchronous step accounting (the shm executor's schedule, and the one
  // encode/decode passes force anyway): compute, encode, collective,
  // decode back to back. The whole payload is priced as one collective --
  // calibration fits (alpha, B) over total payload at the production
  // bucket size, so per-bucket overheads live in the fitted coefficients.
  const int64_t payload = static_cast<int64_t>(
      mc.payload_factor * static_cast<double>(bytes));
  const double comm =
      static_cast<double>(mc.n_messages) *
      dist::collective_seconds(mc.collective, payload, workers, hw);
  const double encode = mc.encode_s_per_byte * static_cast<double>(bytes);
  const double decode =
      mc.decode_s_per_byte * static_cast<double>(payload) *
      (mc.decode_scales_with_workers ? static_cast<double>(workers - 1)
                                     : 1.0);
  return steps * (compute + encode + comm + decode);
}

std::string CandidateEval::config_string() const {
  if (rank_ratio >= 1.0 || hybrid_k <= 0) return "vanilla";
  if (reproject_every > 0)
    return fmt("hybrid r=%.3g K=%d wu=%d R=%d", rank_ratio, hybrid_k,
               warmup_epochs, reproject_every);
  return fmt("hybrid r=%.3g K=%d wu=%d", rank_ratio, hybrid_k,
             warmup_epochs);
}

bool Plan::has_feasible() const {
  for (const CandidateEval& c : candidates)
    if (c.feasible) return true;
  return false;
}

const CandidateEval& Plan::best() const {
  for (const CandidateEval& c : candidates)
    if (c.feasible) return c;
  throw std::runtime_error("plan: no candidate meets the accuracy floor");
}

std::string Plan::summary(int top_n) const {
  std::string s;
  s += fmt("plan: %s width=%.3g classes=%lld batch=%lld epochs=%d "
           "images=%.6g floor=%.4f\n",
           request.model.c_str(), request.width,
           static_cast<long long>(request.classes),
           static_cast<long long>(request.per_worker_batch), request.epochs,
           request.images_per_epoch, request.accuracy_floor);
  s += fmt("profile: %s alpha=%.6g s B=%.6g B/s intra_alpha=%.6g s "
           "intra_B=%.6g B/s wpn=%d flops=%.6g/s overlap=%d\n",
           request.hw.name.c_str(), request.hw.alpha_s,
           request.hw.bandwidth_bytes_per_s, request.hw.intra_alpha_s,
           request.hw.intra_bandwidth_bytes_per_s,
           request.hw.workers_per_node, request.hw.flops_per_s,
           request.overlap ? 1 : 0);
  if (request.hw.heterogeneous())
    s += fmt("hetero: %d rank speeds, slowest=%.4g\n",
             static_cast<int>(request.hw.worker_speeds.size()),
             request.hw.slowest_speed(
                 static_cast<int>(request.hw.worker_speeds.size())));
  if (request.measured_step_seconds > 0)
    s += fmt("calibrated step: %.6g s (vanilla fwd+bwd+opt)\n",
             request.measured_step_seconds);
  s += fmt("%-22s %-12s %3s %6s %7s %9s %9s %8s %10s %4s\n", "config",
           "method", "p", "bkt_MB", "acc", "wu_ep_s", "ep_s", "svd_s",
           "total_s", "ok");
  const int n = std::min<int>(top_n, static_cast<int>(candidates.size()));
  for (int i = 0; i < n; ++i) {
    const CandidateEval& c = candidates[static_cast<size_t>(i)];
    s += fmt("%-22s %-12s %3d %6.1f %7.4f %9.4g %9.4g %8.4g %10.4g %4s\n",
             c.config_string().c_str(), c.method.c_str(), c.workers,
             static_cast<double>(c.bucket_bytes) / (1 << 20),
             c.predicted_acc, c.warmup_epoch_s, c.final_epoch_s, c.svd_s,
             c.total_s, c.feasible ? "yes" : "no");
  }
  if (has_feasible()) {
    const CandidateEval& b = best();
    s += fmt("best: %s method=%s p=%d bucket=%lldB total=%.4g s "
             "acc=%.4f\n",
             b.config_string().c_str(), b.method.c_str(), b.workers,
             static_cast<long long>(b.bucket_bytes), b.total_s,
             b.predicted_acc);
  } else {
    s += "best: none feasible (accuracy floor too high for the recorded "
         "frontier)\n";
  }
  return s;
}

Plan make_plan(const PlannerRequest& req) {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::runtime_error(std::string("plan: ") + what);
  };
  for (int w : req.workers) require(w >= 1, "workers must be >= 1");
  for (int64_t b : req.bucket_bytes)
    require(b >= 1, "bucket_bytes must be >= 1");
  require(req.per_worker_batch >= 1, "per_worker_batch must be >= 1");
  require(req.epochs >= 1, "epochs must be >= 1");
  require(req.images_per_epoch > 0, "images_per_epoch must be > 0");

  Plan plan;
  plan.request = req;
  const MethodCosts& plain = method_costs("allreduce");
  const ModelCosts vanilla_costs = describe_model(
      req.model, req.width, req.classes, req.input_hw, 1.0, 0);

  // Introspect each hybrid shape once, not per (workers, bucket, method).
  struct HybridShape {
    double ratio;
    int k;
    ModelCosts costs;
  };
  std::vector<HybridShape> shapes;
  for (double r : req.rank_ratios) {
    if (r >= 1.0) continue;  // rank ratio 1.0 IS the vanilla candidate
    for (int k : req.hybrid_ks)
      shapes.push_back({r, k,
                        describe_model(req.model, req.width, req.classes,
                                       req.input_hw, r, k)});
  }

  // Calibrated compute: one measured vanilla step anchors every config via
  // its introspected FLOP ratio.
  auto compute_override = [&](const ModelCosts& costs) {
    if (req.measured_step_seconds <= 0) return 0.0;
    return req.measured_step_seconds * costs.fwd_flops /
           vanilla_costs.fwd_flops;
  };

  auto epoch_s = [&](const ModelCosts& costs, const MethodCosts& mc,
                     int workers, int64_t bucket) {
    return modeled_epoch_seconds(costs, mc, workers, bucket,
                                 req.per_worker_batch, req.images_per_epoch,
                                 req.hw, req.overlap,
                                 compute_override(costs));
  };

  for (int workers : req.workers) {
    for (int64_t bucket : req.bucket_bytes) {
      for (const std::string& method : req.methods) {
        const MethodCosts& mc = method_costs(method);
        {  // vanilla: `method` reduces the dense gradient every step
          CandidateEval e;
          e.rank_ratio = 1.0;
          e.hybrid_k = 0;
          e.warmup_epochs = 0;
          e.bucket_bytes = bucket;
          e.workers = workers;
          e.method = method;
          e.grad_bytes = vanilla_costs.grad_bytes();
          e.predicted_acc = predicted_accuracy(1.0, 0, 0) * mc.acc_factor;
          e.feasible = e.predicted_acc >= req.accuracy_floor;
          e.final_epoch_s = epoch_s(vanilla_costs, mc, workers, bucket);
          e.total_s = static_cast<double>(req.epochs) * e.final_epoch_s;
          plan.candidates.push_back(e);
        }
        for (const HybridShape& h : shapes) {
          for (int wu : req.warmup_epochs) {
            if (wu >= req.epochs) continue;
            // With no warm-up phase the reducer choice is moot; keep one
            // canonical (allreduce-labelled) candidate instead of clones.
            if (wu == 0 && method != "allreduce") continue;
            for (int reproj : req.reproject_every) {
              // Refresh rounds fire at low-rank epochs wu+R, wu+2R, ...
              // strictly before the last epoch index (core/trainer.cc).
              const int n_refresh =
                  reproj > 0 ? (req.epochs - 1 - wu) / reproj : 0;
              // R too large to ever fire degenerates to the R=0 candidate;
              // keep the canonical one instead of clones.
              if (reproj > 0 && n_refresh == 0) continue;
              CandidateEval e;
              e.rank_ratio = h.ratio;
              e.hybrid_k = h.k;
              e.warmup_epochs = wu;
              e.bucket_bytes = bucket;
              e.workers = workers;
              e.method = method;
              e.reproject_every = reproj;
              e.grad_bytes = h.costs.grad_bytes();
              // The warm-up reducer's accuracy cost applies on top of the
              // recorded (ratio, K, wu) frontier point.
              e.predicted_acc =
                  predicted_accuracy(h.ratio, h.k, wu) * mc.acc_factor;
              e.feasible = e.predicted_acc >= req.accuracy_floor;
              e.warmup_epoch_s = epoch_s(vanilla_costs, mc, workers, bucket);
              // Factorized phase always ships plain allreduce: low-rank
              // factor gradients sum, no encoding needed (the paper's core
              // "no extra cost" claim).
              e.final_epoch_s = epoch_s(h.costs, plain, workers, bucket);
              e.svd_s = h.costs.svd_seconds(req.hw.flops_per_s);
              // Each refresh round replaces a low-rank epoch with a dense
              // one (dense compute + dense allreduce) and pays a fresh SVD.
              const double refresh_epoch_s =
                  epoch_s(vanilla_costs, plain, workers, bucket);
              e.total_s = static_cast<double>(wu) * e.warmup_epoch_s +
                          e.svd_s +
                          static_cast<double>(req.epochs - wu - n_refresh) *
                              e.final_epoch_s +
                          static_cast<double>(n_refresh) *
                              (refresh_epoch_s + e.svd_s);
              plan.candidates.push_back(e);
            }
          }
        }
      }
    }
  }

  std::stable_sort(
      plan.candidates.begin(), plan.candidates.end(),
      [](const CandidateEval& a, const CandidateEval& b) {
        if (a.feasible != b.feasible) return a.feasible;
        if (a.total_s != b.total_s) return a.total_s < b.total_s;
        return std::tie(a.rank_ratio, a.hybrid_k, a.warmup_epochs,
                        a.reproject_every, a.bucket_bytes, a.workers,
                        a.method) <
               std::tie(b.rank_ratio, b.hybrid_k, b.warmup_epochs,
                        b.reproject_every, b.bucket_bytes, b.workers,
                        b.method);
      });
  return plan;
}

}  // namespace pf::plan
