// src/plan: alpha-beta simulator vs the discrete-event ring sim, the
// calibration fit, and the planner's contracts (determinism, monotonicity,
// vanilla degeneracy, and the paper's qualitative outcome on slow links).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cost_model.h"
#include "dist/ring_sim.h"
#include "plan/calibrate.h"
#include "plan/comm_sim.h"
#include "plan/frontier.h"
#include "plan/model_costs.h"
#include "plan/planner.h"
#include "plan/serve_density.h"

namespace {

using namespace pf;

// --- closed form vs discrete-event simulation -------------------------

TEST(PlanCommSim, ClosedFormMatchesRingSimAllreduce) {
  // The satellite contract: alpha-beta closed forms within 1% of the
  // event-driven ring schedule across a (p, bytes) sweep. The only
  // divergence is ceil(bytes/p) chunk rounding, negligible at >= 64 KB.
  const dist::RingLink link{};  // shared default constants
  for (int p : {2, 3, 4, 8, 16}) {
    for (int64_t bytes : {int64_t{64} << 10, int64_t{1} << 20,
                          int64_t{16} << 20, int64_t{97} << 20}) {
      const double closed = plan::collective_seconds_flat(
          plan::Coll::kAllreduce, bytes, p, link.latency_s,
          link.bandwidth_bytes_per_s);
      const double sim =
          dist::simulate_ring_allreduce(bytes, p, {link}).makespan_s;
      EXPECT_NEAR(closed, sim, 0.01 * sim)
          << "p=" << p << " bytes=" << bytes;
    }
  }
}

TEST(PlanCommSim, ClosedFormMatchesRingSimAllgather) {
  const dist::RingLink link{};
  for (int p : {2, 4, 8, 16}) {
    for (int64_t bytes : {int64_t{64} << 10, int64_t{4} << 20}) {
      const double closed = plan::collective_seconds_flat(
          plan::Coll::kAllgather, bytes, p, link.latency_s,
          link.bandwidth_bytes_per_s);
      const double sim =
          dist::simulate_ring_allgather(bytes, p, {link}).makespan_s;
      EXPECT_NEAR(closed, sim, 0.01 * sim)
          << "p=" << p << " bytes=" << bytes;
    }
  }
}

TEST(PlanCommSim, FlatFormsAreExpressionIdenticalToCostModel) {
  // Bitwise, not approximate: the planner's flat allreduce/allgather must
  // BE dist::CostModel's formulas, or rank-ratio-1.0 plans drift from the
  // DDP predictions bench_fig4_distributed prints.
  for (int p : {2, 5, 16, 33}) {
    dist::CostModel cm;
    cm.nodes = p;
    for (int64_t bytes : {int64_t{1}, int64_t{12345678}, int64_t{1} << 28}) {
      EXPECT_EQ(plan::collective_seconds_flat(plan::Coll::kAllreduce, bytes,
                                              p, cm.latency_s,
                                              cm.bandwidth_bytes_per_s),
                cm.allreduce_seconds(bytes));
      EXPECT_EQ(plan::collective_seconds_flat(plan::Coll::kAllgather, bytes,
                                              p, cm.latency_s,
                                              cm.bandwidth_bytes_per_s),
                cm.allgather_seconds(bytes));
    }
  }
}

TEST(PlanCommSim, HierarchicalIsBoundedByFlatExtremes) {
  // A two-level allreduce must cost at least the all-fast flat ring and at
  // most the all-slow flat ring, and a single-rank-per-node profile must
  // degenerate to the flat inter-node form exactly.
  dist::HardwareProfile hw = dist::HardwareProfile::rdma_100g();
  ASSERT_GT(hw.workers_per_node, 1);
  const int p = 16;
  const int64_t bytes = int64_t{44} << 20;
  for (plan::Coll c : {plan::Coll::kAllreduce, plan::Coll::kReduceScatter,
                       plan::Coll::kAllgather, plan::Coll::kBroadcast}) {
    const double two_level = plan::collective_seconds(c, bytes, p, hw);
    const double all_fast = plan::collective_seconds_flat(
        c, bytes, p, hw.intra_alpha_s, hw.intra_bandwidth_bytes_per_s);
    const double all_slow = plan::collective_seconds_flat(
        c, bytes, p, hw.alpha_s, hw.bandwidth_bytes_per_s);
    EXPECT_GE(two_level, all_fast) << plan::coll_name(c);
    EXPECT_LE(two_level, all_slow * 1.5) << plan::coll_name(c);
  }

  dist::HardwareProfile flat = hw;
  flat.workers_per_node = 1;
  EXPECT_EQ(plan::collective_seconds(plan::Coll::kAllreduce, bytes, p, flat),
            plan::collective_seconds_flat(plan::Coll::kAllreduce, bytes, p,
                                          flat.alpha_s,
                                          flat.bandwidth_bytes_per_s));
  // Inside one node, only the intra link is used.
  EXPECT_EQ(plan::collective_seconds(plan::Coll::kAllreduce, bytes,
                                     hw.workers_per_node, hw),
            plan::collective_seconds_flat(plan::Coll::kAllreduce, bytes,
                                          hw.workers_per_node,
                                          hw.intra_alpha_s,
                                          hw.intra_bandwidth_bytes_per_s));
}

// --- shared hardware constants (satellite 1) --------------------------

TEST(PlanHardware, DefaultsShareOneSetOfConstants) {
  const dist::CostModel cm{};
  const dist::RingLink link{};
  EXPECT_EQ(cm.latency_s, dist::kDefaultLinkLatencyS);
  EXPECT_EQ(cm.bandwidth_bytes_per_s, dist::kDefaultLinkBandwidthBytesPerS);
  EXPECT_EQ(link.latency_s, dist::kDefaultLinkLatencyS);
  EXPECT_EQ(link.bandwidth_bytes_per_s,
            dist::kDefaultLinkBandwidthBytesPerS);

  const dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
  EXPECT_EQ(hw.alpha_s, dist::kDefaultLinkLatencyS);
  EXPECT_EQ(hw.bandwidth_bytes_per_s, dist::kDefaultLinkBandwidthBytesPerS);

  const dist::CostModel projected = dist::cost_model_from(hw, 7);
  EXPECT_EQ(projected.nodes, 7);
  EXPECT_EQ(projected.latency_s, hw.alpha_s);
  EXPECT_EQ(projected.bandwidth_bytes_per_s, hw.bandwidth_bytes_per_s);
  const dist::RingLink plink = dist::link_from(hw);
  EXPECT_EQ(plink.latency_s, hw.alpha_s);
  EXPECT_EQ(plink.bandwidth_bytes_per_s, hw.bandwidth_bytes_per_s);
}

// --- calibration fit vs the event simulation --------------------------

TEST(PlanCalibrate, FitRecoversRingSimConstants) {
  // Feed the OLS fit timings GENERATED by the discrete-event simulation at
  // known link constants; it must recover them to < 1%. This validates the
  // solver against the simulator without any wall-clock noise.
  dist::RingLink link;
  link.latency_s = 120e-6;
  link.bandwidth_bytes_per_s = 2.5e9;
  const int p = 4;
  std::vector<std::pair<int64_t, double>> samples;
  for (int64_t bytes :
       {int64_t{256} << 10, int64_t{1} << 20, int64_t{4} << 20,
        int64_t{16} << 20}) {
    samples.emplace_back(
        bytes, dist::simulate_ring_allreduce(bytes, p, {link}).makespan_s);
  }
  const plan::LinkCalibration fit = plan::fit_alpha_beta(samples, p);
  EXPECT_NEAR(fit.alpha_s, link.latency_s, 0.01 * link.latency_s);
  EXPECT_NEAR(fit.bandwidth_bytes_per_s, link.bandwidth_bytes_per_s,
              0.01 * link.bandwidth_bytes_per_s);
  EXPECT_LT(fit.max_residual, 0.01);
}

// --- model cost introspection -----------------------------------------

TEST(PlanModelCosts, IntrospectsRealModels) {
  const plan::ModelCosts vanilla =
      plan::describe_model("resnet18", 0.25, 10, 16, 1.0, 0);
  EXPECT_TRUE(vanilla.vanilla());
  EXPECT_GT(vanilla.params, 0);
  EXPECT_EQ(vanilla.params, vanilla.dense_params);
  EXPECT_EQ(vanilla.grad_bytes(), vanilla.params * 4);
  EXPECT_GT(vanilla.fwd_flops, 0);
  EXPECT_DOUBLE_EQ(vanilla.step_flops(32), 3.0 * vanilla.fwd_flops * 32);
  EXPECT_EQ(vanilla.svd_seconds(1e9), 0);  // no factorization, no SVD

  const plan::ModelCosts hybrid =
      plan::describe_model("resnet18", 0.25, 10, 16, 0.25, 2);
  EXPECT_FALSE(hybrid.vanilla());
  EXPECT_LT(hybrid.params, vanilla.params);     // fewer params...
  EXPECT_LT(hybrid.fwd_flops, vanilla.fwd_flops);  // ...and fewer FLOPs
  EXPECT_EQ(hybrid.dense_params, vanilla.params);  // SVD input is the dense net
  EXPECT_GT(hybrid.svd_seconds(1e9), 0);

  // More aggressive factorization strictly shrinks the payload.
  const plan::ModelCosts deeper =
      plan::describe_model("resnet18", 0.25, 10, 16, 0.25, 1);
  EXPECT_LT(deeper.params, hybrid.params);
}

// --- recorded frontier ------------------------------------------------

TEST(PlanFrontier, RecordedPointsAndComposition) {
  // Recorded points reproduce exactly...
  EXPECT_DOUBLE_EQ(plan::predicted_accuracy(1.0, 0, 0), 0.993);
  EXPECT_DOUBLE_EQ(plan::predicted_accuracy(0.25, 2, 2), 0.993);
  EXPECT_DOUBLE_EQ(plan::predicted_accuracy(0.25, 2, 0), 0.933);
  // ...warm-up mitigation is monotone from scratch to the anchor...
  EXPECT_LT(plan::predicted_accuracy(0.25, 2, 0),
            plan::predicted_accuracy(0.25, 2, 1));
  EXPECT_LT(plan::predicted_accuracy(0.25, 2, 1),
            plan::predicted_accuracy(0.25, 2, 2));
  // ...and a config extreme on TWO axes pays both penalties.
  EXPECT_LT(plan::predicted_accuracy(0.125, 1, 2),
            plan::predicted_accuracy(0.125, 2, 2));
  EXPECT_LT(plan::predicted_accuracy(0.125, 1, 2),
            plan::predicted_accuracy(0.25, 1, 2));
}

// --- planner contracts ------------------------------------------------

TEST(PlanPlanner, DeterministicPlans) {
  plan::PlannerRequest req;  // defaults: resnet18, cloud-10g
  const plan::Plan a = plan::make_plan(req);
  const plan::Plan b = plan::make_plan(req);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].total_s, b.candidates[i].total_s);
    EXPECT_EQ(a.candidates[i].config_string(),
              b.candidates[i].config_string());
    EXPECT_EQ(a.candidates[i].method, b.candidates[i].method);
  }
  EXPECT_EQ(a.summary(32), b.summary(32));  // bitwise-identical rendering
}

TEST(PlanPlanner, FasterLinksNeverIncreaseModeledTime) {
  const plan::ModelCosts costs =
      plan::describe_model("resnet18", 1.0, 10, 32, 1.0, 0);
  dist::HardwareProfile slow = dist::HardwareProfile::commodity_1g();
  dist::HardwareProfile fast = slow;
  fast.alpha_s /= 10;
  fast.bandwidth_bytes_per_s *= 10;
  for (const plan::MethodCosts& mc : plan::recorded_methods()) {
    for (int p : {4, 16}) {
      for (bool overlap : {true, false}) {
        const double t_slow = plan::modeled_epoch_seconds(
            costs, mc, p, 1 << 20, 32, 50000, slow, overlap);
        const double t_fast = plan::modeled_epoch_seconds(
            costs, mc, p, 1 << 20, 32, 50000, fast, overlap);
        EXPECT_LE(t_fast, t_slow) << mc.method << " p=" << p;
      }
    }
  }
}

TEST(PlanPlanner, VanillaDegeneratesToDdpPrediction) {
  // rank ratio 1.0 + plain allreduce + flat profile must reproduce the
  // bench_fig4_distributed vanilla prediction: steps x
  // overlap_epoch_seconds.
  const plan::ModelCosts costs =
      plan::describe_model("resnet18", 1.0, 10, 32, 1.0, 0);
  const dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
  const int p = 16;
  const int64_t batch = 32, bucket = 25 << 20;
  const double images = 50000;
  const double modeled = plan::modeled_epoch_seconds(
      costs, plan::method_costs("allreduce"), p, bucket, batch, images, hw,
      /*overlap=*/true);
  const double compute = costs.step_flops(batch) / hw.flops_per_s;
  const double steps = images / (static_cast<double>(p) * batch);
  const double expected =
      steps *
      plan::overlap_epoch_seconds(compute, costs.grad_bytes(), p, hw, bucket);
  EXPECT_NEAR(modeled, expected, 1e-12 * expected);
}

TEST(PlanPlanner, HybridWinsOnCloud10g) {
  // The acceptance scenario: on the calibrated-constants 10 Gbps profile,
  // the planner must choose hybrid low-rank training over BOTH the vanilla
  // allreduce baseline and every always-on gradient compressor.
  plan::PlannerRequest req;  // cloud-10g defaults
  const plan::Plan p = plan::make_plan(req);
  ASSERT_TRUE(p.has_feasible());
  const plan::CandidateEval& best = p.best();
  EXPECT_LT(best.rank_ratio, 1.0);
  EXPECT_GT(best.hybrid_k, 0);

  double vanilla_allreduce = -1, best_compressor = -1;
  for (const plan::CandidateEval& c : p.candidates) {
    if (c.rank_ratio < 1.0) continue;
    if (c.method == "allreduce") {
      if (vanilla_allreduce < 0 || c.total_s < vanilla_allreduce)
        vanilla_allreduce = c.total_s;
    } else if (best_compressor < 0 || c.total_s < best_compressor) {
      best_compressor = c.total_s;
    }
  }
  ASSERT_GT(vanilla_allreduce, 0);
  ASSERT_GT(best_compressor, 0);
  EXPECT_LT(best.total_s, vanilla_allreduce);
  EXPECT_LT(best.total_s, best_compressor);
}

TEST(PlanPlanner, AccuracyFloorBinds) {
  plan::PlannerRequest req;
  req.accuracy_floor = 0.99;  // only the K=4 knee configs clear this
  const plan::Plan tight = plan::make_plan(req);
  ASSERT_TRUE(tight.has_feasible());
  EXPECT_GE(tight.best().predicted_acc, 0.99);

  req.accuracy_floor = 0.96;
  const plan::Plan loose = plan::make_plan(req);
  ASSERT_TRUE(loose.has_feasible());
  // A looser floor can only speed up (or tie) the chosen plan.
  EXPECT_LE(loose.best().total_s, tight.best().total_s);

  req.accuracy_floor = 1.5;  // unattainable
  const plan::Plan none = plan::make_plan(req);
  EXPECT_FALSE(none.has_feasible());
  EXPECT_NE(none.summary().find("none feasible"), std::string::npos);
  EXPECT_THROW(none.best(), std::runtime_error);
}

TEST(PlanPlanner, ComputeSlotsOversubscriptionScalesCompute) {
  // p workers on c < p cores: compute serializes by ceil(p/c). With free
  // communication the epoch must scale by exactly that factor.
  const plan::ModelCosts costs =
      plan::describe_model("resnet18", 0.25, 10, 16, 1.0, 0);
  dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
  hw.alpha_s = 0;
  hw.bandwidth_bytes_per_s = 1e18;
  const double dedicated = plan::modeled_epoch_seconds(
      costs, plan::method_costs("allreduce"), 4, 1 << 20, 32, 1024, hw,
      /*overlap=*/false);
  hw.compute_slots = 1;
  const double shared = plan::modeled_epoch_seconds(
      costs, plan::method_costs("allreduce"), 4, 1 << 20, 32, 1024, hw,
      /*overlap=*/false);
  EXPECT_NEAR(shared, 4.0 * dedicated, 1e-9 * shared);
}

TEST(PlanServeDensity, QuantizedFormatsPackMoreModelsPerGB) {
  const dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
  const plan::ServeDensity d =
      plan::serve_density("resnet18", 0.25, 10, 0.25, 2, hw);
  ASSERT_GT(d.fp32_bytes, 0);
  // Quantized formats strictly shrink the resident engine; int8 must clear
  // the paper-table 3x density target (weights are ~4x smaller, biases and
  // BN stats stay fp32).
  EXPECT_LT(d.int8_bytes, d.fp32_bytes);
  EXPECT_LT(d.bf16_bytes, d.fp32_bytes);
  EXPECT_LT(d.int8_bytes, d.bf16_bytes);
  EXPECT_GE(d.int8_per_gb / d.fp32_per_gb, 3.0);
  // models-that-fit is the serving-memory term divided by the footprint.
  EXPECT_EQ(d.fp32_models, hw.serve_mem_bytes / d.fp32_bytes);
  EXPECT_EQ(d.int8_models, hw.serve_mem_bytes / d.int8_bytes);
  EXPECT_GT(d.int8_models, d.fp32_models);
}

TEST(PlanServeDensity, DeterministicAndProfileScaled) {
  const dist::HardwareProfile big = dist::HardwareProfile::rdma_100g();
  const dist::HardwareProfile small = dist::HardwareProfile::commodity_1g();
  const plan::ServeDensity a =
      plan::serve_density("resnet18", 0.25, 10, 0.25, 2, big);
  const plan::ServeDensity b =
      plan::serve_density("resnet18", 0.25, 10, 0.25, 2, big);
  // Same request twice -> identical introspected footprints (the builder
  // seeds its own Rng; no global state leaks in).
  EXPECT_EQ(a.fp32_bytes, b.fp32_bytes);
  EXPECT_EQ(a.int8_bytes, b.int8_bytes);
  EXPECT_EQ(a.bf16_bytes, b.bf16_bytes);
  // Density per GB is profile-independent; the fleet-size term scales with
  // the profile's serving memory.
  const plan::ServeDensity c =
      plan::serve_density("resnet18", 0.25, 10, 0.25, 2, small);
  EXPECT_EQ(a.int8_bytes, c.int8_bytes);
  EXPECT_GT(a.int8_models, c.int8_models);
}

}  // namespace
