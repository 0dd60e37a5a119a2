// Adaptive-rank training (DESIGN.md §15): the variance-gated reducer, the
// AB-style re-projection subsystem, the rank-policy encode/decode hardening
// (unknown kinds now fail loudly), error-feedback residuals for the lossy
// reducers, and bitwise resume across a re-projection boundary -- including
// the stateful-reducer buffers in TrainState v2 snapshots.
//
// Every suite here is prefixed Adaptive* so the ctest partitions
// (pf_tests_threads4, pf_tests_adaptive) can select the whole file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "compress/variance_gate.h"
#include "core/checkpoint.h"
#include "core/rank_policy.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "models/resnet.h"
#include "nn/layers.h"
#include "nn/reproject.h"
#include "nn/serialize.h"
#include "runtime/shm_cluster.h"
#include "tensor/matmul.h"

namespace pf {
namespace {

using core::RankPolicy;

// ---------------- rank-policy encode/decode ----------------

TEST(AdaptivePolicy, EncodeDecodeRoundTripsAllKinds) {
  const RankPolicy policies[] = {
      RankPolicy::fixed(0.125),
      RankPolicy::energy_based(0.85, 3),
      RankPolicy::variance_gated(1.5, 6, 0.5),
      RankPolicy::ab_reproject(0.92, 4, 2),
  };
  for (const RankPolicy& p : policies) {
    const RankPolicy back = RankPolicy::decode(p.encode());
    EXPECT_TRUE(back == p);
    EXPECT_EQ(back.encode(), p.encode());
  }
  // Distinct kinds (and distinct knobs within a kind) never compare equal.
  for (const RankPolicy& a : policies)
    for (const RankPolicy& b : policies)
      if (&a != &b) {
        EXPECT_TRUE(a != b);
      }
  EXPECT_TRUE(RankPolicy::variance_gated(1.5, 6, 0.5) !=
              RankPolicy::variance_gated(1.5, 7, 0.5));
  EXPECT_TRUE(RankPolicy::ab_reproject(0.92, 4, 2) !=
              RankPolicy::ab_reproject(0.92, 5, 2));
}

TEST(AdaptivePolicy, DecodeRejectsUnknownKind) {
  // The latent bug this PR fixes: decode used to treat ANY unknown kind
  // word as kFixedRatio, silently resuming snapshots from newer builds
  // under the wrong policy.
  std::array<uint64_t, 4> words = RankPolicy::fixed(0.25).encode();
  words[0] = 99;
  EXPECT_THROW((void)RankPolicy::decode(words), std::runtime_error);
}

TEST(AdaptivePolicy, RankForClampsToFullRankFuzz) {
  Rng rng(33);
  for (int iter = 0; iter < 60; ++iter) {
    const int64_t m = 1 + static_cast<int64_t>(rng.next_u64() % 12);
    const int64_t n = 1 + static_cast<int64_t>(rng.next_u64() % 12);
    const Tensor w = rng.randn(Shape{m, n});
    const int64_t full = std::min(m, n);
    const RankPolicy policies[] = {
        RankPolicy::fixed(0.01),
        RankPolicy::fixed(1.5),  // ratio > 1 must still clamp
        RankPolicy::energy_based(0.5, 1),
        RankPolicy::energy_based(0.999, 20),  // min_rank > full clamps
        RankPolicy::variance_gated(2.0, 8, 0.25),
        RankPolicy::ab_reproject(0.9, 2, 20),
    };
    for (const RankPolicy& p : policies) {
      const int64_t r = p.rank_for(w);
      EXPECT_GE(r, 1) << "iter " << iter << " m=" << m << " n=" << n;
      EXPECT_LE(r, full) << "iter " << iter << " m=" << m << " n=" << n;
    }
  }
}

// ---------------- variance-gated reducer ----------------

std::vector<Tensor> const_grads(int workers, int64_t n, float value) {
  std::vector<Tensor> out;
  for (int w = 0; w < workers; ++w) out.push_back(Tensor::full(Shape{n}, value));
  return out;
}

TEST(AdaptiveGate, WarmupStepsAlwaysSend) {
  compress::VarianceGateReducer r(/*threshold=*/1e6, /*warmup_steps=*/2);
  const std::vector<Shape> shapes = {Shape{4}, Shape{4}};
  compress::ReduceStats stats;
  for (int step = 0; step < 2; ++step) {
    Tensor agg = r.reduce(const_grads(2, 8, 1.0f + step), shapes, &stats);
    for (int64_t j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(agg[j], 1.0f + step);
    // All floats ship, plus the 2-layer send mask rounded up to one byte.
    EXPECT_EQ(stats.payload_bytes_per_worker, 8 * 4 + 1);
    EXPECT_EQ(stats.collective, compress::Collective::kAllreduce);
  }
  EXPECT_EQ(r.layers_sent(), 4);
  EXPECT_EQ(r.layers_skipped(), 0);
}

TEST(AdaptiveGate, AmbiguousLayersSkipIntoResidual) {
  compress::VarianceGateReducer r(/*threshold=*/1e6, /*warmup_steps=*/1);
  const std::vector<Shape> shapes = {Shape{4}, Shape{4}};
  compress::ReduceStats stats;
  (void)r.reduce(const_grads(2, 8, 1.0f), shapes, &stats);  // warm-up: sends
  // Step 2 has nonzero variance; the huge threshold makes every layer
  // ambiguous, so nothing ships and the whole gradient defers.
  Tensor agg = r.reduce(const_grads(2, 8, 2.0f), shapes, &stats);
  for (int64_t j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(agg[j], 0.0f);
  EXPECT_EQ(stats.payload_bytes_per_worker, 1);  // mask only
  EXPECT_EQ(r.layers_sent(), 2);
  EXPECT_EQ(r.layers_skipped(), 2);
  const compress::ReducerState st = r.state();
  ASSERT_EQ(st.tensors.size(), 3u);  // mean, m2, residual
  for (int64_t j = 0; j < 8; ++j)
    EXPECT_FLOAT_EQ(st.tensors[2][j], 2.0f);  // the skipped step's mass
}

TEST(AdaptiveGate, ResidualReplaysOnNextSend) {
  // Build up a residual with an always-skip reducer, hand its state to an
  // always-send one: the next aggregate must carry current + deferred mass
  // and clear the residual (total applied update is conserved).
  compress::VarianceGateReducer skip(/*threshold=*/1e6, /*warmup_steps=*/1);
  const std::vector<Shape> shapes = {Shape{8}};
  compress::ReduceStats stats;
  (void)skip.reduce(const_grads(2, 8, 1.0f), shapes, &stats);
  (void)skip.reduce(const_grads(2, 8, 2.0f), shapes, &stats);  // deferred

  compress::VarianceGateReducer send(/*threshold=*/0.0, /*warmup_steps=*/0);
  send.set_state(skip.state());
  Tensor agg = send.reduce(const_grads(2, 8, 3.0f), shapes, &stats);
  for (int64_t j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(agg[j], 3.0f + 2.0f);
  for (int64_t j = 0; j < 8; ++j)
    EXPECT_FLOAT_EQ(send.state().tensors[2][j], 0.0f);
}

TEST(AdaptiveGate, StateRoundTripReplaysBitwise) {
  Rng rng(5);
  const std::vector<Shape> shapes = {Shape{6}, Shape{10}};
  auto step_grads = [&rng](int64_t n) {
    std::vector<Tensor> out;
    for (int w = 0; w < 3; ++w) out.push_back(rng.randn(Shape{n}));
    return out;
  };
  compress::VarianceGateReducer a(1.5, 1);
  std::vector<std::vector<Tensor>> history;
  for (int step = 0; step < 3; ++step) history.push_back(step_grads(16));
  compress::ReduceStats sa, sb;
  (void)a.reduce(history[0], shapes, &sa);
  (void)a.reduce(history[1], shapes, &sa);

  compress::VarianceGateReducer b(1.5, 1);
  b.set_state(a.state());
  Tensor out_a = a.reduce(history[2], shapes, &sa);
  Tensor out_b = b.reduce(history[2], shapes, &sb);
  EXPECT_EQ(std::memcmp(std::as_const(out_a).data(),
                        std::as_const(out_b).data(), 16 * sizeof(float)),
            0);
  EXPECT_EQ(sa.payload_bytes_per_worker, sb.payload_bytes_per_worker);
  EXPECT_EQ(a.layers_sent(), b.layers_sent());
  EXPECT_EQ(a.layers_skipped(), b.layers_skipped());
}

TEST(AdaptiveGate, SetStateValidates) {
  compress::VarianceGateReducer r(1.0, 2);
  compress::ReducerState bad;
  bad.scalars = {1, 2};  // wrong layout: needs 3 scalars + 3 tensors
  EXPECT_THROW(r.set_state(bad), std::runtime_error);

  // Empty state resets a used reducer back to its initial lazy state.
  compress::ReduceStats stats;
  (void)r.reduce(const_grads(2, 4, 1.0f), {Shape{4}}, &stats);
  EXPECT_FALSE(r.state().empty());
  r.set_state({});
  EXPECT_TRUE(r.state().empty());
  EXPECT_EQ(r.layers_sent(), 0);

  // Stateless reducers accept only an empty state: handing them a stateful
  // snapshot must fail loudly, not resume with silently reset buffers.
  compress::AllreduceReducer plain;
  compress::ReducerState stateful;
  stateful.scalars = {1};
  EXPECT_THROW(plain.set_state(stateful), std::runtime_error);
  plain.set_state({});  // no-op
}

TEST(AdaptiveGate, DeterministicAcrossRuns) {
  const std::vector<Shape> shapes = {Shape{5}, Shape{11}};
  auto run = [&shapes]() {
    Rng rng(9);
    compress::VarianceGateReducer r(1.2, 2);
    compress::ReduceStats stats;
    Tensor last;
    for (int step = 0; step < 5; ++step) {
      std::vector<Tensor> grads;
      for (int w = 0; w < 4; ++w) grads.push_back(rng.randn(Shape{16}));
      last = r.reduce(grads, shapes, &stats);
    }
    return last;
  };
  const Tensor x = run(), y = run();
  EXPECT_EQ(std::memcmp(std::as_const(x).data(), std::as_const(y).data(),
                        16 * sizeof(float)),
            0);
}

// ---------------- error feedback for signum / top-k ----------------

TEST(AdaptiveEF, SignumEFRecoversMagnitude) {
  // Feeding the SAME gradient repeatedly: with error feedback the mean
  // transmitted update approaches the true gradient (EF-signSGD), while
  // plain SIGNUM's bare sign forgets all magnitude.
  Rng rng(4);
  Tensor g = rng.randn(Shape{32});
  compress::SignumReducer ef(0.0f, /*error_feedback=*/true);
  EXPECT_EQ(ef.name(), "signum-ef");
  Tensor cum(Shape{32});
  compress::ReduceStats stats;
  const int iters = 60;
  for (int i = 0; i < iters; ++i)
    cum.add_(ef.reduce({g}, {Shape{32}}, &stats));
  cum.mul_(1.0f / iters);
  EXPECT_LT(max_abs_diff(cum, g), 0.35f * g.abs_max());

  // Plain SIGNUM transmits +-1 regardless of |g|.
  compress::SignumReducer plain(0.0f);
  EXPECT_EQ(plain.name(), "signum");
  Tensor agg = plain.reduce({g}, {Shape{32}}, &stats);
  for (int64_t j = 0; j < 32; ++j) EXPECT_FLOAT_EQ(std::abs(agg[j]), 1.0f);
}

TEST(AdaptiveEF, SignumSeedBehaviourUnchangedByDefault) {
  // The EF flag defaults off; the default-constructed reducer must still
  // produce the seed's bitwise majority-vote output and payload.
  Tensor pos = Tensor::full(Shape{4}, 2.0f);
  Tensor neg = Tensor::full(Shape{4}, -0.5f);
  compress::SignumReducer r(0.0f);
  compress::ReduceStats stats;
  Tensor agg = r.reduce({pos, pos, neg}, {Shape{4}}, &stats);
  for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(agg[j], 1.0f);
  EXPECT_EQ(stats.payload_bytes_per_worker, (4 + 7) / 8);
  EXPECT_EQ(stats.collective, compress::Collective::kAllgather);
}

TEST(AdaptiveEF, TopKWithoutEFDropsUnselectedMass) {
  // keep_ratio 0.5 of 4 coordinates: the two small ones are never in the
  // top-k. Without error feedback their mass is silently lost every step
  // (the latent bug); with it, residuals grow until they win a slot.
  Tensor g = Tensor::from_vector({1.0f, 0.9f, 0.4f, 0.3f});
  compress::ReduceStats stats;

  compress::TopKReducer noef(0.5, /*error_feedback=*/false);
  EXPECT_EQ(noef.name(), "topk-noef");
  Tensor cum_noef(Shape{4});
  for (int i = 0; i < 8; ++i)
    cum_noef.add_(noef.reduce({g}, {Shape{4}}, &stats));
  EXPECT_FLOAT_EQ(cum_noef[2], 0.0f);
  EXPECT_FLOAT_EQ(cum_noef[3], 0.0f);

  compress::TopKReducer ef(0.5);  // default: error feedback on (seed path)
  EXPECT_EQ(ef.name(), "topk");
  Tensor cum_ef(Shape{4});
  const int iters = 8;
  for (int i = 0; i < iters; ++i)
    cum_ef.add_(ef.reduce({g}, {Shape{4}}, &stats));
  for (int64_t j = 0; j < 4; ++j) EXPECT_GT(cum_ef[j], 0.0f);
  // Conservation: cumulative sent + current residual == iters * g.
  const compress::ReducerState st = ef.state();
  ASSERT_EQ(st.tensors.size(), 1u);
  for (int64_t j = 0; j < 4; ++j)
    EXPECT_NEAR(cum_ef[j] + st.tensors[0][j], iters * g[j], 1e-4f);
}

data::SyntheticImages tiny_images() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 48;
  dc.test_size = 24;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

// BN-free MLP (dist_test.cc idiom): data-parallel equivalence and clean
// convergence comparisons need no per-replica batch statistics.
std::unique_ptr<nn::UnaryModule> mlp_model(uint64_t seed) {
  Rng rng(seed);
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Flatten>();
  s->emplace<nn::Linear>(3 * 8 * 8, 16, rng);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Linear>(16, 4, rng);
  return s;
}

double final_loss_with(std::unique_ptr<compress::Reducer> reducer, float lr,
                       float momentum) {
  auto ds = tiny_images();
  dist::DistTrainConfig cfg;
  cfg.epochs = 5;
  cfg.global_batch = 16;
  cfg.lr = lr;
  cfg.momentum = momentum;
  cfg.weight_decay = 0;
  dist::CostModel cm;
  cm.nodes = 4;
  dist::DataParallelTrainer t(mlp_model(3), std::move(reducer), cm, cfg);
  return t.train(ds).back().train_loss;
}

TEST(AdaptiveEF, TopKResidualClosesConvergenceGap) {
  // The satellite regression, end to end: dropping 95% of coordinates
  // without error feedback loses gradient mass for good; the residual
  // recovers (most of) it. Momentum 0 keeps the comparison clean.
  const double topk_noef = final_loss_with(
      std::make_unique<compress::TopKReducer>(0.05, false), 0.05f, 0.0f);
  const double topk_ef = final_loss_with(
      std::make_unique<compress::TopKReducer>(0.05, true), 0.05f, 0.0f);
  EXPECT_LT(topk_ef, topk_noef);
}

TEST(AdaptiveEF, SignumEFConvergesBelowPlainSignFloor) {
  // EF-signSGD's headline property (Karimireddy et al.): at a FIXED step
  // size, bare sign descent oscillates around the optimum at an lr-sized
  // floor, while the scaled + error-fed variant keeps contracting. An
  // ill-conditioned quadratic 0.5 * sum_j s_j (x_j - t_j)^2 exposes it
  // deterministically (classification on separable toy data does not:
  // there plain sign steps drive the loss to zero too).
  auto descend = [](bool ef, float lr, int iters) {
    Rng rng(7);
    const Tensor t = rng.randn(Shape{16});
    Tensor s = Tensor::uninit(Shape{16});
    for (int64_t j = 0; j < 16; ++j)  // condition number 1e2
      s.data()[j] = std::pow(10.0f, -2.0f + 2.0f * static_cast<float>(j) / 15.0f);
    Tensor x(Shape{16});
    compress::SignumReducer r(0.0f, ef);
    compress::ReduceStats stats;
    for (int i = 0; i < iters; ++i) {
      Tensor g = Tensor::uninit(Shape{16});
      for (int64_t j = 0; j < 16; ++j) g.data()[j] = s[j] * (x[j] - t[j]);
      const Tensor step = r.reduce({g}, {Shape{16}}, &stats);
      for (int64_t j = 0; j < 16; ++j) x.data()[j] -= lr * step[j];
    }
    double loss = 0;
    for (int64_t j = 0; j < 16; ++j) {
      const double d = x[j] - t[j];
      loss += 0.5 * s[j] * d * d;
    }
    return loss;
  };
  const double plain_early = descend(false, 0.2f, 300);
  const double plain = descend(false, 0.2f, 1000);
  const double ef = descend(true, 0.2f, 1000);
  // Plain sign descent is STUCK: 700 more iterations buy nothing.
  EXPECT_NEAR(plain, plain_early, 0.3 * plain_early);
  // (measured: plain ~2e-2 at its floor, ef ~2e-5 and still contracting)
  EXPECT_LT(ef, 0.01 * plain);
}

// ---------------- defactorize / reproject ----------------

TEST(AdaptiveReproject, DefactorizeThenFullRankReprojectReconstructs) {
  Rng rng(11);
  auto hybrid = std::make_unique<nn::Sequential>();
  auto* lr = hybrid->emplace<nn::LowRankLinear>(6, 4, 2, rng);
  auto vanilla = std::make_unique<nn::Sequential>();
  auto* fc = vanilla->emplace<nn::Linear>(6, 4, rng);

  nn::defactorize(*hybrid, *vanilla);
  const Tensor dense = matmul_nt(lr->u->value, lr->v->value);
  EXPECT_TRUE(allclose(fc->weight->value, dense, 0.0f, 0.0f));

  // Re-projecting at full rank (fixed ratio 1.0 -> rank min(4,6) = 4) must
  // reconstruct the dense weight exactly up to SVD round-off.
  Rng svd_rng(7);
  const nn::ReprojectReport rep =
      nn::reproject(*vanilla, *hybrid, RankPolicy::fixed(1.0), svd_rng);
  ASSERT_EQ(rep.entries.size(), 1u);
  EXPECT_EQ(rep.entries[0].old_rank, 2);
  EXPECT_EQ(rep.entries[0].new_rank, 4);
  EXPECT_TRUE(rep.any_rank_changed());
  EXPECT_EQ(lr->rank(), 4);
  EXPECT_EQ(lr->u->value.shape(), (Shape{4, 4}));
  EXPECT_EQ(lr->v->value.shape(), (Shape{6, 4}));
  const Tensor rec = matmul_nt(lr->u->value, lr->v->value);
  EXPECT_TRUE(allclose(rec, fc->weight->value, 1e-3f, 1e-4f));
}

TEST(AdaptiveReproject, ApplyRanksValidatesBounds) {
  Rng rng(12);
  auto hybrid = std::make_unique<nn::Sequential>();
  auto* lr = hybrid->emplace<nn::LowRankLinear>(6, 4, 2, rng);

  EXPECT_EQ(nn::collect_ranks(*hybrid), (std::vector<int64_t>{2}));
  EXPECT_THROW(nn::apply_ranks(*hybrid, {0}), std::runtime_error);
  EXPECT_THROW(nn::apply_ranks(*hybrid, {5}), std::runtime_error);  // > min(4,6)
  EXPECT_THROW(nn::apply_ranks(*hybrid, {2, 2}), std::runtime_error);
  EXPECT_THROW(nn::apply_ranks(*hybrid, {}), std::runtime_error);

  nn::apply_ranks(*hybrid, {3});
  EXPECT_EQ(lr->rank(), 3);
  EXPECT_EQ(lr->u->value.shape(), (Shape{4, 3}));
  EXPECT_EQ(lr->v->value.shape(), (Shape{6, 3}));
  EXPECT_EQ(nn::collect_ranks(*hybrid), (std::vector<int64_t>{3}));
}

// ---------------- trainer integration + resume-bitwise ----------------

std::string tmp_dir(const std::string& name) {
  const std::string d = std::string(::testing::TempDir()) + name + "_" +
                        std::to_string(::getpid());
  std::filesystem::remove_all(d);
  return d;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(is), {});
}

core::VisionModelFactory resnet_factory(bool hybrid) {
  return [hybrid](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg =
        hybrid ? models::ResNetCifarConfig::pufferfish()
               : models::ResNetCifarConfig::vanilla();
    cfg.width_mult = 0.0625;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

TEST(AdaptiveReproject, TrainerRunsRefreshRounds) {
  auto ds = tiny_images();
  core::VisionTrainConfig cfg;
  cfg.epochs = 5;
  cfg.warmup_epochs = 1;
  cfg.batch = 16;
  cfg.seed = 11;
  cfg.rank_policy = RankPolicy::ab_reproject(0.9, 2, 1);
  const core::VisionResult res = core::train_vision(
      resnet_factory(false), resnet_factory(true), ds, cfg);
  ASSERT_EQ(res.epochs.size(), 5u);
  // warmup 1, R 2: the single refresh round of a 5-epoch run is epoch 3.
  for (int e = 0; e < 5; ++e) {
    EXPECT_EQ(res.epochs[static_cast<size_t>(e)].refresh_round, e == 3)
        << "epoch " << e;
    EXPECT_EQ(res.epochs[static_cast<size_t>(e)].low_rank_phase, e >= 1);
  }
  EXPECT_TRUE(std::isfinite(res.final_loss));
  EXPECT_GT(res.params, 0);
}

TEST(AdaptiveResume, VisionBitwiseAcrossReprojectBoundary) {
  // Straight 6-epoch AB-reproject run (refresh rounds at epochs 3 and 5)
  // vs crash-after-epoch-4 + resume: the continuation replays epoch 5's
  // refresh round from the snapshot's layer ranks, optimizer slots, and
  // rng stream -- final weights must be byte-identical.
  auto ds = tiny_images();
  core::VisionTrainConfig base;
  base.epochs = 6;
  base.warmup_epochs = 1;
  base.batch = 16;
  base.seed = 11;
  base.checkpoint_every = 1;
  base.rank_policy = RankPolicy::ab_reproject(0.9, 2, 1);

  const std::string dir_a = tmp_dir("adaptive_straight");
  const std::string dir_b = tmp_dir("adaptive_resumed");

  core::VisionTrainConfig straight = base;
  straight.checkpoint_dir = dir_a;
  const core::VisionResult full = core::train_vision(
      resnet_factory(false), resnet_factory(true), ds, straight);

  core::VisionTrainConfig partial = base;
  partial.epochs = 4;  // the "crash": snapshot of epoch 3's refresh survives
  partial.checkpoint_dir = dir_b;
  (void)core::train_vision(resnet_factory(false), resnet_factory(true), ds,
                           partial);

  core::VisionTrainConfig cont = base;
  cont.checkpoint_dir = dir_b;
  cont.resume = true;
  const core::VisionResult resumed = core::train_vision(
      resnet_factory(false), resnet_factory(true), ds, cont);

  ASSERT_EQ(full.epochs.size(), 6u);
  EXPECT_TRUE(full.epochs[3].refresh_round);
  EXPECT_TRUE(full.epochs[5].refresh_round);
  ASSERT_EQ(resumed.epochs.size(), 2u);
  for (size_t i = 0; i < resumed.epochs.size(); ++i) {
    EXPECT_EQ(full.epochs[4 + i].train_loss, resumed.epochs[i].train_loss)
        << "continued epoch " << i;
    EXPECT_EQ(full.epochs[4 + i].refresh_round,
              resumed.epochs[i].refresh_round);
  }
  EXPECT_EQ(full.final_loss, resumed.final_loss);
  EXPECT_EQ(full.final_acc, resumed.final_acc);
  EXPECT_EQ(full.params, resumed.params);
  EXPECT_EQ(file_bytes(core::snapshot_paths(dir_a).model),
            file_bytes(core::snapshot_paths(dir_b).model));

  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// ---------------- shm cluster: reducer state in snapshots ----------------

runtime::ShmClusterConfig shm_config() {
  runtime::ShmClusterConfig scfg;
  scfg.workers = 4;
  scfg.bucket_bytes = 16 << 10;
  scfg.train.epochs = 2;
  scfg.train.global_batch = 16;
  scfg.train.lr = 0.05f;
  scfg.train.seed = 3;
  return scfg;
}

core::VisionModelFactory shm_factory() {
  return [](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg;
    cfg.width_mult = 0.0625;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

TEST(AdaptiveResume, ShmClusterReducerStateRoundTrips) {
  // A stateful reducer's moments and residual are part of the trajectory:
  // resuming without them would diverge from the uninterrupted run.
  auto ds = tiny_images();
  auto make_reducer = [] {
    return std::make_unique<compress::VarianceGateReducer>(1.0, 2);
  };
  runtime::ShmDataParallelTrainer straight(shm_factory(), make_reducer(),
                                           shm_config());
  (void)straight.train(ds);

  const std::string dir = tmp_dir("shm_gate_resume");
  runtime::ShmClusterConfig part = shm_config();
  part.train.epochs = 1;
  part.checkpoint_dir = dir;
  runtime::ShmDataParallelTrainer crashed(shm_factory(), make_reducer(),
                                          part);
  (void)crashed.train(ds);

  runtime::ShmClusterConfig cont = shm_config();
  cont.checkpoint_dir = dir;
  cont.resume = true;
  runtime::ShmDataParallelTrainer resumed(shm_factory(), make_reducer(),
                                          cont);
  const auto recs = resumed.train(ds);
  ASSERT_EQ(recs.size(), 1u);

  const Tensor a = straight.model().flat_params();
  const Tensor b = resumed.model().flat_params();
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
  EXPECT_EQ(resumed.global_step(), straight.global_step());

  // Resuming that snapshot WITHOUT a reducer must fail loudly: the plain
  // ring path cannot replay the gate's moments and residual.
  runtime::ShmClusterConfig wrong = shm_config();
  wrong.checkpoint_dir = dir;
  wrong.resume = true;
  runtime::ShmDataParallelTrainer mismatched(shm_factory(), nullptr, wrong);
  EXPECT_THROW(mismatched.train(ds), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ---------------- TrainState v2 on-disk format ----------------

TEST(AdaptiveState, TrainStateV2FieldsRoundTrip) {
  core::TrainState st;
  st.next_epoch = 4;
  st.low_rank_phase = true;
  st.policy = RankPolicy::ab_reproject(0.9, 2, 1).encode();
  st.layer_ranks = {4, 7, 1};
  st.reducer.scalars = {6, 9, 3};
  Tensor t = Tensor::uninit(Shape{2, 3});
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = 0.25f * i;
  st.reducer.tensors.push_back(std::move(t));
  st.rng = Rng(5).state();

  const std::string path = std::string(::testing::TempDir()) +
                           "adaptive_state_v2.bin." +
                           std::to_string(::getpid());
  core::save_train_state(st, path);
  const core::TrainState got = core::load_train_state(path);
  EXPECT_EQ(got.layer_ranks, st.layer_ranks);
  EXPECT_EQ(got.reducer.scalars, st.reducer.scalars);
  ASSERT_EQ(got.reducer.tensors.size(), 1u);
  EXPECT_EQ(got.reducer.tensors[0].shape(), (Shape{2, 3}));
  EXPECT_EQ(std::memcmp(std::as_const(got.reducer.tensors[0]).data(),
                        std::as_const(st.reducer.tensors[0]).data(),
                        6 * sizeof(float)),
            0);
  EXPECT_TRUE(RankPolicy::decode(got.policy) ==
              RankPolicy::ab_reproject(0.9, 2, 1));
  std::remove(path.c_str());
}

// Hand-writes a v1 ("PUFFTST1") train-state file: 3 policy words, no
// layer_ranks / reducer tail. Returns the path.
std::string write_v1_state(uint64_t kind_word, const std::string& name) {
  std::vector<char> payload;
  auto put_u64 = [&payload](uint64_t v) {
    const char* p = reinterpret_cast<const char*>(&v);
    payload.insert(payload.end(), p, p + sizeof(v));
  };
  auto put_f64 = [&put_u64](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  };
  put_u64(2);  // next_epoch
  put_u64(9);  // global_step
  put_u64(0);  // low_rank_phase
  put_f64(0.5);
  put_f64(1.5);
  std::array<uint64_t, 4> policy = RankPolicy::fixed(0.25).encode();
  policy[0] = kind_word;
  for (size_t i = 0; i < 3; ++i) put_u64(policy[i]);  // v1: 3 words only
  put_u64(0);  // model_hash
  const Rng::State rs = Rng(4).state();
  for (uint64_t w : rs.s) put_u64(w);
  put_u64(rs.has_cached ? 1 : 0);
  put_f64(rs.cached);
  put_u64(0);  // worker_rngs
  put_u64(0);  // opt_scalars
  put_u64(0);  // opt_tensors

  const std::string path = std::string(::testing::TempDir()) + name + "." +
                           std::to_string(::getpid());
  std::ofstream os(path, std::ios::binary);
  auto write_u64 = [&os](uint64_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_u64(0x5055464654535431ull);  // "PUFFTST1"
  write_u64(nn::fnv1a(payload.data(), payload.size()));
  write_u64(payload.size());
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return path;
}

TEST(AdaptiveState, V1SnapshotsStillLoad) {
  const std::string path = write_v1_state(0, "adaptive_state_v1_ok.bin");
  const core::TrainState st = core::load_train_state(path);
  EXPECT_EQ(st.next_epoch, 2);
  EXPECT_EQ(st.global_step, 9);
  EXPECT_TRUE(RankPolicy::decode(st.policy) == RankPolicy::fixed(0.25));
  EXPECT_TRUE(st.layer_ranks.empty());
  EXPECT_TRUE(st.reducer.empty());
  std::remove(path.c_str());
}

TEST(AdaptiveState, V1SnapshotWithNewKindIsRejected) {
  // Kind words >= 2 (variance-gated, ab-reproject) postdate the v1 writer:
  // a v1 file carrying one is corrupt, not merely old.
  const std::string path = write_v1_state(2, "adaptive_state_v1_bad.bin");
  EXPECT_THROW((void)core::load_train_state(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pf
