// End-to-end checks on the Algorithm 1 harnesses: the three task families
// train above chance at tiny scale, the vanilla -> hybrid switch happens at
// E_wu with a parameter-count drop, and the ablation orderings the paper
// reports are reproducible mechanics (full sweeps live in the benches).
#include "core/trainer.h"

#include <gtest/gtest.h>
#include <cmath>
#include <stdexcept>

#include "compress/compressor.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "runtime/shm_cluster.h"

namespace pf::core {
namespace {

data::SyntheticImages tiny_images() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 48;
  dc.test_size = 24;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

VisionModelFactory resnet_factory(bool hybrid) {
  return [hybrid](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg =
        hybrid ? models::ResNetCifarConfig::pufferfish()
               : models::ResNetCifarConfig::vanilla();
    cfg.width_mult = 0.0625;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

TEST(TrainVision, VanillaLearnsAboveChance) {
  auto ds = tiny_images();
  VisionTrainConfig cfg;
  cfg.epochs = 5;
  cfg.batch = 16;
  cfg.lr = 0.05f;
  cfg.lr_milestones = {4};
  VisionResult r = train_vision(resnet_factory(false), nullptr, ds, cfg);
  EXPECT_EQ(r.epochs.size(), 5u);
  EXPECT_GT(r.final_acc, 0.3);  // chance 0.25
  EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
  EXPECT_FALSE(r.epochs.back().low_rank_phase);
}

TEST(TrainVision, Algorithm1SwitchesAtWarmup) {
  auto ds = tiny_images();
  VisionTrainConfig cfg;
  cfg.epochs = 4;
  cfg.warmup_epochs = 2;
  cfg.batch = 16;
  VisionResult r =
      train_vision(resnet_factory(false), resnet_factory(true), ds, cfg);
  EXPECT_FALSE(r.epochs[0].low_rank_phase);
  EXPECT_FALSE(r.epochs[1].low_rank_phase);
  EXPECT_TRUE(r.epochs[2].low_rank_phase);
  EXPECT_TRUE(r.epochs[3].low_rank_phase);
  EXPECT_GT(r.svd_seconds, 0.0);
  // Final params are the hybrid's.
  Rng rng(1);
  models::ResNetCifarConfig pcfg = models::ResNetCifarConfig::pufferfish();
  pcfg.width_mult = 0.0625;
  pcfg.num_classes = 4;
  models::ResNet18Cifar hybrid(pcfg, rng);
  EXPECT_EQ(r.params, hybrid.num_params());
}

TEST(TrainVision, EvaluateRejectsNonPositiveBatch) {
  // A zero batch used to loop forever without advancing through the set.
  auto ds = tiny_images();
  Rng rng(2);
  auto model = resnet_factory(false)(rng);
  EXPECT_THROW(evaluate_vision(*model, ds, 0), std::invalid_argument);
  EXPECT_THROW(evaluate_vision(*model, ds, -1), std::invalid_argument);
}

TEST(TrainVision, LowRankFromScratchWhenWarmupZero) {
  auto ds = tiny_images();
  VisionTrainConfig cfg;
  cfg.epochs = 2;
  cfg.warmup_epochs = 0;
  VisionResult r =
      train_vision(resnet_factory(false), resnet_factory(true), ds, cfg);
  EXPECT_TRUE(r.epochs[0].low_rank_phase);
  EXPECT_EQ(r.svd_seconds, 0.0);  // no SVD: trained from scratch
}

TEST(TrainVision, AmpRunsAndStaysStable) {
  auto ds = tiny_images();
  VisionTrainConfig cfg;
  cfg.epochs = 3;
  cfg.amp = true;
  VisionResult r = train_vision(resnet_factory(false), nullptr, ds, cfg);
  EXPECT_GT(r.final_acc, 0.25);
  for (const EpochRecord& e : r.epochs)
    EXPECT_TRUE(std::isfinite(e.train_loss));
}

TEST(EvaluateVision, ReportsConsistentNumbers) {
  auto ds = tiny_images();
  Rng rng(3);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 4;
  models::ResNet18Cifar m(cfg, rng);
  EvalResult ev = evaluate_vision(m, ds, 8);
  EXPECT_GE(ev.acc, 0.0);
  EXPECT_LE(ev.acc, 1.0);
  EXPECT_GE(ev.top5, ev.acc);  // top-4 here (min(5, classes)) >= top-1
  EXPECT_GT(ev.loss, 0.0);
}

// ---- LM harness. ----

LmModelFactory lm_factory(int64_t rank) {
  return [rank](Rng& rng) {
    models::LstmLmConfig cfg = models::LstmLmConfig::tiny(rank);
    cfg.vocab = 40;
    cfg.hidden = 24;
    return std::make_unique<models::LstmLm>(cfg, rng);
  };
}

data::SyntheticCorpus tiny_corpus() {
  data::SyntheticCorpus::Config cc;
  cc.vocab = 40;
  cc.train_tokens = 3000;
  cc.valid_tokens = 600;
  cc.test_tokens = 600;
  return data::SyntheticCorpus(cc);
}

TEST(TrainLm, BeatsUniformPerplexity) {
  auto corpus = tiny_corpus();
  LmTrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch = 5;
  cfg.bptt = 8;
  cfg.lr = 2.0f;
  LmResult r = train_lm(lm_factory(0), nullptr, corpus, cfg);
  EXPECT_LT(r.test_ppl, 40.0);  // uniform model = vocab size
  EXPECT_LT(r.val_ppl, 40.0);
  EXPECT_EQ(r.val_ppl_series.size(), 4u);
}

TEST(TrainLm, PufferfishSwitchesAndShrinks) {
  auto corpus = tiny_corpus();
  LmTrainConfig cfg;
  cfg.epochs = 3;
  cfg.warmup_epochs = 1;
  cfg.batch = 5;
  cfg.bptt = 8;
  cfg.lr = 2.0f;
  LmResult r = train_lm(lm_factory(0), lm_factory(6), corpus, cfg);
  EXPECT_GT(r.svd_seconds, 0.0);
  Rng rng(1);
  LmResult rv = train_lm(lm_factory(0), nullptr, corpus, cfg);
  EXPECT_LT(r.params, rv.params);
}

TEST(TrainLm, WarmupZeroTrainsLowRankFromScratch) {
  auto corpus = tiny_corpus();
  LmTrainConfig cfg;
  cfg.epochs = 2;
  cfg.warmup_epochs = 0;
  cfg.batch = 5;
  cfg.bptt = 8;
  cfg.lr = 2.0f;
  LmResult r = train_lm(lm_factory(0), lm_factory(6), corpus, cfg);
  EXPECT_EQ(r.svd_seconds, 0.0);  // no SVD: trained from scratch
  Rng rng(1);
  EXPECT_EQ(r.params, lm_factory(6)(rng)->num_params());
  EXPECT_EQ(r.val_ppl_series.size(), 2u);
}

// ---- MT harness. ----

MtModelFactory mt_factory(int first_lowrank) {
  return [first_lowrank](Rng& rng) {
    return std::make_unique<models::TransformerMT>(
        models::TransformerConfig::tiny(first_lowrank), rng);
  };
}

data::SyntheticTranslation tiny_mt() {
  data::SyntheticTranslation::Config tc;
  tc.train_pairs = 64;
  tc.test_pairs = 16;
  tc.min_len = 3;
  tc.max_len = 6;
  return data::SyntheticTranslation(tc);
}

TEST(TrainMt, LearnsTheTransduction) {
  auto ds = tiny_mt();
  MtTrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch = 8;
  MtResult r = train_mt(mt_factory(0), nullptr, ds, cfg);
  EXPECT_LT(r.val_ppl, 61.0);  // well below uniform over 61 content tokens
  EXPECT_GE(r.bleu, 0.0);
  EXPECT_LE(r.bleu, 100.0);
}

TEST(TrainMt, PufferfishPathRuns) {
  auto ds = tiny_mt();
  MtTrainConfig cfg;
  cfg.epochs = 2;
  cfg.warmup_epochs = 1;
  cfg.batch = 8;
  MtResult r = train_mt(mt_factory(0), mt_factory(2), ds, cfg);
  EXPECT_GT(r.svd_seconds, 0.0);
  EXPECT_GT(r.params, 0);
  EXPECT_TRUE(std::isfinite(r.train_ppl));
}

TEST(TrainMt, WarmupZeroTrainsLowRankFromScratch) {
  auto ds = tiny_mt();
  MtTrainConfig cfg;
  cfg.epochs = 1;
  cfg.warmup_epochs = 0;
  cfg.batch = 8;
  MtResult r = train_mt(mt_factory(0), mt_factory(2), ds, cfg);
  EXPECT_EQ(r.svd_seconds, 0.0);  // no SVD: trained from scratch
  Rng rng(1);
  EXPECT_EQ(r.params, mt_factory(2)(rng)->num_params());
  EXPECT_TRUE(std::isfinite(r.train_ppl));
}

// No epoch runs: the driver evaluates the model as the factories built it
// (the vanilla one: warm-up has not ended).
TEST(TrainLm, ZeroEpochsEvaluateTheUntrainedModel) {
  auto corpus = tiny_corpus();
  LmTrainConfig cfg;
  cfg.epochs = 0;
  cfg.batch = 5;
  cfg.bptt = 8;
  cfg.seed = 4;
  LmResult r = train_lm(lm_factory(0), lm_factory(6), corpus, cfg);
  Rng rng(cfg.seed * 0x9E3779B9u + 31);  // train_lm's stream
  auto untrained = lm_factory(0)(rng);
  EXPECT_TRUE(r.val_ppl_series.empty());
  EXPECT_EQ(r.val_ppl,
            evaluate_lm(*untrained, corpus.valid(), cfg.batch, cfg.bptt));
  EXPECT_EQ(r.test_ppl,
            evaluate_lm(*untrained, corpus.test(), cfg.batch, cfg.bptt));
  EXPECT_EQ(r.params, untrained->num_params());
  EXPECT_EQ(r.svd_seconds, 0.0);

  auto ds = tiny_mt();
  MtTrainConfig mcfg;
  mcfg.epochs = 0;
  mcfg.batch = 8;
  MtResult m = train_mt(mt_factory(0), mt_factory(2), ds, mcfg);
  Rng mrng(0);
  EXPECT_EQ(m.params, mt_factory(0)(mrng)->num_params());
  EXPECT_TRUE(std::isfinite(m.val_ppl));
  EXPECT_GT(m.val_ppl, 1.0);
  EXPECT_GE(m.bleu, 0.0);
  EXPECT_LE(m.bleu, 100.0);
}

// ---------------- EpochBreakdown accounting ----------------

// The measured shm executor's breakdown must actually add up: every
// component is a per-worker average of disjoint wall intervals, other_s is
// the genuine remainder, and total() == wall_s to timer resolution. These
// assertions are what the bench tables (bench_fig4 measured columns) rest
// on; before worker 0's reduce time was pulled out of its comm window the
// reducer path double-counted encode/decode and hid it in the other_s clamp.
void expect_breakdown_sums_to_wall(const dist::EpochBreakdown& b) {
  EXPECT_GE(b.compute_s, 0.0);
  EXPECT_GE(b.encode_s, 0.0);
  EXPECT_GE(b.comm_s, 0.0);
  EXPECT_GE(b.decode_s, 0.0);
  EXPECT_GE(b.other_s, 0.0);
  EXPECT_GT(b.wall_s, 0.0);
  // Components are disjoint, so their sum (excluding the remainder) cannot
  // exceed the measured wall; 0.5% + 1 ms slack for timer resolution.
  const double parts = b.compute_s + b.encode_s + b.comm_s + b.decode_s;
  EXPECT_LE(parts, b.wall_s * 1.005 + 1e-3);
  // And with other_s = wall - parts, the total reproduces the wall exactly
  // (a clamped-away deficit would show up here as total > wall).
  EXPECT_NEAR(b.total(), b.wall_s, b.wall_s * 0.005 + 1e-3);
}

TEST(EpochBreakdown, ShmRingPathSumsToMeasuredWall) {
  auto ds = tiny_images();
  runtime::ShmClusterConfig cfg;
  cfg.workers = 2;
  cfg.train.epochs = 1;
  cfg.train.global_batch = 16;
  cfg.train.seed = 5;
  runtime::ShmDataParallelTrainer shm(resnet_factory(false), nullptr, cfg);
  const dist::DistEpochRecord rec = shm.train_epoch(ds, 0);
  expect_breakdown_sums_to_wall(rec.breakdown);
}

TEST(EpochBreakdown, ShmReducerPathSumsToMeasuredWall) {
  auto ds = tiny_images();
  runtime::ShmClusterConfig cfg;
  cfg.workers = 2;
  cfg.train.epochs = 1;
  cfg.train.global_batch = 16;
  cfg.train.seed = 7;
  runtime::ShmDataParallelTrainer shm(
      resnet_factory(false),
      std::make_unique<compress::PowerSgdReducer>(1, cfg.train.seed), cfg);
  const dist::DistEpochRecord rec = shm.train_epoch(ds, 0);
  expect_breakdown_sums_to_wall(rec.breakdown);
  // The reducer path actually exercised encode/decode accounting.
  EXPECT_GT(rec.breakdown.encode_s + rec.breakdown.decode_s, 0.0);
}

}  // namespace
}  // namespace pf::core
