// Edge cases and failure-injection across modules: degenerate sizes, rank
// clamping, single-worker clusters, length-1 sequences, and invalid inputs
// that must throw rather than corrupt state.
#include <gtest/gtest.h>

#include <cmath>

#include "compress/compressor.h"
#include "core/factorize.h"
#include "dist/cluster.h"
#include "runtime/shm_cluster.h"
#include "models/lstm_lm.h"
#include "models/resnet.h"
#include "models/transformer_mt.h"
#include "nn/lstm.h"
#include "tensor/matmul.h"

namespace pf {
namespace {

TEST(EdgePowerSgd, RankLargerThanMatrixIsClamped) {
  Rng rng(1);
  Tensor g = rng.randn(Shape{3 * 5});
  compress::PowerSgdReducer r(64, 2);  // rank 64 >> min(3, 5)
  compress::ReduceStats stats;
  Tensor agg = r.reduce({g}, {Shape{3, 5}}, &stats);
  EXPECT_EQ(agg.numel(), 15);
  // Clamped to full rank: exact after warm-up rounds.
  agg = r.reduce({g}, {Shape{3, 5}}, &stats);
  EXPECT_TRUE(allclose(agg, g, 1e-2f, 1e-3f));
}

TEST(EdgeReducers, SingleWorkerIsIdentityLike) {
  Rng rng(2);
  Tensor g = rng.randn(Shape{16});
  compress::AllreduceReducer ar;
  compress::ReduceStats stats;
  EXPECT_TRUE(allclose(ar.reduce({g}, {Shape{16}}, &stats), g));
  compress::TopKReducer tk(1.0);  // keep everything
  EXPECT_TRUE(allclose(tk.reduce({g}, {Shape{16}}, &stats), g, 1e-5f));
}

TEST(EdgeReducers, MixedShapesLayoutRespected) {
  // A 1-D bias segment between two matrices must be aggregated exactly.
  Rng rng(3);
  Tensor g1 = rng.randn(Shape{4 + 6 + 4});
  Tensor g2 = rng.randn(Shape{4 + 6 + 4});
  std::vector<Shape> shapes = {Shape{2, 2}, Shape{6}, Shape{2, 2}};
  compress::PowerSgdReducer r(2, 5);
  compress::ReduceStats stats;
  Tensor agg = r.reduce({g1, g2}, shapes, &stats);
  for (int64_t j = 4; j < 10; ++j)
    EXPECT_NEAR(agg[j], 0.5f * (g1[j] + g2[j]), 1e-5f) << j;
}

TEST(EdgeLstm, SingleTimestepAndSingleBatch) {
  Rng rng(4);
  nn::LSTMLayer lstm(3, 4, rng);
  ag::Var y = lstm.forward(ag::leaf(rng.randn(Shape{1, 1, 3})), nullptr);
  EXPECT_EQ(y->shape(), (Shape{1, 1, 4}));
}

TEST(EdgeLstm, LowRankRankOne) {
  Rng rng(5);
  nn::LowRankLSTMLayer lstm(4, 4, 1, rng);
  ag::Var y = lstm.forward(ag::leaf(rng.randn(Shape{2, 2, 4})), nullptr);
  EXPECT_EQ(y->shape(), (Shape{2, 2, 4}));
  ag::backward(ag::sum_all(y));
  EXPECT_TRUE(lstm.u_ih[0]->has_grad());
}

TEST(EdgeTransformer, LengthOneSequences) {
  Rng rng(6);
  models::TransformerMT m(models::TransformerConfig::tiny(), rng);
  m.train(false);
  std::vector<int64_t> src = {3};  // one token, batch 1
  std::vector<int64_t> tgt = {1};
  ag::Var logits = m.forward(src, 1, tgt, 1, 1);
  EXPECT_EQ(logits->shape(), (Shape{1, 64}));
}

TEST(EdgeDist, MoreNodesThanSamplesStillRuns) {
  data::SyntheticImages::Config dc;
  dc.num_classes = 2;
  dc.hw = 8;
  dc.train_size = 8;
  dc.test_size = 8;
  data::SyntheticImages ds(dc);
  runtime::ShmClusterConfig scfg;
  scfg.workers = 16;  // more workers than samples per batch
  scfg.train.epochs = 1;
  scfg.train.global_batch = 8;
  scfg.train.seed = 7;
  runtime::ShmDataParallelTrainer t(
      [](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
        models::ResNetCifarConfig cfg;
        cfg.width_mult = 0.0625;
        cfg.num_classes = 2;
        return std::make_unique<models::ResNet18Cifar>(cfg, rng);
      },
      std::make_unique<compress::AllreduceReducer>(), scfg);
  dist::DistEpochRecord rec = t.train_epoch(ds, 0);
  EXPECT_GT(rec.breakdown.compute_s, 0.0);
  EXPECT_GT(rec.priced.compute_s, 0.0);
  EXPECT_TRUE(std::isfinite(rec.train_loss));
}

TEST(EdgeFactorize, RankOneMatrixFactorization) {
  Rng rng(8);
  Tensor w = rng.randn(Shape{6, 4});
  Rng svd_rng(1);
  core::FactorPair f = core::factorize_matrix(w, 1, svd_rng);
  EXPECT_EQ(f.u.shape(), (Shape{6, 1}));
  EXPECT_EQ(f.v.shape(), (Shape{4, 1}));
  // Best rank-1 approximation is never worse than the zero matrix.
  EXPECT_LT(core::reconstruction_error(w, f), 1.0f);
}

TEST(EdgeFactorize, ZeroMatrixDoesNotCrash) {
  Tensor w = Tensor::zeros(Shape{5, 5});
  Rng svd_rng(2);
  core::FactorPair f = core::factorize_matrix(w, 2, svd_rng);
  Tensor rec = pf::matmul_nt(f.u, f.v);
  EXPECT_LT(rec.abs_max(), 1e-3f);
}

TEST(EdgeLstmLm, EmptyStateVectorIsPopulated) {
  Rng rng(9);
  models::LstmLm m(models::LstmLmConfig::tiny(), rng);
  std::vector<nn::LstmState> state;
  std::vector<int64_t> ids(4, 2);
  m.forward(ids, 2, 2, &state);
  ASSERT_EQ(state.size(), 2u);
  EXPECT_TRUE(state[0].h);
  EXPECT_TRUE(state[0].c);
}

TEST(EdgeData, BatchLargerThanDatasetYieldsNothing) {
  data::SyntheticImages::Config dc;
  dc.num_classes = 2;
  dc.hw = 8;
  dc.train_size = 8;
  dc.test_size = 4;
  data::SyntheticImages ds(dc);
  EXPECT_TRUE(ds.train_batches(16, 0).empty());
  // Test batch clamps to the remaining samples.
  data::ImageBatch b = ds.test_batch(2, 100);
  EXPECT_EQ(b.images.size(0), 2);
}

TEST(EdgeCostModel, SingleNodeRingIsFree) {
  const dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
  EXPECT_EQ(dist::collective_seconds(dist::Coll::kAllreduce, 1 << 20, 1, hw),
            0.0);
  EXPECT_EQ(dist::collective_seconds(dist::Coll::kAllgather, 1 << 20, 1, hw),
            0.0);
}

TEST(EdgeEmbedding, OutOfRangeIdThrows) {
  Rng rng(10);
  nn::Embedding e(4, 3, rng);
  EXPECT_THROW(e.forward({0, 4}), std::runtime_error);
  EXPECT_THROW(e.forward({-1}), std::runtime_error);
}

TEST(EdgeCrossEntropy, AllIgnoredThrows) {
  Rng rng(11);
  ag::Var logits = ag::leaf(rng.randn(Shape{2, 3}));
  EXPECT_THROW(ag::cross_entropy(logits, {-100, -100}, 0.0f, -100),
               std::runtime_error);
}

TEST(EdgeDropout, POneThrows) {
  Rng rng(12);
  Rng drop(1);
  ag::Var x = ag::leaf(rng.randn(Shape{4}));
  EXPECT_THROW(ag::dropout(x, 1.0f, true, drop), std::runtime_error);
}

}  // namespace
}  // namespace pf
