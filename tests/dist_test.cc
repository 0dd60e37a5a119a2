#include "dist/cluster.h"

#include <gtest/gtest.h>

#include "models/resnet.h"

namespace pf::dist {
namespace {

// The paper's 10 Gbps cluster, the profile every modeled bench prices on.
const HardwareProfile kCloud = HardwareProfile::cloud_10g();

double allreduce_s(int64_t bytes, int p, int messages = 1) {
  return collective_seconds(Coll::kAllreduce, bytes, p, kCloud, messages);
}

double allgather_s(int64_t bytes, int p) {
  return collective_seconds(Coll::kAllgather, bytes, p, kCloud);
}

TEST(CostModel, AllreduceScalesWithBytes) {
  EXPECT_LT(allreduce_s(1 << 20, 8), allreduce_s(16 << 20, 8));
}

TEST(CostModel, LatencyTermScalesWithCalls) {
  // Packing 100 layers into 1 call (paper Section 4.1) beats 100 calls.
  const double packed = allreduce_s(25 << 20, 16, 1);
  const double unpacked = allreduce_s(25 << 20, 16, 100);
  EXPECT_LT(packed, unpacked);
  EXPECT_NEAR(unpacked - packed, 99 * 2 * 15 * kCloud.alpha_s, 1e-9);
}

TEST(CostModel, AllgatherGrowsFasterWithNodes) {
  // Same payload: allgather's bandwidth term scales with (p-1), allreduce's
  // saturates at 2 -- the paper's argument for why SIGNUM underperforms.
  const int64_t bytes = 25 << 20;
  const double ar_ratio = allreduce_s(bytes, 16) / allreduce_s(bytes, 2);
  const double ag_ratio = allgather_s(bytes, 16) / allgather_s(bytes, 2);
  EXPECT_GT(ag_ratio, ar_ratio);
}

TEST(CostModel, CompressedAllgatherCanStillLose) {
  // 32x compressed allgather vs dense allreduce at 16 nodes: the (p-1)
  // factor eats much of the compression.
  const int64_t dense = 100 << 20;
  const double t_dense_ar = allreduce_s(dense, 16);
  const double t_sign_ag = allgather_s(dense / 32, 16);
  EXPECT_LT(t_sign_ag, t_dense_ar);          // still wins on raw comm...
  EXPECT_GT(t_sign_ag, t_dense_ar / 32.0);   // ...but far less than 32x
}

TEST(DdpOverlap, BoundedBelowByComputeAndComm) {
  const HardwareProfile hw = HardwareProfile::cloud_10g();
  const double compute = 1.0;
  const int64_t bytes = 100 << 20;
  const double t = overlap_epoch_seconds(compute, bytes, 8, hw);
  EXPECT_GE(t, compute);
  // Total is at most compute + full comm (no overlap at all): 4 buckets.
  EXPECT_LE(t, compute + allreduce_s(bytes, 8, 4) + 1e-6);
}

TEST(DdpOverlap, SmallGradsFullyHidden) {
  const double t = overlap_epoch_seconds(10.0, 1 << 20, 4, kCloud);
  EXPECT_NEAR(t, 10.0, 0.05);
}

TEST(DdpOverlap, SmallerModelNeverSlower) {
  const HardwareProfile hw = HardwareProfile::cloud_10g();
  const double t_big = overlap_epoch_seconds(1.0, 100 << 20, 16, hw);
  const double t_small = overlap_epoch_seconds(0.7, 60 << 20, 16, hw);
  EXPECT_LT(t_small, t_big);
}

class NodesP : public ::testing::TestWithParam<int> {};

TEST_P(NodesP, AllreduceTimeIncreasesWithNodes) {
  EXPECT_LT(allreduce_s(25 << 20, GetParam()),
            allreduce_s(25 << 20, GetParam() * 2));
}

INSTANTIATE_TEST_SUITE_P(Sweep, NodesP, ::testing::Values(2, 4, 8));

// ---- Cluster training semantics. ----

data::SyntheticImages tiny_data() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 32;
  dc.test_size = 16;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

std::unique_ptr<nn::UnaryModule> tiny_model(uint64_t seed) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;  // 4-16-... channels
  cfg.num_classes = 4;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

// BN-free MLP: data-parallel equivalence holds exactly only without
// per-replica batch statistics (true of real DDP as well).
std::unique_ptr<nn::UnaryModule> mlp_model(uint64_t seed) {
  Rng rng(seed);
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Flatten>();
  s->emplace<nn::Linear>(3 * 8 * 8, 16, rng);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Linear>(16, 4, rng);
  return s;
}

TEST(DataParallelTrainer, AllreduceMatchesSingleNodeLargeBatch) {
  // Data-parallel SGD with exact-mean allreduce over k workers is
  // mathematically identical to single-process training with the global
  // batch (for models without per-replica batch statistics). This is the
  // core correctness property of the simulator.
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 2;
  cfg.global_batch = 16;
  cfg.lr = 0.05f;

  DataParallelTrainer single(mlp_model(3),
                             std::make_unique<compress::AllreduceReducer>(),
                             /*nodes=*/1, cfg);
  auto rec1 = single.train(ds);

  DataParallelTrainer multi(mlp_model(3),
                            std::make_unique<compress::AllreduceReducer>(),
                            /*nodes=*/4, cfg);
  auto rec4 = multi.train(ds);

  EXPECT_TRUE(allclose(single.model().flat_params(),
                       multi.model().flat_params(), 1e-3f, 1e-4f));
  EXPECT_NEAR(rec1.back().train_loss, rec4.back().train_loss, 1e-3);
}

TEST(DataParallelTrainer, TrainsToAboveChance) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 6;
  cfg.global_batch = 16;
  cfg.lr = 0.05f;
  DataParallelTrainer t(tiny_model(5),
                        std::make_unique<compress::AllreduceReducer>(),
                        /*nodes=*/4, cfg);
  auto recs = t.train(ds);
  EXPECT_GT(recs.back().test_acc, 0.3);  // chance = 0.25
  EXPECT_LT(recs.back().train_loss, recs.front().train_loss);
}

TEST(DataParallelTrainer, BreakdownIsPopulated) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 16;
  DataParallelTrainer t(tiny_model(7),
                        std::make_unique<compress::SignumReducer>(),
                        /*nodes=*/4, cfg);
  auto rec = t.train_epoch(ds, 0);
  EXPECT_GT(rec.breakdown.compute_s, 0.0);
  EXPECT_GT(rec.breakdown.comm_s, 0.0);
  EXPECT_GT(rec.breakdown.encode_s, 0.0);
  EXPECT_GT(rec.breakdown.decode_s, 0.0);
  EXPECT_GT(rec.breakdown.bytes_per_worker, 0);
  EXPECT_NEAR(rec.breakdown.total(),
              rec.breakdown.compute_s + rec.breakdown.encode_s +
                  rec.breakdown.comm_s + rec.breakdown.decode_s +
                  rec.breakdown.other_s,
              1e-9);
  EXPECT_GT(t.cumulative_sim_seconds(), 0.0);
}

TEST(DataParallelTrainer, SmallerModelCommunicatesLess) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 16;
  DataParallelTrainer vanilla(tiny_model(9),
                              std::make_unique<compress::AllreduceReducer>(),
                              /*nodes=*/4, cfg);
  auto rv = vanilla.train_epoch(ds, 0);

  Rng rng(9);
  models::ResNetCifarConfig pcfg = models::ResNetCifarConfig::pufferfish();
  pcfg.width_mult = 0.0625;
  pcfg.num_classes = 4;
  DataParallelTrainer pf(std::make_unique<models::ResNet18Cifar>(pcfg, rng),
                         std::make_unique<compress::AllreduceReducer>(),
                         /*nodes=*/4, cfg);
  auto rp = pf.train_epoch(ds, 0);

  EXPECT_LT(rp.breakdown.bytes_per_worker, rv.breakdown.bytes_per_worker);
  EXPECT_LT(rp.breakdown.comm_s, rv.breakdown.comm_s);
}

TEST(DataParallelTrainer, ReplaceModelMidRun) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 16;
  DataParallelTrainer t(tiny_model(11),
                        std::make_unique<compress::AllreduceReducer>(),
                        /*nodes=*/2, cfg);
  t.train_epoch(ds, 0);
  const double before = t.cumulative_sim_seconds();
  t.replace_model(tiny_model(12), nullptr);
  auto rec = t.train_epoch(ds, 1);
  EXPECT_GT(rec.cumulative_sim_seconds, before);
}

// Delegates to a real reducer and records the stats of every step, so a
// test can re-price the exact payloads the trainer saw.
class RecordingReducer : public compress::Reducer {
 public:
  RecordingReducer(std::unique_ptr<compress::Reducer> inner,
                   std::vector<compress::ReduceStats>* log)
      : inner_(std::move(inner)), log_(log) {}
  std::string name() const override { return inner_->name(); }
  Tensor reduce(const std::vector<Tensor>& grads,
                const std::vector<Shape>& shapes,
                compress::ReduceStats* stats) override {
    Tensor out = inner_->reduce(grads, shapes, stats);
    log_->push_back(*stats);
    return out;
  }

 private:
  std::unique_ptr<compress::Reducer> inner_;
  std::vector<compress::ReduceStats>* log_;
};

TEST(DataParallelTrainer, CommIsPricedFromPayloadBytes) {
  // comm_s is exactly the per-step sum of the one cost model over each
  // step's real payload, collective and message count, at cloud_10g.
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 16;
  const int nodes = 4;
  struct Case {
    std::unique_ptr<compress::Reducer> reducer;
    Coll collective;
    int messages;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<compress::PowerSgdReducer>(2, 3),
                   Coll::kAllreduce, 2});
  cases.push_back(
      {std::make_unique<compress::SignumReducer>(), Coll::kAllgather, 1});
  for (Case& c : cases) {
    std::vector<compress::ReduceStats> log;
    DataParallelTrainer t(
        tiny_model(13),
        std::make_unique<RecordingReducer>(std::move(c.reducer), &log),
        nodes, cfg);
    const DistEpochRecord rec = t.train_epoch(ds, 0);
    ASSERT_EQ(log.size(), 2u);  // 32 samples / global batch 16
    double expected = 0;
    for (const compress::ReduceStats& s : log) {
      EXPECT_EQ(s.collective, c.collective);
      EXPECT_EQ(s.n_messages, c.messages);
      expected += collective_seconds(s.collective, s.payload_bytes_per_worker,
                                     nodes, kCloud, s.n_messages);
    }
    EXPECT_GT(expected, 0.0);
    EXPECT_EQ(rec.breakdown.comm_s, expected);
  }
}

}  // namespace
}  // namespace pf::dist
