// Tests for the thread-pool parallel runtime and the shared-memory
// data-parallel executor: coverage (every index exactly once), bitwise
// determinism across thread counts, and measured-vs-modeled cluster
// equivalence.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include "compress/compressor.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "models/resnet.h"
#include "runtime/shm_cluster.h"
#include "tensor/im2col.h"
#include "tensor/matmul.h"

namespace pf {
namespace {

// Restores the env-default thread count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_threads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard tg;
  const int64_t kRanges[] = {0, 1, 17, 1000};
  const int64_t kGrains[] = {-3, 0, 1, 3, 7, 64, 1 << 20};
  for (int threads : {1, 3, 8}) {
    runtime::set_threads(threads);
    for (int64_t n : kRanges) {
      for (int64_t grain : kGrains) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h.store(0);
        runtime::parallel_for(0, n, grain, [&](int64_t b, int64_t e) {
          EXPECT_LE(b, e);
          for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
        });
        for (int64_t i = 0; i < n; ++i)
          EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "n=" << n << " grain=" << grain << " threads=" << threads
              << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, NonZeroBeginAndEmptyRange) {
  ThreadGuard tg;
  runtime::set_threads(4);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  runtime::parallel_for(40, 100, 9, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < 100; ++i)
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i >= 40 ? 1 : 0);
  bool ran = false;
  runtime::parallel_for(5, 5, 1, [&](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelReduce, BitwiseReproducibleAcrossThreadCounts) {
  ThreadGuard tg;
  // A float sum whose result depends on association order: identical chunk
  // decomposition + in-order combining must give the same bits regardless
  // of thread count.
  auto run = [](int threads) {
    runtime::set_threads(threads);
    return runtime::parallel_reduce<float>(
        0, 10000, 37, 0.0f,
        [](int64_t b, int64_t e) {
          float s = 0;
          for (int64_t i = b; i < e; ++i)
            s += 1.0f / static_cast<float>(i + 1);
          return s;
        },
        [](float a, float b) { return a + b; });
  };
  const float r1 = run(1);
  const float r2 = run(2);
  const float r8 = run(8);
  EXPECT_EQ(std::memcmp(&r1, &r2, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&r1, &r8, sizeof(float)), 0);
}

TEST(ParallelReduce, NestedCallsFromInsideChunksStaySerial) {
  ThreadGuard tg;
  runtime::set_threads(4);
  // A parallel_for issued from inside a pool job must complete inline
  // (no deadlock) and still cover its range.
  std::atomic<int64_t> total{0};
  runtime::parallel_for(0, 16, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      int64_t local = 0;
      runtime::parallel_for(0, 10, 3,
                            [&](int64_t bb, int64_t ee) { local += ee - bb; });
      total += local;
    }
  });
  EXPECT_EQ(total.load(), 160);
}

// ---- Kernel determinism across thread counts. ----

template <typename Fn>
void expect_bitwise_equal_across_threads(const Fn& compute) {
  ThreadGuard tg;
  runtime::set_threads(1);
  const Tensor t1 = compute();
  runtime::set_threads(2);
  const Tensor t2 = compute();
  runtime::set_threads(8);
  const Tensor t8 = compute();
  ASSERT_EQ(t1.numel(), t2.numel());
  ASSERT_EQ(t1.numel(), t8.numel());
  EXPECT_EQ(std::memcmp(t1.data(), t2.data(),
                        static_cast<size_t>(t1.numel()) * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(t1.data(), t8.data(),
                        static_cast<size_t>(t1.numel()) * sizeof(float)),
            0);
}

TEST(ThreadedKernels, MatmulBitwiseIdentical) {
  Rng rng(42);
  const Tensor a = rng.randn(Shape{67, 129});
  const Tensor b = rng.randn(Shape{129, 83});
  expect_bitwise_equal_across_threads([&] { return matmul(a, b); });
}

TEST(ThreadedKernels, MatmulTnNtBitwiseIdentical) {
  Rng rng(43);
  const Tensor a = rng.randn(Shape{96, 64});
  const Tensor b = rng.randn(Shape{96, 51});
  expect_bitwise_equal_across_threads([&] { return matmul_tn(a, b); });
  const Tensor c = rng.randn(Shape{64, 96});
  const Tensor d = rng.randn(Shape{51, 96});
  expect_bitwise_equal_across_threads([&] { return matmul_nt(c, d); });
}

TEST(ThreadedKernels, BmmBitwiseIdentical) {
  Rng rng(44);
  const Tensor a = rng.randn(Shape{5, 17, 23});
  const Tensor b = rng.randn(Shape{5, 23, 11});
  expect_bitwise_equal_across_threads([&] { return bmm(a, b); });
  const Tensor bn = rng.randn(Shape{5, 11, 23});
  expect_bitwise_equal_across_threads([&] { return bmm_nt(a, bn); });
  const Tensor at = rng.randn(Shape{5, 23, 17});
  const Tensor bt = rng.randn(Shape{5, 23, 11});
  expect_bitwise_equal_across_threads([&] { return bmm_tn(at, bt); });
}

TEST(ThreadedKernels, Im2colBitwiseIdentical) {
  Rng rng(45);
  const ConvGeom g{6, 13, 13, 3, 2, 1};
  const Tensor img = rng.randn(Shape{g.c_in, g.h, g.w});
  const int64_t cols = g.patch() * g.out_h() * g.out_w();
  expect_bitwise_equal_across_threads([&] {
    Tensor col(Shape{cols});
    im2col(img.data(), g, col.data());
    return col;
  });
  const Tensor col = rng.randn(Shape{cols});
  expect_bitwise_equal_across_threads([&] {
    Tensor out(Shape{g.c_in, g.h, g.w});
    col2im(col.data(), g, out.data());
    return out;
  });
}

// ---- Shared-memory cluster vs the modeled sequential cluster. ----

data::SyntheticImages tiny_data() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 32;
  dc.test_size = 16;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

core::VisionModelFactory tiny_resnet_factory(bool factorized) {
  return [factorized](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg;
    if (factorized) {
      cfg = models::ResNetCifarConfig::pufferfish();
    }
    cfg.width_mult = 0.0625;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

// Runs both executors over the same data/config and checks the per-epoch
// loss trajectories agree to float tolerance. The shm ring sums replicas in
// the same order as the sequential mean, so agreement is tight.
void expect_shm_matches_modeled(bool factorized) {
  auto ds = tiny_data();
  dist::DistTrainConfig tc;
  tc.epochs = 2;
  tc.global_batch = 16;
  tc.lr = 0.05f;
  tc.seed = 3;

  // Sequential modeled cluster, seeded like the shm replicas.
  Rng seq_rng(tc.seed * 0x9E3779B9u + 101);
  dist::DataParallelTrainer modeled(
      tiny_resnet_factory(factorized)(seq_rng),
      std::make_unique<compress::AllreduceReducer>(), /*nodes=*/4, tc);
  const auto modeled_recs = modeled.train(ds);

  runtime::ShmClusterConfig scfg;
  scfg.workers = 4;
  scfg.bucket_bytes = 16 << 10;  // several buckets per step
  scfg.train = tc;
  runtime::ShmDataParallelTrainer shm(
      tiny_resnet_factory(factorized),
      std::make_unique<compress::AllreduceReducer>(), scfg);
  const auto shm_recs = shm.train(ds);

  ASSERT_EQ(modeled_recs.size(), shm_recs.size());
  for (size_t e = 0; e < shm_recs.size(); ++e)
    EXPECT_NEAR(shm_recs[e].train_loss, modeled_recs[e].train_loss, 2e-3)
        << "epoch " << e << (factorized ? " (factorized)" : " (vanilla)");
  EXPECT_TRUE(allclose(modeled.model().flat_params(),
                       shm.model().flat_params(), 1e-3f, 1e-4f));
}

TEST(ShmCluster, MatchesModeledClusterVanillaResNet) {
  expect_shm_matches_modeled(false);
}

TEST(ShmCluster, MatchesModeledClusterFactorizedResNet) {
  expect_shm_matches_modeled(true);
}

TEST(ShmCluster, ReducerPathRunsPowerSgd) {
  auto ds = tiny_data();
  dist::DistTrainConfig tc;
  tc.epochs = 1;
  tc.global_batch = 16;
  tc.seed = 5;
  runtime::ShmClusterConfig scfg;
  scfg.workers = 4;
  scfg.train = tc;
  runtime::ShmDataParallelTrainer shm(
      tiny_resnet_factory(false),
      std::make_unique<compress::PowerSgdReducer>(2, 7), scfg);
  const auto rec = shm.train_epoch(ds, 0);
  EXPECT_TRUE(std::isfinite(rec.train_loss));
  EXPECT_GT(rec.breakdown.compute_s, 0.0);
  EXPECT_GT(rec.breakdown.bytes_per_worker, 0);
  // Measured breakdown sums to the epoch total by construction.
  EXPECT_NEAR(rec.breakdown.total(),
              rec.breakdown.compute_s + rec.breakdown.encode_s +
                  rec.breakdown.comm_s + rec.breakdown.decode_s +
                  rec.breakdown.other_s,
              1e-9);
}

TEST(ShmCluster, WorkerRngStreamsAreDistinct) {
  auto ds = tiny_data();
  (void)ds;
  runtime::ShmClusterConfig scfg;
  scfg.workers = 4;
  scfg.train.seed = 9;
  runtime::ShmDataParallelTrainer shm(tiny_resnet_factory(false), nullptr,
                                      scfg);
  std::vector<uint64_t> firsts;
  for (int w = 0; w < scfg.workers; ++w)
    firsts.push_back(shm.worker_rng(w).next_u64());
  for (size_t i = 0; i < firsts.size(); ++i)
    for (size_t j = i + 1; j < firsts.size(); ++j)
      EXPECT_NE(firsts[i], firsts[j]);
}

// DistTrainConfig::threads applies at construction, as
// VisionTrainConfig::threads does: > 0 sets the kernel thread count.
TEST(ShmCluster, TrainThreadsSetsKernelThreadCount) {
  ThreadGuard tg;
  runtime::set_threads(1);
  runtime::ShmClusterConfig scfg;
  scfg.workers = 2;
  scfg.train.threads = 2;
  runtime::ShmDataParallelTrainer shm(tiny_resnet_factory(false), nullptr,
                                      scfg);
  EXPECT_EQ(runtime::threads(), 2);
}

// ---- End-to-end determinism sweep across kernel thread counts. ----
//
// The per-kernel memcmp checks above prove each primitive is stable; these
// sweep the full training paths (data sharding, autograd, ring reduce, SVD
// warm-start, optimizer) and assert the FINAL PARAMETERS are bitwise
// identical at PF_THREADS=1 and 4 -- the end-to-end contract PR 1 promised.

TEST(ShmCluster, FinalParamsBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard tg;
  auto run = [&](int threads) {
    runtime::set_threads(threads);
    auto ds = tiny_data();
    runtime::ShmClusterConfig scfg;
    scfg.workers = 2;
    scfg.bucket_bytes = 16 << 10;
    scfg.train.epochs = 2;
    scfg.train.global_batch = 16;
    scfg.train.seed = 11;
    runtime::ShmDataParallelTrainer shm(tiny_resnet_factory(true), nullptr,
                                        scfg);
    shm.train(ds);
    return shm.model().flat_params();
  };
  const Tensor p1 = run(1);
  const Tensor p4 = run(4);
  ASSERT_EQ(p1.numel(), p4.numel());
  EXPECT_EQ(std::memcmp(p1.data(), p4.data(),
                        static_cast<size_t>(p1.numel()) * sizeof(float)),
            0);
}

TEST(TrainDeterminism, TrainVisionBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard tg;
  // Full Algorithm 1 (warm-up -> SVD warm-start -> fine-tune). The final
  // weights come back through a snapshot because train_vision owns its
  // model; per-epoch losses are compared exactly as well.
  auto run = [&](int threads, const std::string& dir) {
    auto ds = tiny_data();
    core::VisionTrainConfig cfg;
    cfg.epochs = 2;
    cfg.warmup_epochs = 1;
    cfg.batch = 16;
    cfg.seed = 13;
    cfg.threads = threads;
    cfg.checkpoint_dir = dir;
    cfg.checkpoint_every = 100;  // final-epoch snapshot only
    return core::train_vision(tiny_resnet_factory(false),
                              tiny_resnet_factory(true), ds, cfg);
  };
  const std::string dir1 = testing::TempDir() + "pf_sweep_t1." + std::to_string(::getpid());
  const std::string dir4 = testing::TempDir() + "pf_sweep_t4." + std::to_string(::getpid());
  const core::VisionResult r1 = run(1, dir1);
  const core::VisionResult r4 = run(4, dir4);

  ASSERT_EQ(r1.epochs.size(), r4.epochs.size());
  for (size_t e = 0; e < r1.epochs.size(); ++e)
    EXPECT_EQ(r1.epochs[e].train_loss, r4.epochs[e].train_loss) << "epoch " << e;
  EXPECT_EQ(r1.final_acc, r4.final_acc);
  EXPECT_EQ(r1.final_loss, r4.final_loss);

  Rng rng(0);
  std::unique_ptr<nn::UnaryModule> m1 = tiny_resnet_factory(true)(rng);
  std::unique_ptr<nn::UnaryModule> m4 = tiny_resnet_factory(true)(rng);
  core::load_snapshot(*m1, dir1);
  core::load_snapshot(*m4, dir4);
  const Tensor p1 = m1->flat_params();
  const Tensor p4 = m4->flat_params();
  ASSERT_EQ(p1.numel(), p4.numel());
  EXPECT_EQ(std::memcmp(p1.data(), p4.data(),
                        static_cast<size_t>(p1.numel()) * sizeof(float)),
            0);
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir4);
}

TEST(TrainDeterminism, LmAndMtBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard tg;
  // The LM and MT tasks run the same schedule driver as vision: warm-up,
  // SVD warm start, fine-tune. Every reported number must match bit for bit.
  data::SyntheticCorpus::Config cc;
  cc.vocab = 40;
  cc.train_tokens = 600;
  cc.valid_tokens = 150;
  cc.test_tokens = 150;
  const data::SyntheticCorpus corpus(cc);
  core::LmTrainConfig lm;
  lm.epochs = 2;
  lm.warmup_epochs = 1;
  lm.batch = 5;
  lm.bptt = 8;
  lm.lr = 2.0f;
  lm.seed = 3;
  auto lm_factory = [](int64_t rank) {
    return [rank](Rng& rng) {
      models::LstmLmConfig c = models::LstmLmConfig::tiny(rank);
      c.vocab = 40;
      c.hidden = 24;
      return std::make_unique<models::LstmLm>(c, rng);
    };
  };
  data::SyntheticTranslation::Config tc;
  tc.train_pairs = 16;
  tc.test_pairs = 8;
  tc.min_len = 3;
  tc.max_len = 6;
  const data::SyntheticTranslation pairs(tc);
  core::MtTrainConfig mt;
  mt.epochs = 2;
  mt.warmup_epochs = 1;
  mt.batch = 8;
  mt.seed = 5;
  auto mt_factory = [](int first_lowrank) {
    return [first_lowrank](Rng& rng) {
      return std::make_unique<models::TransformerMT>(
          models::TransformerConfig::tiny(first_lowrank), rng);
    };
  };

  auto run = [&](int threads) {
    runtime::set_threads(threads);
    return std::make_pair(
        core::train_lm(lm_factory(0), lm_factory(6), corpus, lm),
        core::train_mt(mt_factory(0), mt_factory(2), pairs, mt));
  };
  const auto [lm1, mt1] = run(1);
  const auto [lm4, mt4] = run(4);
  ASSERT_EQ(lm1.val_ppl_series.size(), 2u);
  ASSERT_EQ(lm4.val_ppl_series.size(), 2u);
  for (size_t e = 0; e < 2; ++e)
    EXPECT_EQ(lm1.val_ppl_series[e], lm4.val_ppl_series[e]) << "epoch " << e;
  EXPECT_EQ(lm1.val_ppl, lm4.val_ppl);
  EXPECT_EQ(lm1.test_ppl, lm4.test_ppl);
  EXPECT_EQ(mt1.val_ppl, mt4.val_ppl);
  EXPECT_EQ(mt1.bleu, mt4.bleu);
  EXPECT_EQ(mt1.train_ppl, mt4.train_ppl);
}

}  // namespace
}  // namespace pf
