// Tests for the thread-pool parallel runtime and the shared-memory
// data-parallel executor: coverage (every index exactly once), bitwise
// determinism across thread counts, and the executor's mid-run model swap.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "core/checkpoint.h"
#include "core/factorize.h"
#include "core/rank_policy.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "models/resnet.h"
#include "nn/serialize.h"
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

// ---- Shared-memory data-parallel executor. ----

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

// replace_model runs the transfer once, into the canonical replica, and
// broadcasts its full checkpoint state: afterwards every replica is bitwise
// the canonical, which is bitwise a direct warm_start of the old canonical,
// and the next epoch is bitwise identical at any kernel thread count.
TEST(ShmCluster, ReplaceModelBroadcastsTransfer) {
  ThreadGuard tg;
  auto bits_equal = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  };
  auto run = [&](int threads) {
    runtime::set_threads(threads);
    auto ds = tiny_data();
    runtime::ShmClusterConfig scfg;
    scfg.workers = 4;
    scfg.bucket_bytes = 16 << 10;
    scfg.train.global_batch = 16;
    scfg.train.seed = 13;
    runtime::ShmDataParallelTrainer shm(tiny_resnet_factory(false), nullptr,
                                        scfg);
    shm.train_epoch(ds, 0);

    // Reference: the transfer applied directly to the old canonical.
    Rng ref_rng(scfg.train.seed * 0x9E3779B9u + 101);
    auto ref = tiny_resnet_factory(true)(ref_rng);
    Rng ref_svd(17);
    core::warm_start(shm.model(), *ref, ref_svd);

    int transfers = 0;
    shm.replace_model(tiny_resnet_factory(true),
                      [&](nn::UnaryModule& from, nn::UnaryModule& to) {
                        ++transfers;
                        Rng svd(17);
                        core::warm_start(from, to, svd);
                      });
    EXPECT_EQ(transfers, 1);
    const std::vector<Tensor*> canon = nn::checkpoint_tensors(shm.model());
    const std::vector<Tensor*> want = nn::checkpoint_tensors(*ref);
    EXPECT_EQ(canon.size(), want.size());
    for (size_t i = 0; i < canon.size() && i < want.size(); ++i)
      EXPECT_TRUE(bits_equal(*canon[i], *want[i])) << "tensor " << i;
    for (int w = 1; w < scfg.workers; ++w) {
      const std::vector<Tensor*> got = nn::checkpoint_tensors(shm.replica(w));
      EXPECT_EQ(got.size(), canon.size());
      for (size_t i = 0; i < got.size() && i < canon.size(); ++i)
        EXPECT_TRUE(bits_equal(*got[i], *canon[i]))
            << "worker " << w << " tensor " << i;
    }
    const dist::DistEpochRecord rec = shm.train_epoch(ds, 1);
    EXPECT_TRUE(std::isfinite(rec.train_loss));
    return std::make_pair(shm.model().flat_params(), rec.train_loss);
  };
  const auto r1 = run(1);
  const auto r4 = run(4);
  EXPECT_TRUE(bits_equal(r1.first, r4.first));
  EXPECT_EQ(r1.second, r4.second);
}

// A reproject transfer re-ranks the canonical's low-rank layers; the other
// replicas must take the same shapes before the broadcast, or the ring
// would sum gradients of different layouts.
TEST(ShmCluster, ReplaceModelAdoptsReprojectedRanks) {
  auto ds = tiny_data();
  runtime::ShmClusterConfig scfg;
  scfg.workers = 3;
  scfg.train.global_batch = 16;
  runtime::ShmDataParallelTrainer shm(tiny_resnet_factory(false), nullptr,
                                      scfg);
  shm.train_epoch(ds, 0);
  bool ranks_moved = false;
  shm.replace_model(tiny_resnet_factory(true),
                    [&](nn::UnaryModule& from, nn::UnaryModule& to) {
                      Rng svd(5);
                      ranks_moved =
                          core::reproject(
                              from, to, core::RankPolicy::ab_reproject(0.9, 2),
                              svd)
                              .any_rank_changed();
                    });
  ASSERT_TRUE(ranks_moved);
  const std::vector<Tensor*> canon = nn::checkpoint_tensors(shm.model());
  for (int w = 1; w < scfg.workers; ++w) {
    const std::vector<Tensor*> got = nn::checkpoint_tensors(shm.replica(w));
    ASSERT_EQ(got.size(), canon.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i]->shape(), canon[i]->shape())
          << "worker " << w << " tensor " << i;
      EXPECT_EQ(std::memcmp(got[i]->data(), canon[i]->data(),
                            static_cast<size_t>(got[i]->numel()) *
                                sizeof(float)),
                0)
          << "worker " << w << " tensor " << i;
    }
  }
  EXPECT_TRUE(std::isfinite(shm.train_epoch(ds, 1).train_loss));
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
