// Resume-exact recovery: a run checkpointed at epoch k and resumed is
// bitwise-identical to the uninterrupted run -- across the warm-up -> SVD
// boundary, for the single-process Algorithm 1 harness and the shm
// data-parallel cluster alike. Also covers the TrainState on-disk format,
// torn-pair detection, and mid-write crash safety. The whole file runs
// under PF_THREADS=4 (ctest pf_tests_threads4) and ASan (pf_tests_fault).
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "models/resnet.h"
#include "nn/serialize.h"
#include "runtime/shm_cluster.h"

namespace pf::core {
namespace {

std::string tmp_dir(const std::string& name) {
  // Process-unique suffix: under parallel ctest these tests run
  // concurrently in the plain binary (one process per test) and the ASan
  // binary (pf_tests_fault); a shared path lets one process's remove_all
  // or snapshot writes corrupt the other's run.
  const std::string d = std::string(::testing::TempDir()) + name + "_" +
                        std::to_string(::getpid());
  std::filesystem::remove_all(d);  // stale snapshots from a previous run
  return d;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(is), {});
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

// ---------------- TrainState format ----------------

TEST(Resume, TrainStateRoundTrips) {
  TrainState st;
  st.next_epoch = 3;
  st.global_step = 17;
  st.low_rank_phase = true;
  st.svd_seconds = 1.5;
  st.cumulative_seconds = 9.25;
  st.policy = RankPolicy::energy_based(0.8, 2).encode();
  st.model_hash = 0xDEADBEEFull;
  Rng rng(5);
  (void)rng.normal();  // leaves a cached Box-Muller value in the state
  st.rng = rng.state();
  st.worker_rngs = {Rng::stream(1, 0).state(), Rng::stream(1, 1).state()};
  st.opt_scalars = {42};
  Tensor t = Tensor::uninit(Shape{3, 2});
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = 0.5f * i;
  st.opt_tensors.push_back(std::move(t));

  const std::string path =
      std::string(::testing::TempDir()) + "train_state_rt.bin." + std::to_string(::getpid());
  save_train_state(st, path);
  const TrainState got = load_train_state(path);

  EXPECT_EQ(got.next_epoch, st.next_epoch);
  EXPECT_EQ(got.global_step, st.global_step);
  EXPECT_EQ(got.low_rank_phase, st.low_rank_phase);
  EXPECT_EQ(got.svd_seconds, st.svd_seconds);
  EXPECT_EQ(got.cumulative_seconds, st.cumulative_seconds);
  EXPECT_EQ(got.policy, st.policy);
  EXPECT_EQ(got.model_hash, st.model_hash);
  EXPECT_TRUE(RankPolicy::decode(got.policy) ==
              RankPolicy::energy_based(0.8, 2));
  auto same_rng = [](const Rng::State& a, const Rng::State& b) {
    return std::memcmp(a.s, b.s, sizeof(a.s)) == 0 &&
           a.has_cached == b.has_cached && a.cached == b.cached;
  };
  EXPECT_TRUE(same_rng(got.rng, st.rng));
  EXPECT_TRUE(got.rng.has_cached);  // the Box-Muller cache survived
  ASSERT_EQ(got.worker_rngs.size(), 2u);
  EXPECT_TRUE(same_rng(got.worker_rngs[0], st.worker_rngs[0]));
  EXPECT_TRUE(same_rng(got.worker_rngs[1], st.worker_rngs[1]));
  EXPECT_EQ(got.opt_scalars, st.opt_scalars);
  ASSERT_EQ(got.opt_tensors.size(), 1u);
  EXPECT_EQ(got.opt_tensors[0].shape(), st.opt_tensors[0].shape());
  EXPECT_EQ(std::memcmp(std::as_const(got.opt_tensors[0]).data(),
                        std::as_const(st.opt_tensors[0]).data(),
                        sizeof(float) * 6),
            0);
  std::remove(path.c_str());
}

TEST(Resume, TrainStateRejectsCorruptFile) {
  TrainState st;
  st.next_epoch = 1;
  const std::string path =
      std::string(::testing::TempDir()) + "train_state_corrupt.bin." + std::to_string(::getpid());
  save_train_state(st, path);
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);  // flip a payload byte
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_THROW(load_train_state(path), std::runtime_error);
  EXPECT_THROW(load_train_state(path + ".nope"), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Resume, MidWriteCrashPreservesPreviousTrainState) {
  const std::string path =
      std::string(::testing::TempDir()) + "train_state_crash.bin." + std::to_string(::getpid());
  TrainState good;
  good.next_epoch = 7;
  save_train_state(good, path);

  TrainState next;
  next.next_epoch = 8;
  {
    fault::ScopedWriteCrash crash(12);  // dies inside the header
    EXPECT_THROW(save_train_state(next, path), fault::InjectedCrash);
  }
  // The crash hit the temp file: the previous state is intact and no
  // orphaned .tmp is left behind.
  EXPECT_EQ(load_train_state(path).next_epoch, 7);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Resume, TornSnapshotIsDetected) {
  const std::string dir = tmp_dir("torn_snapshot");
  Rng rng(3);
  auto model = resnet_factory(false)(rng);
  TrainState st;
  st.next_epoch = 2;
  save_snapshot(*model, st, dir);
  EXPECT_TRUE(snapshot_exists(dir));
  // Crash "between the two files": weights from a different epoch/model
  // under an older state.
  Rng rng2(99);
  auto other = resnet_factory(false)(rng2);
  nn::save_checkpoint(*other, snapshot_paths(dir).model);
  Rng rng3(1);
  auto loaded = resnet_factory(false)(rng3);
  const Tensor before = loaded->flat_params();
  EXPECT_THROW(load_snapshot(*loaded, dir), std::runtime_error);
  // All-or-nothing: the torn pair is caught before any weight is written.
  const Tensor after = loaded->flat_params();
  ASSERT_EQ(before.numel(), after.numel());
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        static_cast<size_t>(before.numel()) * sizeof(float)),
            0);
  std::filesystem::remove_all(dir);
}

// ---------------- train_vision resume-exact ----------------

// K epochs straight vs: train k epochs (the "crash"), resume from the
// snapshot, finish. Final weights must be byte-identical; per-epoch losses
// of the continuation must equal the straight run's exactly.
void expect_vision_resume_bitwise(int k) {
  auto ds = tiny_images();
  VisionTrainConfig base;
  base.epochs = 4;
  base.warmup_epochs = 2;
  base.batch = 16;
  base.seed = 11;
  base.checkpoint_every = 1;

  const std::string dir_a = tmp_dir("vision_straight_k" + std::to_string(k));
  const std::string dir_b = tmp_dir("vision_resumed_k" + std::to_string(k));

  VisionTrainConfig straight = base;
  straight.checkpoint_dir = dir_a;
  const VisionResult full = train_vision(resnet_factory(false),
                                         resnet_factory(true), ds, straight);

  // The "crashed" run: only k epochs happen before the process dies; its
  // snapshot (written after epoch k) is all that survives.
  VisionTrainConfig partial = base;
  partial.epochs = k;
  partial.checkpoint_dir = dir_b;
  (void)train_vision(resnet_factory(false), resnet_factory(true), ds,
                     partial);

  VisionTrainConfig cont = base;
  cont.checkpoint_dir = dir_b;
  cont.resume = true;
  const VisionResult resumed = train_vision(resnet_factory(false),
                                            resnet_factory(true), ds, cont);

  ASSERT_EQ(full.epochs.size(), 4u);
  ASSERT_EQ(resumed.epochs.size(), static_cast<size_t>(4 - k));
  for (size_t i = 0; i < resumed.epochs.size(); ++i) {
    EXPECT_EQ(full.epochs[static_cast<size_t>(k) + i].train_loss,
              resumed.epochs[i].train_loss)
        << "k=" << k << " continued epoch " << i;
    EXPECT_EQ(full.epochs[static_cast<size_t>(k) + i].low_rank_phase,
              resumed.epochs[i].low_rank_phase);
  }
  EXPECT_EQ(full.final_loss, resumed.final_loss);
  EXPECT_EQ(full.final_acc, resumed.final_acc);
  EXPECT_EQ(full.params, resumed.params);

  // Both runs checkpoint after their last epoch; the serialized weights
  // (params + BN buffers) must be byte-for-byte identical.
  const auto a = file_bytes(snapshot_paths(dir_a).model);
  const auto b = file_bytes(snapshot_paths(dir_b).model);
  EXPECT_EQ(a, b) << "k=" << k;

  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(Resume, VisionBitwiseExactInsideWarmup) {
  expect_vision_resume_bitwise(1);  // resumes across the warm-up -> SVD edge
}

TEST(Resume, VisionBitwiseExactAfterFactorization) {
  expect_vision_resume_bitwise(3);  // resumes into the fine-tune phase
}

TEST(Resume, VisionFinishedRunResumesAsNoOp) {
  auto ds = tiny_images();
  const std::string dir = tmp_dir("vision_noop");
  VisionTrainConfig cfg;
  cfg.epochs = 2;
  cfg.warmup_epochs = 1;
  cfg.batch = 16;
  cfg.checkpoint_dir = dir;
  const VisionResult full =
      train_vision(resnet_factory(false), resnet_factory(true), ds, cfg);
  cfg.resume = true;
  const VisionResult again =
      train_vision(resnet_factory(false), resnet_factory(true), ds, cfg);
  EXPECT_TRUE(again.epochs.empty());  // nothing left to train
  EXPECT_EQ(again.final_loss, full.final_loss);
  EXPECT_EQ(again.final_acc, full.final_acc);
  std::filesystem::remove_all(dir);
}

TEST(Resume, VisionPolicyMismatchThrows) {
  auto ds = tiny_images();
  const std::string dir = tmp_dir("vision_policy_mismatch");
  VisionTrainConfig cfg;
  cfg.epochs = 1;
  cfg.warmup_epochs = 2;
  cfg.batch = 16;
  cfg.checkpoint_dir = dir;
  cfg.rank_policy = RankPolicy::fixed(0.25);
  (void)train_vision(resnet_factory(false), resnet_factory(true), ds, cfg);

  VisionTrainConfig other = cfg;
  other.epochs = 2;
  other.resume = true;
  other.rank_policy = RankPolicy::energy_based(0.9);
  EXPECT_THROW(train_vision(resnet_factory(false), resnet_factory(true), ds,
                            other),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ---------------- Shm cluster resume-exact ----------------

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

VisionModelFactory shm_factory() {
  return [](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg;
    cfg.width_mult = 0.0625;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

data::SyntheticImages shm_data() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 32;
  dc.test_size = 16;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

TEST(Resume, ShmClusterResumeIsBitwiseExact) {
  auto ds = shm_data();
  runtime::ShmDataParallelTrainer straight(shm_factory(), nullptr,
                                           shm_config());
  (void)straight.train(ds);

  const std::string dir = tmp_dir("shm_resume");
  runtime::ShmClusterConfig part = shm_config();
  part.train.epochs = 1;  // the "crash" after epoch 0's snapshot
  part.checkpoint_dir = dir;
  runtime::ShmDataParallelTrainer crashed(shm_factory(), nullptr, part);
  (void)crashed.train(ds);

  runtime::ShmClusterConfig cont = shm_config();
  cont.checkpoint_dir = dir;
  cont.resume = true;
  runtime::ShmDataParallelTrainer resumed(shm_factory(), nullptr, cont);
  const auto recs = resumed.train(ds);

  ASSERT_EQ(recs.size(), 1u);  // only epoch 1 was left to run
  const Tensor a = straight.model().flat_params();
  const Tensor b = resumed.model().flat_params();
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
  EXPECT_EQ(resumed.global_step(), straight.global_step());
  // Per-worker Rng streams resumed mid-sequence, not re-seeded.
  for (int w = 0; w < 4; ++w)
    EXPECT_EQ(resumed.worker_rng(w).next_u64(),
              straight.worker_rng(w).next_u64())
        << "worker " << w;
  std::filesystem::remove_all(dir);
}

TEST(Resume, ShmClusterWorkerCountMismatchThrows) {
  auto ds = shm_data();
  const std::string dir = tmp_dir("shm_workers_mismatch");
  runtime::ShmClusterConfig part = shm_config();
  part.train.epochs = 1;
  part.checkpoint_dir = dir;
  runtime::ShmDataParallelTrainer crashed(shm_factory(), nullptr, part);
  (void)crashed.train(ds);

  runtime::ShmClusterConfig cont = shm_config();
  cont.workers = 2;  // snapshot was written by 4 workers
  cont.checkpoint_dir = dir;
  cont.resume = true;
  runtime::ShmDataParallelTrainer resumed(shm_factory(), nullptr, cont);
  EXPECT_THROW(resumed.train(ds), std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pf::core
