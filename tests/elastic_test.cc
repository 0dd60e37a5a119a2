// Chaos suite for elastic membership (DESIGN.md §16): seeded randomized
// join/leave/kill/straggler schedules replayed bitwise from the seed alone,
// the resharding and ring re-bucketing invariants behind them, and
// checkpoint/resume across membership-change boundaries. Every randomized
// assertion carries the seed in its failure message so a red run is
// reproducible verbatim.
#include "elastic/trainer.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include "dist/hardware.h"
#include "models/resnet.h"
#include "nn/serialize.h"
#include "plan/planner.h"
#include "runtime/shm_cluster.h"

namespace pf {
namespace {

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
    if (factorized) cfg = models::ResNetCifarConfig::pufferfish();
    cfg.width_mult = 0.0625;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

elastic::ElasticConfig tiny_elastic_config(int workers, int rounds,
                                           uint64_t seed) {
  elastic::ElasticConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.bucket_bytes = 16 << 10;
  cfg.cluster.train.epochs = rounds;
  cfg.cluster.train.global_batch = 16;
  cfg.cluster.train.seed = static_cast<uint32_t>(seed % 1000 + 3);
  return cfg;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---- Property: resharding assigns every sample to exactly one lane. ----

TEST(ElasticShardRange, EverySampleExactlyOncePerRound) {
  for (int64_t batch : {1, 2, 7, 16, 33, 64}) {
    for (int lanes : {1, 2, 3, 4, 5, 8}) {
      std::vector<int> hits(static_cast<size_t>(batch), 0);
      int64_t prev_end = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        const dist::ShardRange sr = dist::shard_range(batch, lanes, lane);
        EXPECT_EQ(sr.start, prev_end)
            << "batch=" << batch << " lanes=" << lanes << " lane=" << lane;
        prev_end = sr.start + sr.count;
        for (int64_t i = sr.start; i < sr.start + sr.count; ++i)
          ++hits[static_cast<size_t>(i)];
      }
      EXPECT_EQ(prev_end, batch) << "batch=" << batch << " lanes=" << lanes;
      for (int64_t i = 0; i < batch; ++i)
        EXPECT_EQ(hits[static_cast<size_t>(i)], 1)
            << "batch=" << batch << " lanes=" << lanes << " sample=" << i;
    }
  }
  // Degenerate inputs yield empty shards instead of UB.
  EXPECT_EQ(dist::shard_range(0, 4, 0).count, 0);
  EXPECT_EQ(dist::shard_range(16, 0, 0).count, 0);
  EXPECT_EQ(dist::shard_range(16, 4, -1).count, 0);
}

// Randomized membership schedules keep the exactly-once property for every
// round's live set (the sample -> lane map is over the DENSE lane set, so
// any active count works).
TEST(ElasticShardRange, ExactlyOnceUnderRandomMembership) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const elastic::MembershipPlan plan =
        elastic::MembershipPlan::random(seed, 5, 6);
    for (int round = 0; round < 6; ++round) {
      const std::vector<int> active = plan.active_at(round);
      ASSERT_GE(active.size(), 1u) << "seed=" << seed << " round=" << round;
      const int lanes = static_cast<int>(active.size());
      const int64_t batch = 16;
      std::vector<int> hits(static_cast<size_t>(batch), 0);
      for (int lane = 0; lane < lanes; ++lane) {
        const dist::ShardRange sr = dist::shard_range(batch, lanes, lane);
        for (int64_t i = sr.start; i < sr.start + sr.count; ++i)
          ++hits[static_cast<size_t>(i)];
      }
      for (int64_t i = 0; i < batch; ++i)
        EXPECT_EQ(hits[static_cast<size_t>(i)], 1)
            << "seed=" << seed << " round=" << round << " sample=" << i;
    }
  }
}

// ---- Property: ring re-bucketing preserves the all-reduced mean. ----

TEST(ElasticRingAllreduce, BitwiseMatchesSequentialMeanAnyLaneCount) {
  for (int lanes : {1, 2, 3, 5, 8}) {
    for (int64_t elems : {1, 257, 5000}) {
      Rng rng(static_cast<uint64_t>(lanes) * 1000 +
              static_cast<uint64_t>(elems));
      std::vector<Tensor> grads;
      for (int w = 0; w < lanes; ++w)
        grads.push_back(rng.randn(Shape{elems}));
      // The single-worker reference: sum in ascending lane order, then
      // scale -- the exact float sequence the executor's reduce-scatter
      // promises. Membership changes regroup buckets/segments, never this.
      Tensor ref(Shape{elems});
      const float inv = 1.0f / static_cast<float>(lanes);
      for (int64_t i = 0; i < elems; ++i) {
        float acc = grads[0].data()[i];
        for (int w = 1; w < lanes; ++w) acc += grads[static_cast<size_t>(w)].data()[i];
        ref.data()[i] = acc * inv;
      }
      for (int64_t bucket_bytes : {64, 4096, 1 << 20}) {
        const Tensor agg = runtime::ring_allreduce(grads, bucket_bytes);
        EXPECT_TRUE(bitwise_equal(ref, agg))
            << "lanes=" << lanes << " elems=" << elems
            << " bucket_bytes=" << bucket_bytes;
      }
    }
  }
}

// ---- MembershipPlan determinism and validation. ----

TEST(ElasticMembership, RandomPlanReplaysBitwiseFromSeed) {
  for (uint64_t seed : {1ull, 7ull, 99ull}) {
    const elastic::MembershipPlan a =
        elastic::MembershipPlan::random(seed, 4, 8);
    const elastic::MembershipPlan b =
        elastic::MembershipPlan::random(seed, 4, 8);
    ASSERT_EQ(a.events().size(), b.events().size()) << "seed=" << seed;
    for (size_t i = 0; i < a.events().size(); ++i) {
      EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << "seed=" << seed;
      EXPECT_EQ(a.events()[i].worker, b.events()[i].worker) << "seed=" << seed;
      EXPECT_EQ(a.events()[i].round, b.events()[i].round) << "seed=" << seed;
    }
    for (int round = 0; round < 8; ++round) {
      const std::vector<int> active = a.active_at(round);
      EXPECT_GE(active.size(), 1u) << "seed=" << seed << " round=" << round;
      for (int w : active) {
        EXPECT_GE(w, 0) << "seed=" << seed;
        EXPECT_LT(w, 4) << "seed=" << seed;
      }
      EXPECT_EQ(active, b.active_at(round)) << "seed=" << seed;
    }
  }
}

TEST(ElasticMembership, MalformedPlansAreRejectedLoudly) {
  elastic::MembershipPlan contradictory(3, 3);
  contradictory.join(0, 1);  // join while already active
  EXPECT_THROW(contradictory.active_at(1), std::runtime_error);

  elastic::MembershipPlan emptying(2, 2);
  emptying.leave(0, 1).leave(1, 1);
  EXPECT_THROW(emptying.active_at(1), std::runtime_error);

  elastic::MembershipPlan out_of_universe(2, 2);
  out_of_universe.join(5, 1);
  EXPECT_THROW(out_of_universe.active_at(1), std::runtime_error);

  EXPECT_THROW(elastic::MembershipPlan().active_at(0), std::runtime_error);
}

// ---- The elastic trainer vs the static cluster. ----

// With no membership events and no faults the elastic trainer IS the
// static cluster, bitwise.
TEST(ElasticTrainer, StaticScheduleMatchesStaticClusterBitwise) {
  auto ds = tiny_data();
  elastic::ElasticConfig cfg = tiny_elastic_config(3, 2, 0);
  elastic::ElasticTrainer et(tiny_resnet_factory(true), cfg);
  const auto reps = et.train(ds);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(et.stats().joins, 0);
  EXPECT_EQ(et.stats().bootstrap_bytes, 0);

  runtime::ShmDataParallelTrainer shm(tiny_resnet_factory(true), nullptr,
                                      cfg.cluster);
  const auto recs = shm.train(ds);
  ASSERT_EQ(recs.size(), 2u);
  for (size_t e = 0; e < recs.size(); ++e)
    EXPECT_EQ(recs[e].train_loss, reps[e].record.train_loss) << "round " << e;
  EXPECT_TRUE(
      bitwise_equal(shm.model().flat_params(), et.model().flat_params()));
}

// A joiner bootstrapped with the exact payload is bitwise in sync: after
// its first round EVERY active replica equals the canonical one.
TEST(ElasticTrainer, ExactJoinerIsBitwiseInSync) {
  auto ds = tiny_data();
  elastic::ElasticConfig cfg = tiny_elastic_config(3, 3, 1);
  cfg.membership = elastic::MembershipPlan(3, 2);  // slot 2 joins later
  cfg.membership.join(2, 1).leave(0, 2);
  elastic::ElasticTrainer et(tiny_resnet_factory(true), cfg);
  const auto reps = et.train(ds);
  ASSERT_EQ(reps.size(), 3u);
  EXPECT_EQ(et.stats().joins, 1);
  EXPECT_EQ(et.stats().leaves, 1);
  EXPECT_GT(et.stats().bootstrap_bytes, 0);
  // Final round ran on slots {1, 2}; canonical is slot 1.
  EXPECT_EQ(et.canonical(), 1);
  ASSERT_EQ(reps[2].active, (std::vector<int>{1, 2}));
  EXPECT_TRUE(bitwise_equal(et.cluster().replica(1).flat_params(),
                            et.cluster().replica(2).flat_params()));
}

// An exact join and a kill recovery each move one replica's full state:
// 4 bytes per checkpoint-tensor float and per SGD-velocity float.
TEST(ElasticTrainer, ExactJoinAndKillMoveTheFullState) {
  auto ds = tiny_data();
  elastic::ElasticConfig cfg = tiny_elastic_config(3, 3, 6);
  cfg.membership = elastic::MembershipPlan(3, 2);  // slot 2 joins later
  cfg.membership.join(2, 1);
  cfg.cluster.fault.kill_worker_round(1, 2);
  elastic::ElasticTrainer et(tiny_resnet_factory(true), cfg);
  const auto reps = et.train(ds);
  ASSERT_EQ(reps.size(), 3u);

  int64_t floats = 0;
  for (const Tensor* t : nn::checkpoint_tensors(et.model()))
    floats += t->numel();
  for (const Tensor* t : et.cluster().optimizer(0).state_tensors())
    floats += t->numel();
  EXPECT_EQ(reps[1].joins, 1);
  EXPECT_EQ(reps[1].bootstrap_bytes, 4 * floats);
  EXPECT_EQ(reps[1].resync_bytes, 0);
  EXPECT_EQ(reps[2].kills, 1);
  EXPECT_EQ(reps[2].resync_bytes, 4 * floats);
  EXPECT_EQ(reps[2].bootstrap_bytes, 0);
}

// ---- Chaos: >= 50 distinct seeds, green under randomized membership +
// kills + stragglers; a subset replays bitwise. ----

struct ChaosResult {
  Tensor params;
  std::vector<double> losses;
};

ChaosResult run_chaos(uint64_t seed, elastic::StragglerStrategy strategy) {
  auto ds = tiny_data();
  elastic::ElasticConfig cfg = tiny_elastic_config(4, 4, seed);
  cfg.straggler = strategy;
  cfg.staleness_bound = 1;
  cfg.membership = elastic::MembershipPlan::random(seed, 4, 4, 0.4, 0.4, 1, 3);
  // Seeded round faults on top of the membership churn: one kill and one
  // straggler, slots/rounds derived from the seed.
  fault::Plan fp(seed);
  fp.kill_worker_round(static_cast<int>(seed % 4),
                       1 + static_cast<int64_t>(seed % 3));
  fp.delay_worker_round(static_cast<int>((seed / 4) % 4),
                        1 + static_cast<int64_t>((seed / 3) % 3), 2.0);
  // And one step-level kill, to prove the schedules compose in production.
  fp.kill_worker(static_cast<int>((seed / 5) % 4), 3);
  cfg.cluster.fault = fp;

  elastic::ElasticTrainer et(tiny_resnet_factory(true), cfg);
  ChaosResult out;
  for (int r = 0; r < cfg.cluster.train.epochs; ++r) {
    const elastic::RoundReport rep = et.train_round(ds, r);
    out.losses.push_back(rep.record.train_loss);
    EXPECT_TRUE(std::isfinite(rep.record.train_loss))
        << "chaos seed=" << seed << " round=" << r;
    // Invariant: all replicas that trained this round hold the canonical
    // state (exact payloads everywhere in this suite).
    for (int w : rep.active)
      EXPECT_TRUE(
          bitwise_equal(et.cluster().replica(w).flat_params(),
                        et.model().flat_params()))
          << "chaos seed=" << seed << " round=" << r << " slot=" << w;
  }
  out.params = et.model().flat_params();
  return out;
}

TEST(ElasticChaos, FiftySeedsGreenAndSubsetReplaysBitwise) {
  const elastic::StragglerStrategy strategies[] = {
      elastic::StragglerStrategy::kWaitAll,
      elastic::StragglerStrategy::kBackupWorker,
      elastic::StragglerStrategy::kBoundedStaleness,
  };
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const elastic::StragglerStrategy strategy =
        strategies[seed % 3];
    const ChaosResult a = run_chaos(seed, strategy);
    for (int64_t i = 0; i < a.params.numel(); ++i)
      ASSERT_TRUE(std::isfinite(a.params.data()[i]))
          << "chaos seed=" << seed << " non-finite param " << i;
    if (seed % 10 == 0) {  // replay subset: the run is a function of seed
      const ChaosResult b = run_chaos(seed, strategy);
      EXPECT_EQ(a.losses, b.losses) << "chaos seed=" << seed;
      EXPECT_TRUE(bitwise_equal(a.params, b.params))
          << "chaos seed=" << seed << " replay diverged";
    }
  }
}

// ---- Straggler strategies. ----

TEST(ElasticTrainer, StragglerStrategiesMitigateOrWait) {
  auto ds = tiny_data();
  auto run = [&](elastic::StragglerStrategy s, int workers, int initial) {
    elastic::ElasticConfig cfg = tiny_elastic_config(workers, 2, 2);
    if (initial < workers)
      cfg.membership = elastic::MembershipPlan(workers, initial);
    cfg.straggler = s;
    cfg.staleness_bound = 1;
    cfg.cluster.fault.delay_worker_round(1, 1, 5.0);
    elastic::ElasticTrainer et(tiny_resnet_factory(false), cfg);
    et.train(ds);
    return et.stats();
  };
  const elastic::ElasticStats wait =
      run(elastic::StragglerStrategy::kWaitAll, 3, 3);
  EXPECT_EQ(wait.stragglers_waited, 1);
  EXPECT_EQ(wait.stragglers_mitigated, 0);

  // A spare slot exists: the backup strategy swaps it in; the spare was
  // never synced, so its activation ships one exact re-sync payload.
  const elastic::ElasticStats backup =
      run(elastic::StragglerStrategy::kBackupWorker, 3, 2);
  EXPECT_EQ(backup.stragglers_mitigated, 1);
  EXPECT_EQ(backup.stragglers_waited, 0);
  EXPECT_GT(backup.resync_bytes, 0);

  // No spare capacity: backup degrades to wait-all.
  const elastic::ElasticStats backup_full =
      run(elastic::StragglerStrategy::kBackupWorker, 3, 3);
  EXPECT_EQ(backup_full.stragglers_mitigated, 0);
  EXPECT_EQ(backup_full.stragglers_waited, 1);

  const elastic::ElasticStats stale =
      run(elastic::StragglerStrategy::kBoundedStaleness, 3, 3);
  EXPECT_EQ(stale.stragglers_mitigated, 1);
  EXPECT_EQ(stale.stragglers_waited, 0);
}

// Past the staleness bound the straggler must be waited for, and its
// return ships a catch-up re-sync.
TEST(ElasticTrainer, BoundedStalenessEnforcesBound) {
  auto ds = tiny_data();
  elastic::ElasticConfig cfg = tiny_elastic_config(2, 4, 3);
  cfg.straggler = elastic::StragglerStrategy::kBoundedStaleness;
  cfg.staleness_bound = 1;
  cfg.cluster.fault.delay_worker_round(1, 1, 2.0)
      .delay_worker_round(1, 2, 2.0);
  elastic::ElasticTrainer et(tiny_resnet_factory(false), cfg);
  const auto reps = et.train(ds);
  // Round 1: excluded (1 <= bound). Round 2: bound exhausted, waited.
  ASSERT_EQ(reps.size(), 4u);
  EXPECT_EQ(reps[1].active, (std::vector<int>{0}));
  EXPECT_EQ(reps[1].stragglers_mitigated, 1);
  EXPECT_EQ(reps[2].active, (std::vector<int>{0, 1}));
  EXPECT_EQ(reps[2].stragglers_waited, 1);
  EXPECT_GT(reps[2].resync_bytes, 0);  // the stale slot caught up
}

// ---- Bootstrap payloads. ----

// The delta payload for a joiner is strictly smaller than the exact one,
// and a delta joiner still trains to finite losses deterministically.
TEST(ElasticTrainer, DeltaBootstrapShipsFewerBytesThanExact) {
  auto ds = tiny_data();
  auto run = [&](elastic::BootstrapMode mode) {
    elastic::ElasticConfig cfg = tiny_elastic_config(3, 3, 4);
    cfg.membership = elastic::MembershipPlan(3, 2);
    cfg.membership.join(2, 1);
    cfg.bootstrap = mode;
    cfg.delta.min_numel = 256;  // tiny test model: let the factors engage
    elastic::ElasticTrainer et(tiny_resnet_factory(true), cfg);
    const auto reps = et.train(ds);
    for (const elastic::RoundReport& r : reps)
      EXPECT_TRUE(std::isfinite(r.record.train_loss))
          << elastic::to_string(mode);
    return et.stats().bootstrap_bytes;
  };
  const int64_t exact_bytes = run(elastic::BootstrapMode::kExact);
  const int64_t delta_bytes = run(elastic::BootstrapMode::kDelta);
  ASSERT_GT(exact_bytes, 0);
  ASSERT_GT(delta_bytes, 0);
  EXPECT_LT(delta_bytes, exact_bytes);
}

// A joiner whose module tree differs from the shared base (one more class,
// so only the classifier's shapes differ) is rejected before the first
// write: the throw leaves every tensor and optimizer slot untouched.
TEST(ElasticTrainer, DeltaBootstrapMismatchLeavesJoinerUntouched) {
  auto resnet = [](int classes, uint64_t seed) {
    Rng rng(seed);
    models::ResNetCifarConfig c;
    c.width_mult = 0.0625;
    c.num_classes = classes;
    return std::make_unique<models::ResNet18Cifar>(c, rng);
  };
  auto base = resnet(4, 1), canonical = resnet(4, 2), joiner = resnet(5, 3);
  quant::DeltaSpec spec;
  spec.min_numel = 256;
  const quant::DeltaModel delta = quant::compute_delta(*base, *canonical, spec);
  optim::SGD opt(joiner->parameters(), 0.1f, 0.9f);
  std::vector<Tensor*> live = nn::checkpoint_tensors(*joiner);
  for (Tensor* t : opt.state_tensors()) {
    t->fill(0.5f);
    live.push_back(t);
  }
  std::vector<Tensor> before;
  for (const Tensor* t : live) before.push_back(Tensor().copy_from(*t));

  EXPECT_THROW(elastic::apply_bootstrap(*joiner, opt, delta, *base),
               std::runtime_error);
  for (size_t i = 0; i < live.size(); ++i)
    EXPECT_TRUE(bitwise_equal(*live[i], before[i])) << "state tensor " << i;
}

// ---- Resume across a membership-change boundary. ----

// Saved at one membership, resumed at another (same slot universe):
// bitwise-identical to the uninterrupted run.
TEST(ElasticResume, AcrossMembershipChangeBitwise) {
  auto ds = tiny_data();
  const std::string dir = testing::TempDir() + "pf_elastic_resume." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto make_cfg = [&](bool with_dir) {
    elastic::ElasticConfig cfg = tiny_elastic_config(3, 4, 5);
    // Membership changes at round 2 -- exactly the snapshot boundary.
    cfg.membership = elastic::MembershipPlan(3, 2);
    cfg.membership.join(2, 2).leave(0, 3);
    cfg.cluster.fault.kill_worker_round(1, 1);
    if (with_dir) {
      cfg.cluster.checkpoint_dir = dir;
      cfg.cluster.checkpoint_every = 2;
    }
    return cfg;
  };

  elastic::ElasticTrainer uninterrupted(tiny_resnet_factory(true),
                                        make_cfg(false));
  const auto full = uninterrupted.train(ds);
  ASSERT_EQ(full.size(), 4u);

  {  // First half: rounds 0-1, snapshot at the round-2 boundary.
    elastic::ElasticConfig cfg = make_cfg(true);
    cfg.cluster.train.epochs = 2;
    elastic::ElasticTrainer first(tiny_resnet_factory(true), cfg);
    first.train(ds);
  }
  {  // Second half: a fresh process resumes at round 2, where the
    // membership flips to {1, 2} -- the joiner bootstraps as usual.
    elastic::ElasticConfig cfg = make_cfg(true);
    cfg.cluster.resume = true;
    elastic::ElasticTrainer second(tiny_resnet_factory(true), cfg);
    const auto rest = second.train(ds);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0].record.train_loss, full[2].record.train_loss);
    EXPECT_EQ(rest[1].record.train_loss, full[3].record.train_loss);
    EXPECT_TRUE(bitwise_equal(uninterrupted.model().flat_params(),
                              second.model().flat_params()));
  }
  std::filesystem::remove_all(dir);
}

// A snapshot only resumes under the slot universe that wrote it: same
// universe succeeds (asserted above and here), a different universe is
// rejected with a clear error -- silently renumbering slots would corrupt
// fault plans and membership schedules written against them.
TEST(ElasticResume, DifferentSlotUniverseRejected) {
  auto ds = tiny_data();
  const std::string dir = testing::TempDir() + "pf_elastic_universe." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    elastic::ElasticConfig cfg = tiny_elastic_config(3, 2, 6);
    cfg.cluster.checkpoint_dir = dir;
    elastic::ElasticTrainer et(tiny_resnet_factory(false), cfg);
    et.train(ds);
  }
  {  // Same universe: accepted.
    elastic::ElasticConfig cfg = tiny_elastic_config(3, 2, 6);
    cfg.cluster.checkpoint_dir = dir;
    cfg.cluster.resume = true;
    elastic::ElasticTrainer et(tiny_resnet_factory(false), cfg);
    EXPECT_EQ(et.resume(), 2);
  }
  {  // Different universe: rejected loudly.
    elastic::ElasticConfig cfg = tiny_elastic_config(2, 2, 6);
    cfg.cluster.checkpoint_dir = dir;
    cfg.cluster.resume = true;
    elastic::ElasticTrainer et(tiny_resnet_factory(false), cfg);
    try {
      et.resume();
      FAIL() << "resume under a different slot universe must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("slot"), std::string::npos);
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- Heterogeneous speed profiles feed the planner. ----

TEST(ElasticHetero, MeasuredSpeedsPriceTheCluster) {
  auto ds = tiny_data();
  elastic::ElasticConfig cfg = tiny_elastic_config(2, 1, 7);
  elastic::ElasticTrainer et(tiny_resnet_factory(false), cfg);
  et.train(ds);
  const std::vector<double> speeds = et.measured_speeds();
  ASSERT_EQ(speeds.size(), 2u);
  for (double s : speeds) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  const dist::HardwareProfile hw =
      et.speed_profile(dist::HardwareProfile::cloud_10g());
  EXPECT_TRUE(hw.heterogeneous());

  // Planner pricing: a cluster whose slowest rank runs at half speed takes
  // strictly longer per epoch, and slowest_speed ignores ranks beyond the
  // job size.
  dist::HardwareProfile slow = dist::HardwareProfile::cloud_10g();
  slow.worker_speeds = {1.0, 0.5, 0.25};
  EXPECT_EQ(slow.slowest_speed(1), 1.0);
  EXPECT_EQ(slow.slowest_speed(2), 0.5);
  EXPECT_EQ(slow.slowest_speed(3), 0.25);
  EXPECT_EQ(slow.slowest_speed(8), 0.25);

  const plan::ModelCosts costs =
      plan::describe_model("resnet18", 1.0, 10, 32, 1.0, 0);
  const plan::MethodCosts& mc = plan::method_costs("allreduce");
  const double homo_s = plan::modeled_epoch_seconds(
      costs, mc, 2, 1 << 20, 32, 1024, dist::HardwareProfile::cloud_10g(),
      false, 0.0);
  const double hetero_s = plan::modeled_epoch_seconds(
      costs, mc, 2, 1 << 20, 32, 1024, slow, false, 0.0);
  EXPECT_GT(hetero_s, homo_s);

  plan::PlannerRequest req;
  req.hw = slow;
  const plan::Plan p = plan::make_plan(req);
  EXPECT_NE(p.summary().find("hetero:"), std::string::npos);
}

}  // namespace
}  // namespace pf
