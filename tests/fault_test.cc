// Deterministic fault injection: plan queries are pure functions of the
// seed, injected shm-cluster kills/delays are survived with bitwise-exact
// recovery, injected serving drops (Server and a two-model Fleet) are
// retried to completion with bitwise-identical outputs, and the
// write-crash hook fires on an armed byte budget. The whole file also runs
// under PF_THREADS=4 (ctest pf_tests_threads4) and ASan (pf_tests_fault).
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "metrics/metrics.h"
#include "models/resnet.h"
#include "runtime/shm_cluster.h"
#include "serve/fleet.h"
#include "serve/frozen.h"
#include "serve/server.h"

namespace pf {
namespace {

// ---------------- Plan / backoff / stats primitives ----------------

TEST(Fault, EmptyPlanInjectsNothing) {
  fault::Plan p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.worker_fault(0, 0), nullptr);
  EXPECT_EQ(p.kill_at(0), -1);
  EXPECT_FALSE(p.any_kill_at(7));
  EXPECT_FALSE(p.should_drop(1, 0));
  EXPECT_EQ(p.drop_probability(), 0.0);
}

TEST(Fault, WorkerFaultLookupAndKillShadowsDelay) {
  fault::Plan p(42);
  p.kill_worker(1, 5).delay_worker(2, 5, 3.0).delay_worker(1, 5, 9.0);
  EXPECT_FALSE(p.empty());

  const fault::WorkerFault* k = p.worker_fault(1, 5);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->kind, fault::WorkerFault::Kind::kKill);  // kill shadows delay

  const fault::WorkerFault* d = p.worker_fault(2, 5);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, fault::WorkerFault::Kind::kDelay);
  EXPECT_DOUBLE_EQ(d->delay_ms, 3.0);

  EXPECT_EQ(p.worker_fault(0, 5), nullptr);
  EXPECT_EQ(p.worker_fault(1, 4), nullptr);
  EXPECT_EQ(p.kill_at(5), 1);
  EXPECT_TRUE(p.any_kill_at(5));
  EXPECT_EQ(p.kill_at(6), -1);
}

// Round faults are a SEPARATE schedule from step faults: a step delay and
// a round kill on the same worker both fire (the old plan had no round
// schedule at all, so membership events could not be faulted). Within the
// round schedule, a kill shadows a delay on the same (worker, round).
TEST(Fault, RoundFaultsComposeWithStepFaultsOnSameWorker) {
  fault::Plan p(43);
  EXPECT_FALSE(p.any_round_fault());
  p.delay_worker(1, 5, 3.0).kill_worker_round(1, 2).delay_worker_round(
      1, 2, 9.0);
  EXPECT_TRUE(p.any_round_fault());
  EXPECT_FALSE(p.empty());

  // Cross-schedule: both the step delay and the round kill fire.
  const fault::WorkerFault* step = p.worker_fault(1, 5);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->kind, fault::WorkerFault::Kind::kDelay);
  const fault::WorkerFault* round = p.worker_round_fault(1, 2);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->kind, fault::WorkerFault::Kind::kKill);  // shadows delay

  // The schedules do not leak into each other: the round index is not a
  // step, and vice versa.
  EXPECT_EQ(p.worker_fault(1, 2), nullptr);
  EXPECT_EQ(p.worker_round_fault(1, 5), nullptr);
  EXPECT_EQ(p.worker_round_fault(0, 2), nullptr);

  fault::Plan delays_only(44);
  delays_only.delay_worker_round(2, 1, 4.0);
  const fault::WorkerFault* d = delays_only.worker_round_fault(2, 1);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, fault::WorkerFault::Kind::kDelay);
  EXPECT_DOUBLE_EQ(d->delay_ms, 4.0);
}

TEST(Fault, DropCoinIsDeterministicAndFreshPerAttempt) {
  fault::Plan p(7);
  p.drop_requests(0.5);
  int dropped = 0, attempt_flips = 0;
  for (uint64_t id = 0; id < 4000; ++id) {
    const bool first = p.should_drop(id, 0);
    EXPECT_EQ(first, p.should_drop(id, 0));  // pure in (seed, id, attempt)
    if (first) ++dropped;
    if (first != p.should_drop(id, 1)) ++attempt_flips;
  }
  // A fair coin over 4000 ids; loose 5-sigma bounds.
  EXPECT_GT(dropped, 1700);
  EXPECT_LT(dropped, 2300);
  // Retries draw fresh coins: attempt 1 disagrees with attempt 0 often.
  EXPECT_GT(attempt_flips, 1700);

  fault::Plan sure(7);
  sure.drop_requests(1.0);
  fault::Plan never(7);
  never.drop_requests(0.0);
  for (uint64_t id = 0; id < 64; ++id) {
    EXPECT_TRUE(sure.should_drop(id, 0));
    EXPECT_FALSE(never.should_drop(id, 0));
  }
}

TEST(Fault, BackoffDoublesAndCaps) {
  EXPECT_DOUBLE_EQ(fault::backoff_ms(0), 0.1);
  EXPECT_DOUBLE_EQ(fault::backoff_ms(1), 0.2);
  EXPECT_DOUBLE_EQ(fault::backoff_ms(2), 0.4);
  EXPECT_DOUBLE_EQ(fault::backoff_ms(30), 5.0);  // capped
  EXPECT_DOUBLE_EQ(fault::backoff_ms(2, 1.0, 100.0), 4.0);
}

TEST(Fault, ScopedWriteCrashArmsAByteBudget) {
  fault::on_write_bytes(1 << 20);  // disarmed: no-op
  {
    fault::ScopedWriteCrash crash(8);
    fault::on_write_bytes(4);  // 4 of 8 used
    fault::on_write_bytes(4);  // exactly exhausts the budget; still alive
    EXPECT_THROW(fault::on_write_bytes(1), fault::InjectedCrash);
  }
  fault::on_write_bytes(1 << 20);  // disarmed again on scope exit
}

TEST(Fault, StatsCountersRecordThroughMetrics) {
  fault::reset_stats();
  fault::record_kill();
  fault::record_delay();
  fault::record_drop();
  fault::record_retry();
  fault::record_retry();
  fault::record_recovery();
  const fault::FaultStats s = fault::stats();
  EXPECT_EQ(s.injected_kills, 1u);
  EXPECT_EQ(s.injected_delays, 1u);
  EXPECT_EQ(s.dropped_requests, 1u);
  EXPECT_EQ(s.write_crashes, 0u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.recoveries, 1u);
  EXPECT_NE(metrics::fmt_fault_stats(s).find("retries 2"), std::string::npos);
  fault::reset_stats();
  EXPECT_EQ(fault::stats().injected_kills, 0u);
}

// ---------------- Shm-cluster kill/delay recovery ----------------

data::SyntheticImages tiny_data() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 32;
  dc.test_size = 16;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

core::VisionModelFactory tiny_resnet_factory() {
  return [](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg;
    cfg.width_mult = 0.0625;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

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

// A run with injected kills and a straggler delay must match a fault-free
// run bitwise: reincarnation from a surviving replica is exact, and delays
// only cost time.
TEST(Fault, ShmKillAndDelayRecoveryIsBitwiseExact) {
  auto ds = tiny_data();

  runtime::ShmDataParallelTrainer clean(tiny_resnet_factory(), nullptr,
                                        shm_config());
  const auto clean_recs = clean.train(ds);

  fault::reset_stats();
  runtime::ShmClusterConfig scfg = shm_config();
  scfg.fault = fault::Plan(13);
  scfg.fault.kill_worker(1, 1)      // donor is worker 0
      .kill_worker(0, 2)            // kills worker 0: donor is worker 1
      .delay_worker(2, 0, 2.0);     // straggler at the very first step
  runtime::ShmDataParallelTrainer faulty(tiny_resnet_factory(), nullptr,
                                         scfg);
  const auto faulty_recs = faulty.train(ds);

  ASSERT_EQ(clean_recs.size(), faulty_recs.size());
  for (size_t e = 0; e < clean_recs.size(); ++e)
    EXPECT_EQ(clean_recs[e].train_loss, faulty_recs[e].train_loss)
        << "epoch " << e;
  EXPECT_TRUE(bitwise_equal(clean.model().flat_params(),
                            faulty.model().flat_params()));

  const fault::FaultStats s = fault::stats();
  EXPECT_EQ(s.injected_kills, 2u);
  EXPECT_EQ(s.injected_delays, 1u);
  EXPECT_GE(s.recoveries, 2u);
  EXPECT_GT(faulty.fault_seconds(), 0.0);
  EXPECT_EQ(clean.fault_seconds(), 0.0);
}

TEST(Fault, ShmSimultaneousKillsSpareOneSurvivor) {
  auto ds = tiny_data();
  runtime::ShmDataParallelTrainer clean(tiny_resnet_factory(), nullptr,
                                        shm_config());
  (void)clean.train(ds);

  // Every worker scheduled to die at once: worker 0 is spared (recovery
  // needs a survivor) and the rest reincarnate from it.
  runtime::ShmClusterConfig scfg = shm_config();
  scfg.fault = fault::Plan(5);
  for (int w = 0; w < scfg.workers; ++w) scfg.fault.kill_worker(w, 1);
  runtime::ShmDataParallelTrainer faulty(tiny_resnet_factory(), nullptr,
                                         scfg);
  (void)faulty.train(ds);
  EXPECT_TRUE(bitwise_equal(clean.model().flat_params(),
                            faulty.model().flat_params()));
}

// ---------------- Serving drops + retry ----------------

std::unique_ptr<nn::UnaryModule> tiny_resnet(uint64_t seed) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

TEST(Fault, ServeDropsAreRetriedToCompletion) {
  serve::FrozenModel frozen(tiny_resnet(6), "fault-serve");
  frozen.prime(Shape{3, 8, 8}, 4);

  fault::reset_stats();
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.batcher.max_batch = 4;
  cfg.batcher.deadline_ms = 0.5;
  cfg.fault = fault::Plan(21);
  cfg.fault.drop_requests(0.4);
  serve::Server server(frozen, cfg);
  server.start();

  serve::ClosedLoopConfig lg;
  lg.clients = 3;
  lg.requests_per_client = 8;
  lg.max_attempts = 16;  // enough that P(all dropped) is negligible
  const int64_t done = serve::run_closed_loop(
      server,
      [](uint64_t id) {
        Rng rng(id + 100);
        return serve::make_request(id, rng.randn(Shape{3, 8, 8}));
      },
      lg);
  server.stop();

  EXPECT_EQ(done, 24);  // every request eventually served
  const fault::FaultStats s = fault::stats();
  EXPECT_GT(s.dropped_requests, 0u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.recoveries, 0u);
  fault::reset_stats();
}

TEST(Fault, ServeDroppedRequestFailsFastWithoutRetry) {
  serve::FrozenModel frozen(tiny_resnet(7), "fault-serve-norestry");
  frozen.prime(Shape{3, 8, 8}, 2);

  fault::reset_stats();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batcher.max_batch = 2;
  cfg.batcher.deadline_ms = 0;
  cfg.fault = fault::Plan(9);
  cfg.fault.drop_requests(1.0);  // every attempt dropped
  serve::Server server(frozen, cfg);
  server.start();

  Rng rng(1);
  serve::RequestPtr r = serve::make_request(0, rng.randn(Shape{3, 8, 8}));
  std::future<void> done = r->done.get_future();
  ASSERT_TRUE(server.submit(r));
  done.wait();  // promise fulfilled even for dropped requests: no hang
  EXPECT_TRUE(r->failed);

  // submit_with_retry gives up after max_attempts and reports nullptr.
  const serve::RequestPtr got = serve::submit_with_retry(
      server,
      [](uint64_t id) {
        Rng rng2(id + 1);
        return serve::make_request(id, rng2.randn(Shape{3, 8, 8}));
      },
      1, /*max_attempts=*/3);
  EXPECT_EQ(got, nullptr);
  server.stop();
  const fault::FaultStats s = fault::stats();
  EXPECT_GE(s.dropped_requests, 4u);  // 1 fail-fast + 3 retried attempts
  EXPECT_EQ(s.retries, 2u);           // attempts 1 and 2 were retries
  EXPECT_EQ(s.recoveries, 0u);
  fault::reset_stats();
}

// ---------------- Fleet drops + retry ----------------

TEST(FaultFleet, DropsRetriedToCompletionBitwiseAndNeverCountedDone) {
  // Two models on one fleet with FleetConfig::fault dropping 40% of
  // attempts. Retried submission completes every request, each output is
  // bitwise the fault-free one, and FleetStats counts no dropped attempt as
  // completed.
  constexpr int kPerModel = 12;
  auto make_for = [](int mdl) -> serve::RequestFactory {
    return [mdl](uint64_t id) {
      Rng rng(1000 * static_cast<uint64_t>(mdl + 1) + id);
      return serve::make_request(id, rng.randn(Shape{3, 8, 8}));
    };
  };
  auto run = [&](double drop_p, metrics::FleetStats* stats) {
    serve::FleetConfig cfg;
    cfg.workers = 2;
    if (drop_p > 0) {
      cfg.fault = fault::Plan(33);
      cfg.fault.drop_requests(drop_p);
    }
    serve::Fleet fleet(cfg, stats);
    for (int mdl = 0; mdl < 2; ++mdl) {
      if (stats) stats->add_model(mdl == 0 ? "vanilla" : "hybrid");
      serve::FleetModelConfig mc;
      mc.name = mdl == 0 ? "vanilla" : "hybrid";
      mc.factory = [mdl]() -> std::unique_ptr<serve::Engine> {
        auto f = std::make_unique<serve::FrozenModel>(
            tiny_resnet(40 + static_cast<uint64_t>(mdl)), "m");
        f->prime(Shape{3, 8, 8}, 4);
        return f;
      };
      mc.batcher.max_batch = 4;
      mc.batcher.deadline_ms = 0.5;
      fleet.add_model(std::move(mc));
    }
    if (stats) stats->begin();
    fleet.start();
    std::vector<Tensor> outs(2 * kPerModel);
    std::vector<std::thread> clients;
    for (int mdl = 0; mdl < 2; ++mdl)
      clients.emplace_back([&, mdl] {
        const serve::RequestFactory make = make_for(mdl);
        for (int i = 0; i < kPerModel; ++i) {
          const serve::RequestPtr r = serve::submit_with_retry(
              fleet, mdl, make, static_cast<uint64_t>(i), 16);
          if (r) outs[static_cast<size_t>(mdl * kPerModel + i)] = r->output;
        }
      });
    for (std::thread& t : clients) t.join();
    fleet.stop();
    return outs;
  };

  const std::vector<Tensor> clean = run(0, nullptr);
  fault::reset_stats();
  metrics::FleetStats stats;
  const std::vector<Tensor> faulty = run(0.4, &stats);
  const fault::FaultStats fs = fault::stats();
  fault::reset_stats();

  for (size_t i = 0; i < clean.size(); ++i) {
    ASSERT_GT(faulty[i].numel(), 0) << "request " << i << " never completed";
    EXPECT_TRUE(bitwise_equal(clean[i], faulty[i])) << "request " << i;
  }
  const metrics::FleetReport rep = stats.report();
  EXPECT_GT(fs.dropped_requests, 0u);
  EXPECT_GT(fs.recoveries, 0u);
  for (const metrics::ServeReport& m : rep.models)
    EXPECT_EQ(m.completed, static_cast<uint64_t>(kPerModel));
  EXPECT_EQ(rep.total.completed, static_cast<uint64_t>(2 * kPerModel));
  // Every accepted attempt either completed or was dropped -- never both.
  EXPECT_EQ(rep.total.submitted, rep.total.completed + fs.dropped_requests);
  EXPECT_EQ(rep.total.rejected, 0u);
}

}  // namespace
}  // namespace pf
