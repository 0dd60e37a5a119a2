// Fleet serving tests: lazy engine materialization, per-model bounded
// admission, weighted-EDF scheduling order, per-model stats breakdowns,
// trace determinism, engine errors failing only their batch, flush-rule
// clamping, and bitwise-identical serve outputs across thread counts (also
// run under ctest pf_tests_threads4 via the Fleet* filter).
#include "serve/fleet.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/resnet.h"
#include "quant/quantize.h"
#include "runtime/thread_pool.h"

namespace pf::serve {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Restores the env-default thread count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_threads(0); }
};

// Engine that records which (model tag, request id) it served, in order.
// The shared log has its own mutex: engines of one fleet run concurrently.
struct ServeLog {
  std::mutex m;
  std::vector<std::pair<int, uint64_t>> order;
};

class TaggingEngine : public Engine {
 public:
  TaggingEngine(int tag, ServeLog* log) : tag_(tag), log_(log) {}
  std::string name() const override { return "tag-" + std::to_string(tag_); }
  void forward_batch(const std::vector<RequestPtr>& reqs) override {
    std::lock_guard<std::mutex> lk(log_->m);
    for (const RequestPtr& r : reqs) {
      log_->order.emplace_back(tag_, r->id);
      r->output = r->input;  // echo
    }
  }

 private:
  int tag_;
  ServeLog* log_;
};

FleetModelConfig tagging_model(const std::string& name, int tag,
                               ServeLog* log, std::atomic<int>* built,
                               double deadline_ms = 10.0,
                               double weight = 1.0) {
  FleetModelConfig mc;
  mc.name = name;
  mc.factory = [tag, log, built]() -> std::unique_ptr<Engine> {
    if (built) built->fetch_add(1);
    return std::make_unique<TaggingEngine>(tag, log);
  };
  mc.batcher.max_batch = 4;
  mc.batcher.deadline_ms = 0.0;  // greedy flush: scheduling is all ordering
  mc.slo.deadline_ms = deadline_ms;
  mc.slo.weight = weight;
  return mc;
}

FleetConfig with_workers(int n) {
  FleetConfig cfg;
  cfg.workers = n;
  return cfg;
}

RequestPtr req(uint64_t id) {
  return make_request(id, Tensor(Shape{1}));
}

std::unique_ptr<nn::UnaryModule> tiny_resnet(uint64_t seed,
                                             int first_lowrank = 0) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.first_lowrank_block = first_lowrank;
  cfg.rank_ratio = 0.25;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

TEST(Fleet, EnginesMaterializeLazilyAndOnce) {
  ServeLog log;
  std::atomic<int> built_a{0}, built_b{0};
  Fleet fleet(FleetConfig{});
  const int a = fleet.add_model(tagging_model("a", 0, &log, &built_a));
  const int b = fleet.add_model(tagging_model("b", 1, &log, &built_b));
  EXPECT_FALSE(fleet.materialized(a));
  EXPECT_FALSE(fleet.materialized(b));

  // Traffic only for model b: a's factory must never run.
  RequestPtr r = req(0);
  std::future<void> done = r->done.get_future();
  ASSERT_TRUE(fleet.submit(b, r));
  fleet.start();
  done.wait();
  fleet.stop();
  EXPECT_FALSE(fleet.materialized(a));
  EXPECT_TRUE(fleet.materialized(b));
  EXPECT_EQ(built_a.load(), 0);
  EXPECT_EQ(built_b.load(), 1);

  // Explicit materialize is idempotent.
  fleet.materialize(a);
  fleet.materialize(a);
  EXPECT_TRUE(fleet.materialized(a));
  EXPECT_EQ(built_a.load(), 1);
}

TEST(Fleet, AdmissionBoundsArePerModelQueue) {
  ServeLog log;
  metrics::FleetStats stats;
  stats.add_model("a");
  stats.add_model("b");
  Fleet fleet(FleetConfig{}, &stats);
  FleetModelConfig small = tagging_model("a", 0, &log, nullptr);
  small.batcher.max_depth = 2;
  const int a = fleet.add_model(std::move(small));
  const int b = fleet.add_model(tagging_model("b", 1, &log, nullptr));

  // Fill a's bounded queue before workers run; b is unaffected.
  std::vector<std::future<void>> futs;
  for (uint64_t i = 0; i < 2; ++i) {
    RequestPtr r = req(i);
    futs.push_back(r->done.get_future());
    ASSERT_TRUE(fleet.submit(a, r));
  }
  EXPECT_FALSE(fleet.submit(a, req(2)));  // a's queue full -> shed a only
  RequestPtr rb = req(3);
  futs.push_back(rb->done.get_future());
  EXPECT_TRUE(fleet.submit(b, rb));
  EXPECT_EQ(fleet.queue_depth(a), 2);
  EXPECT_EQ(fleet.queue_depth(b), 1);

  fleet.start();
  for (auto& f : futs) f.wait();
  fleet.stop();
  metrics::FleetReport rep = stats.report();
  EXPECT_EQ(rep.models[static_cast<size_t>(a)].rejected, 1);
  EXPECT_EQ(rep.models[static_cast<size_t>(a)].completed, 2);
  EXPECT_EQ(rep.models[static_cast<size_t>(b)].rejected, 0);
  EXPECT_EQ(rep.models[static_cast<size_t>(b)].completed, 1);
  EXPECT_EQ(rep.total.completed, 3);

  // Stopped fleets reject everything.
  EXPECT_FALSE(fleet.submit(b, req(9)));
}

TEST(Fleet, WeightedEdfDrainsHigherWeightClassFirst) {
  ThreadGuard guard;
  runtime::set_threads(1);  // one worker -> a strict serve order exists
  ServeLog log;
  Fleet fleet(FleetConfig{});
  // Same SLO deadline; "hot" preempts at half the slack via weight 2.
  const int hot =
      fleet.add_model(tagging_model("hot", 0, &log, nullptr, 10.0, 2.0));
  const int cold =
      fleet.add_model(tagging_model("cold", 1, &log, nullptr, 10.0, 1.0));

  // Interleave arrivals BEFORE starting workers, so both queues are aged
  // and flushable the moment the worker scans.
  std::vector<std::future<void>> futs;
  for (uint64_t i = 0; i < 8; ++i) {
    RequestPtr r = req(i);
    futs.push_back(r->done.get_future());
    ASSERT_TRUE(fleet.submit(i % 2 == 0 ? cold : hot, r));
  }
  fleet.start();
  for (auto& f : futs) f.wait();
  fleet.stop();

  // Virtual deadlines: hot = t_oldest + 5ms, cold = t_oldest + 10ms, and
  // the submissions are microseconds apart -- every hot batch outranks
  // every cold batch until hot is drained.
  ASSERT_EQ(log.order.size(), 8u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(log.order[i].first, 0) << i;
  for (size_t i = 4; i < 8; ++i) EXPECT_EQ(log.order[i].first, 1) << i;
}

TEST(Fleet, TraceTimelineIsDeterministic) {
  // The arrival timeline is pre-generated from (seed, phase, model), so two
  // identical runs offer the identical request sequence -- same per-model
  // totals regardless of replay jitter or thread count.
  TraceConfig trace;
  trace.phases = {{0.05, {400, 200}}, {0.05, {100, 800}}};
  std::vector<int64_t> counts[2];
  for (int run = 0; run < 2; ++run) {
    ServeLog log;
    Fleet fleet(FleetConfig{});
    fleet.add_model(tagging_model("a", 0, &log, nullptr));
    fleet.add_model(tagging_model("b", 1, &log, nullptr));
    fleet.start();
    std::vector<RequestFactory> make = {[](uint64_t id) { return req(id); },
                                        [](uint64_t id) { return req(id); }};
    counts[run] = run_trace_open_loop(fleet, make, trace);
    fleet.stop();
    ASSERT_EQ(counts[run].size(), 2u);
    EXPECT_GT(counts[run][0], 0);
    EXPECT_GT(counts[run][1], 0);
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(Fleet, ServeOutputsBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // Two real engines -- one fp32, one int8-committed -- served at
  // PF_THREADS=1 and PF_THREADS=4: every request's logits must be bitwise
  // identical (batch-composition-invariant forwards + per-model queues).
  constexpr int kReqs = 12;
  Rng xr(7);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kReqs; ++i) inputs.push_back(xr.randn(Shape{3, 8, 8}));

  auto serve_all = [&](int threads) {
    runtime::set_threads(threads);
    Fleet fleet(with_workers(threads));
    for (int mdl = 0; mdl < 2; ++mdl) {
      FleetModelConfig mc;
      mc.name = mdl == 0 ? "fp32" : "int8";
      mc.factory = [mdl]() -> std::unique_ptr<Engine> {
        auto m = tiny_resnet(100, /*first_lowrank=*/2);
        if (mdl == 1) {
          m->train(false);
          quant::quantize_module(*m, quant::QuantSpec{});
          quant::commit(*m);
        }
        auto f = std::make_unique<FrozenModel>(std::move(m), "m");
        f->prime(Shape{3, 8, 8}, 4);
        return f;
      };
      mc.batcher.max_batch = 4;
      mc.batcher.deadline_ms = 0.5;
      fleet.add_model(std::move(mc));
    }
    fleet.start();
    std::vector<RequestPtr> reqs;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < kReqs; ++i) {
      RequestPtr r = make_request(static_cast<uint64_t>(i),
                                  inputs[static_cast<size_t>(i)]);
      futs.push_back(r->done.get_future());
      EXPECT_TRUE(fleet.submit(i % 2, r));
      reqs.push_back(std::move(r));
    }
    for (auto& f : futs) f.wait();
    fleet.stop();
    std::vector<Tensor> outs;
    for (const RequestPtr& r : reqs) outs.push_back(r->output);
    return outs;
  };

  const std::vector<Tensor> out1 = serve_all(1);
  const std::vector<Tensor> out4 = serve_all(4);
  ASSERT_EQ(out1.size(), out4.size());
  for (size_t i = 0; i < out1.size(); ++i)
    EXPECT_TRUE(bitwise_equal(out1[i], out4[i])) << "request " << i;
}

TEST(Fleet, ThrowingFactoryFailsOnlyItsBatch) {
  // A model whose artifact is corrupt: its lazy factory throws at first
  // dispatch. That batch is failed and fulfilled, the worker keeps serving
  // the healthy model, and the next batch retries the factory.
  const std::string path = std::string(::testing::TempDir()) +
                           "fleet_corrupt.ckpt." + std::to_string(::getpid());
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a checkpoint";
  }
  ServeLog log;
  std::atomic<int> tries{0};
  metrics::FleetStats stats;
  stats.add_model("corrupt");
  stats.add_model("ok");
  stats.begin();
  Fleet fleet(with_workers(1), &stats);
  FleetModelConfig corrupt;
  corrupt.name = "corrupt";
  corrupt.factory = [&tries, path]() -> std::unique_ptr<Engine> {
    tries.fetch_add(1);
    return std::make_unique<FrozenModel>(tiny_resnet(5), "corrupt", path);
  };
  const int bad = fleet.add_model(std::move(corrupt));
  const int good = fleet.add_model(tagging_model("ok", 1, &log, nullptr));
  fleet.start();
  for (uint64_t round = 0; round < 2; ++round) {
    RequestPtr rb = req(round), rg = req(round);
    std::future<void> fb = rb->done.get_future();
    std::future<void> fg = rg->done.get_future();
    ASSERT_TRUE(fleet.submit(bad, rb));
    ASSERT_TRUE(fleet.submit(good, rg));
    fb.wait();
    fg.wait();
    EXPECT_TRUE(rb->failed) << round;
    EXPECT_FALSE(rg->failed) << round;
  }
  fleet.stop();
  EXPECT_EQ(tries.load(), 2);  // a failed factory is retried, not latched
  EXPECT_FALSE(fleet.materialized(bad));
  EXPECT_THROW(fleet.materialize(bad), std::runtime_error);  // direct call
  const metrics::FleetReport rep = stats.report();
  EXPECT_EQ(rep.models[static_cast<size_t>(bad)].submitted, 2u);
  EXPECT_EQ(rep.models[static_cast<size_t>(bad)].completed, 0u);
  EXPECT_EQ(rep.models[static_cast<size_t>(good)].completed, 2u);
  EXPECT_EQ(rep.total.completed, 2u);
  std::remove(path.c_str());
}

TEST(Fleet, FlushRulesAreClampedWhenAModelIsAdded) {
  // max_batch 0 would hand workers an empty batch (their exit signal) and
  // strand the request; max_depth 0 would reject everything; a negative
  // deadline is meaningless. add_model clamps them to 1, 1 and 0.
  ServeLog log;
  Fleet fleet(with_workers(1));
  FleetModelConfig mc = tagging_model("zero", 0, &log, nullptr);
  mc.batcher.max_batch = 0;
  mc.batcher.max_depth = 0;
  mc.batcher.deadline_ms = -5;
  const int m = fleet.add_model(std::move(mc));
  RequestPtr r = req(0);
  std::future<void> done = r->done.get_future();
  ASSERT_TRUE(fleet.submit(m, r));
  EXPECT_FALSE(fleet.submit(m, req(1)));  // depth clamped to 1
  fleet.start();
  ASSERT_EQ(done.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_FALSE(r->failed);
  RequestPtr r2 = req(2);
  std::future<void> done2 = r2->done.get_future();
  ASSERT_TRUE(fleet.submit(m, r2));
  ASSERT_EQ(done2.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  fleet.stop();
  EXPECT_EQ(log.order.size(), 2u);
}

TEST(Fleet, StatsBreakdownsPerModelAndAggregate) {
  metrics::FleetStats stats;
  EXPECT_EQ(stats.add_model("alpha"), 0);
  EXPECT_EQ(stats.add_model("beta"), 1);
  stats.begin();
  stats.record_submit(0);
  stats.record_submit(0);
  stats.record_submit(1);
  stats.record_reject(1);
  stats.record_batch(0, 2, 0);
  stats.record_batch(1, 1, 0);
  stats.record_done(0, 1.0);
  stats.record_done(0, 3.0);
  stats.record_done(1, 10.0);
  metrics::FleetReport rep = stats.report();
  ASSERT_EQ(rep.models.size(), 2u);
  EXPECT_EQ(rep.names[0], "alpha");
  EXPECT_EQ(rep.models[0].submitted, 2);
  EXPECT_EQ(rep.models[0].completed, 2);
  EXPECT_EQ(rep.models[1].rejected, 1);
  EXPECT_EQ(rep.total.submitted, 3);
  EXPECT_EQ(rep.total.completed, 3);
  EXPECT_EQ(rep.total.rejected, 1);
  // Aggregate percentiles come from one reservoir over all models.
  EXPECT_GE(rep.total.p99_ms, rep.models[0].p99_ms);
  EXPECT_EQ(rep.summary().empty(), false);
}

}  // namespace
}  // namespace pf::serve
