// Serving subsystem tests: flush/admission semantics through Server,
// frozen-engine bitwise equivalence with module eval forwards,
// zero-allocation steady state, end-to-end concurrent-client determinism,
// and engine errors failing only their batch. The whole file also runs
// under PF_THREADS=4 (ctest pf_tests_threads4), ASan + UBSan
// (pf_tests_asan) and ThreadSanitizer (pf_tests_tsan), which is where the
// "engines are read-only after prime()" contract is actually enforced.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/eval.h"
#include "metrics/metrics.h"
#include "metrics/serve_stats.h"
#include "models/resnet.h"
#include "nn/serialize.h"
#include "runtime/buffer_pool.h"
#include "runtime/thread_pool.h"

namespace pf::serve {
namespace {

std::string tmp_path(const char* name) {
  // getpid(): the same test code runs concurrently in the plain binary and
  // the sanitizer ctest entries; a shared /tmp name lets one process
  // clobber the other's files mid-run.
  return std::string(::testing::TempDir()) + name + "." +
         std::to_string(::getpid());
}

std::unique_ptr<nn::UnaryModule> tiny_resnet(uint64_t seed,
                                             int first_lowrank = 0) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.first_lowrank_block = first_lowrank;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

std::unique_ptr<models::LstmLm> tiny_lstm(uint64_t seed, int64_t rank = 0) {
  Rng rng(seed);
  models::LstmLmConfig cfg = models::LstmLmConfig::tiny(rank);
  cfg.vocab = 50;
  cfg.hidden = 16;
  return std::make_unique<models::LstmLm>(cfg, rng);
}

// Restores the env-default thread count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_threads(0); }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---------------- Flush rules, through Server ----------------

// Engine that echoes inputs and logs the request ids of every batch it
// serves, in order.
class BatchLog : public Engine {
 public:
  std::string name() const override { return "batch-log"; }
  void forward_batch(const std::vector<RequestPtr>& reqs) override {
    std::vector<uint64_t> ids;
    for (const RequestPtr& r : reqs) {
      r->output = r->input;
      ids.push_back(r->id);
    }
    std::lock_guard<std::mutex> lk(m_);
    batches_.push_back(std::move(ids));
  }
  std::vector<std::vector<uint64_t>> batches() const {
    std::lock_guard<std::mutex> lk(m_);
    return batches_;
  }

 private:
  mutable std::mutex m_;
  std::vector<std::vector<uint64_t>> batches_;
};

ServerConfig flush_rules(int workers, int64_t max_batch, double deadline_ms,
                         int64_t max_depth = 256) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.batcher.max_batch = max_batch;
  cfg.batcher.deadline_ms = deadline_ms;
  cfg.batcher.max_depth = max_depth;
  return cfg;
}

// Submits request `id` and returns the future its reply fulfils.
std::future<void> submit_one(Server& server, uint64_t id,
                             RequestPtr* out = nullptr) {
  RequestPtr r = make_request(id, Tensor::ones(Shape{2}));
  std::future<void> done = r->done.get_future();
  EXPECT_TRUE(server.submit(r));
  if (out) *out = r;
  return done;
}

TEST(Server, FlushesImmediatelyAtMaxBatch) {
  BatchLog engine;
  // The deadline must not be what flushes this.
  Server server(engine, flush_rules(1, 4, 10000));
  server.start();
  metrics::Timer t;
  std::vector<std::future<void>> done;
  for (uint64_t i = 0; i < 4; ++i) done.push_back(submit_one(server, i));
  for (auto& f : done) f.wait();
  EXPECT_LT(t.seconds(), 1.0);  // no deadline wait
  server.stop();
  const auto batches = engine.batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(server.queue_depth(), 0);
}

TEST(Server, FlushesPartialBatchAtDeadline) {
  BatchLog engine;
  Server server(engine, flush_rules(1, 8, 30));
  metrics::Timer t;
  // Both queued before the worker exists, so they share one batch.
  std::future<void> d0 = submit_one(server, 0);
  std::future<void> d1 = submit_one(server, 1);
  server.start();
  d0.wait();
  d1.wait();
  const double waited = t.seconds();
  server.stop();
  ASSERT_EQ(engine.batches().size(), 1u);
  EXPECT_EQ(engine.batches()[0].size(), 2u);
  // The oldest request's deadline bounds the wait: the worker must have
  // actually waited for peers (>= ~deadline, minus scheduling slop).
  EXPECT_GE(waited, 0.02);
}

TEST(Server, ZeroDeadlineIsGreedy) {
  BatchLog engine;
  Server server(engine, flush_rules(1, 8, 0));
  server.start();
  metrics::Timer t;
  submit_one(server, 0).wait();
  EXPECT_LT(t.seconds(), 1.0);
  server.stop();
  ASSERT_EQ(engine.batches().size(), 1u);
  EXPECT_EQ(engine.batches()[0].size(), 1u);
}

TEST(Server, RejectsBeyondBoundedDepthAndDrainsOnStop) {
  BatchLog engine;
  metrics::ServeStats stats;
  stats.begin();
  Server server(engine, flush_rules(1, 4, 10000, /*max_depth=*/3), &stats);
  std::vector<std::future<void>> done;
  for (uint64_t i = 0; i < 3; ++i) done.push_back(submit_one(server, i));
  EXPECT_FALSE(server.submit(make_request(3, Tensor::ones(Shape{2}))));
  EXPECT_EQ(server.queue_depth(), 3);
  // Drain semantics: stop() hands the queued partial batch out at once,
  // without waiting out its deadline...
  metrics::Timer t;
  server.start();
  server.stop();
  EXPECT_LT(t.seconds(), 5.0);
  for (auto& f : done) f.wait();
  // ...and a stopped server admits nothing.
  EXPECT_FALSE(server.submit(make_request(4, Tensor::ones(Shape{2}))));
  ASSERT_EQ(engine.batches().size(), 1u);
  EXPECT_EQ(engine.batches()[0].size(), 3u);
  const metrics::ServeReport rep = stats.report();
  EXPECT_EQ(rep.submitted, 3u);
  EXPECT_EQ(rep.rejected, 2u);
  EXPECT_EQ(rep.completed, 3u);
}

TEST(Server, DeadlineReArmsAfterAnotherWorkerFlushes) {
  // Regression for the flush-deadline re-arm path: workers park on a
  // deadline computed from the oldest request; another worker pops that
  // request. The deadline must then be re-anchored to the CURRENT front --
  // a stale anchor would flush a freshly submitted request early (as a
  // batch of one) instead of letting it wait its own deadline_ms for peers.
  ThreadGuard tg;
  runtime::set_threads(2);
  BatchLog engine;
  Server server(engine, flush_rules(2, 3, 200));
  server.start();
  ASSERT_EQ(server.workers(), 2);

  std::future<void> d0 = submit_one(server, 0);
  // Both workers park with the deadline anchored to request 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Two more submissions complete a full batch that one worker takes
  // immediately -- request 0 leaves the queue long before its deadline.
  std::future<void> d1 = submit_one(server, 1);
  std::future<void> d2 = submit_one(server, 2);
  d0.wait();
  d1.wait();
  d2.wait();

  // A fresh request is anchored to its OWN submit time: it must be held for
  // ~deadline_ms waiting for peers, not flushed ~100 ms in against request
  // 0's long-gone deadline.
  metrics::Timer t;
  submit_one(server, 3).wait();
  const double waited = t.seconds();
  server.stop();
  const auto batches = engine.batches();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[1], (std::vector<uint64_t>{3}));
  EXPECT_GE(waited, 0.15);  // a stale anchor would flush at ~0.1 s
}

TEST(Server, ZeroDeadlineStaysGreedyUnderConcurrentWorkers) {
  // deadline_ms = 0 degenerate case: the flush time is the front's own
  // submit time (always in the past), so workers never park on a deadline
  // -- even when several race over the same queue.
  ThreadGuard tg;
  runtime::set_threads(3);
  BatchLog engine;
  metrics::ServeStats stats;
  stats.begin();
  Server server(engine, flush_rules(3, 4, 0), &stats);
  server.start();
  constexpr int kRequests = 32;
  metrics::Timer t;
  std::vector<std::future<void>> done;
  for (int i = 0; i < kRequests; ++i)
    done.push_back(submit_one(server, static_cast<uint64_t>(i)));
  for (auto& f : done) f.wait();
  EXPECT_LT(t.seconds(), 5.0);  // greedy: nobody waited a deadline
  server.stop();
  // Every request handed out exactly once.
  std::vector<int> seen(kRequests, 0);
  for (const auto& b : engine.batches())
    for (uint64_t id : b) ++seen[static_cast<size_t>(id)];
  EXPECT_EQ(seen, std::vector<int>(kRequests, 1));
  EXPECT_EQ(stats.report().completed, static_cast<uint64_t>(kRequests));
}

TEST(Server, StopDrainsAndWakesBlockedWorker) {
  BatchLog engine;
  Server server(engine, flush_rules(1, 8, 10000));
  server.start();
  // The worker blocks on the empty queue, then parks on the deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  RequestPtr r;
  std::future<void> done = submit_one(server, 0, &r);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  metrics::Timer t;
  server.stop();  // must wake it, serve the request, and join
  EXPECT_LT(t.seconds(), 5.0);
  ASSERT_EQ(done.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_FALSE(r->failed);
  EXPECT_EQ(engine.batches().size(), 1u);
}

// ---------------- Frozen engines ----------------

TEST(Frozen, VisionBitwiseIdenticalToModuleEvalForward) {
  // Reference module: perturb BN stats with a train-mode forward, then
  // checkpoint it.
  auto ref = tiny_resnet(1);
  Rng rng(7);
  ref->train(true);
  ref->forward(ag::leaf(rng.randn(Shape{2, 3, 8, 8})));
  const std::string path = tmp_path("frozen_vision.ckpt");
  nn::save_checkpoint(*ref, path);

  // Module eval forward (the trainer's path).
  Tensor x = rng.randn(Shape{3, 3, 8, 8});
  core::EvalModeGuard eg(*ref);
  Tensor want = core::eval_forward(*ref, x);

  // Frozen artifact: differently seeded module + checkpoint load + packing.
  FrozenModel frozen(tiny_resnet(999), "resnet18-test", path);
  Tensor got = frozen.forward(x);
  EXPECT_TRUE(bitwise_equal(want, got));
  EXPECT_EQ(frozen.num_params(), ref->num_params());
  std::remove(path.c_str());
}

TEST(Frozen, HybridLowRankBitwiseIdentical) {
  auto ref = tiny_resnet(2, /*first_lowrank=*/2);
  const std::string path = tmp_path("frozen_hybrid.ckpt");
  nn::save_checkpoint(*ref, path);
  Rng rng(11);
  Tensor x = rng.randn(Shape{2, 3, 8, 8});
  core::EvalModeGuard eg(*ref);
  Tensor want = core::eval_forward(*ref, x);
  FrozenModel frozen(tiny_resnet(998, 2), "hybrid-test", path);
  EXPECT_TRUE(bitwise_equal(want, frozen.forward(x)));
  std::remove(path.c_str());
}

TEST(Frozen, LstmBitwiseIdenticalToModuleEvalForward) {
  auto ref = tiny_lstm(3, /*rank=*/4);
  const std::string path = tmp_path("frozen_lstm.ckpt");
  nn::save_checkpoint(*ref, path);

  const int64_t t = 6, b = 3;
  std::vector<int64_t> ids(static_cast<size_t>(t * b));
  Rng rng(13);
  for (auto& id : ids) id = rng.uniform_int(50);

  core::EvalModeGuard eg(*ref);
  Tensor want = core::eval_forward_lm(*ref, ids, t, b, nullptr);
  FrozenLstm frozen(tiny_lstm(997, 4), t, "lstm-test", path);
  EXPECT_TRUE(bitwise_equal(want, frozen.forward(ids, t, b)));
  std::remove(path.c_str());
}

// A 32-sample forward equals the 32 single-sample forwards, bitwise, row
// for row. The width-0.25 hybrid ResNet-18's classifier GEMM (128 -> 10)
// changes avx2 kernel at batch 9 (DESIGN.md §13), so this pins that a
// served row does not depend on the size of the batch it is served in.
TEST(Frozen, BatchForwardEqualsSingleSampleForwardsBitwise) {
  Rng rng(23);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.25;
  cfg.first_lowrank_block = 2;
  cfg.rank_ratio = 0.25;
  FrozenModel frozen(std::make_unique<models::ResNet18Cifar>(cfg, rng),
                     "batch-invariance-test");
  const Tensor x = rng.randn(Shape{32, 3, 8, 8});
  const Tensor all = frozen.forward(x);
  ASSERT_EQ(all.shape(), (Shape{32, 10}));
  for (int64_t i = 0; i < 32; ++i)
    EXPECT_TRUE(bitwise_equal(frozen.forward(slice(x, 0, i, 1)),
                              slice(all, 0, i, 1)))
        << "sample " << i;
}

TEST(Frozen, PackedArenaBacksParameters) {
  FrozenModel frozen(tiny_resnet(4), "packed-test");
  // The packed artifact is one contiguous float block covering every param.
  EXPECT_EQ(frozen.packed_bytes(),
            frozen.num_params() * static_cast<int64_t>(sizeof(float)));
  auto params = frozen.module().parameters();
  int64_t shared = 0;
  for (nn::Param* p : params) {
    EXPECT_FALSE(p->var->requires_grad);
    if (p->var->value.storage_refcount() > 1) ++shared;
  }
  // Every parameter is a view into the shared arena.
  EXPECT_EQ(shared, static_cast<int64_t>(params.size()));
  EXPECT_FALSE(frozen.module().is_training());
}

TEST(Frozen, SteadyStateServesWithZeroSysAllocs) {
  if (!runtime::BufferPool::instance().enabled())
    GTEST_SKIP() << "buffer pool disabled (PF_POOL_DISABLE)";
  FrozenModel frozen(tiny_resnet(5), "alloc-test");
  frozen.prime(Shape{3, 8, 8}, 4);
  Rng rng(17);
  Tensor x = rng.randn(Shape{4, 3, 8, 8});
  frozen.forward(x);  // one more warm pass with the real input resident
  metrics::reset_alloc_stats(false);
  for (int i = 0; i < 20; ++i) frozen.forward(x);
  const metrics::AllocStats s = metrics::alloc_stats();
  EXPECT_EQ(s.sys_allocs, 0u) << "steady-state request hit the system "
                                 "allocator";
  EXPECT_EQ(s.cow_unshares, 0u) << "steady-state request paid a COW copy";
  EXPECT_GT(s.allocations, 0u);  // it did run, all from the free lists
}

// ---------------- Server ----------------

// Engine stub whose forward blocks on a gate; used to pin requests in the
// queue deterministically.
class GateEngine : public Engine {
 public:
  GateEngine() : gate_open_(gate_.get_future().share()) {}
  std::string name() const override { return "gate"; }
  void forward_batch(const std::vector<RequestPtr>& reqs) override {
    if (!started_flag_.exchange(true)) started_.set_value();
    gate_open_.wait();
    for (const RequestPtr& r : reqs) r->output = Tensor::ones(Shape{1});
  }
  std::future<void> started() { return started_.get_future(); }
  void open() { gate_.set_value(); }

 private:
  std::promise<void> started_;
  std::atomic<bool> started_flag_{false};
  std::promise<void> gate_;
  std::shared_future<void> gate_open_;
};

TEST(Server, AdmissionRejectsWhenQueueFull) {
  GateEngine engine;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.batcher.max_batch = 1;
  cfg.batcher.deadline_ms = 0;
  cfg.batcher.max_depth = 2;
  metrics::ServeStats stats;
  stats.begin();
  Server server(engine, cfg, &stats);
  server.start();

  auto r1 = make_request(1, Tensor::ones(Shape{1}));
  ASSERT_TRUE(server.submit(r1));
  engine.started().wait();  // the single worker now holds r1, queue empty

  ASSERT_TRUE(server.submit(make_request(2, Tensor::ones(Shape{1}))));
  ASSERT_TRUE(server.submit(make_request(3, Tensor::ones(Shape{1}))));
  EXPECT_FALSE(server.submit(make_request(4, Tensor::ones(Shape{1}))));

  engine.open();
  server.stop();
  const metrics::ServeReport rep = stats.report();
  EXPECT_EQ(rep.submitted, 3u);
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.completed, 3u);  // drain: queued work finished on stop()
}

TEST(Server, ConcurrentClientsGetBitwiseDeterministicResults) {
  // Per-request results must not depend on which batch a request landed in,
  // which worker served it, or what else was in flight. Serve a frozen
  // ResNet to 4 hammering clients, then check every response against the
  // solo single-request forward.
  FrozenModel frozen(tiny_resnet(6), "det-test");
  frozen.prime(Shape{3, 8, 8}, 4);

  ServerConfig cfg;
  cfg.workers = 2;
  cfg.batcher.max_batch = 4;
  cfg.batcher.deadline_ms = 1.0;
  metrics::ServeStats stats;
  stats.begin();
  Server server(frozen, cfg, &stats);
  server.start();

  constexpr int kClients = 4, kPerClient = 8;
  // Deterministic per-request inputs, generated up front.
  std::vector<Tensor> inputs;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    Rng rng(1000 + static_cast<uint64_t>(i));
    inputs.push_back(rng.randn(Shape{3, 8, 8}));
  }
  std::vector<Tensor> outputs(inputs.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerClient; ++k) {
        const size_t i = static_cast<size_t>(c * kPerClient + k);
        RequestPtr r = make_request(i, inputs[i]);
        std::future<void> done = r->done.get_future();
        ASSERT_TRUE(server.submit(r));
        done.wait();
        outputs[i] = r->output;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();

  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor solo = frozen.forward(inputs[i].reshape(Shape{1, 3, 8, 8}))
                      .reshape(Shape{outputs[i].numel()});
    EXPECT_TRUE(bitwise_equal(solo, outputs[i])) << "request " << i;
  }
  const metrics::ServeReport rep = stats.report();
  EXPECT_EQ(rep.completed, static_cast<uint64_t>(inputs.size()));
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_GE(rep.mean_batch, 1.0);
}

TEST(Server, ResultsAndBatchHistogramIdenticalAcrossThreadCounts) {
  // PF_THREADS determinism sweep for the serving path: with one worker and
  // the whole workload queued before start(), batch assembly is a pure
  // function of the request order -- so the ServeStats batch histogram AND
  // every response must come out identical whether the kernel pool has 1 or
  // 4 threads (worker-loop GEMMs take the inline-serial path either way).
  ThreadGuard tg;
  constexpr int kRequests = 14;  // 3 full batches of 4 + one partial of 2
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    Rng rng(2000 + static_cast<uint64_t>(i));
    inputs.push_back(rng.randn(Shape{3, 8, 8}));
  }
  auto run = [&](int threads) {
    runtime::set_threads(threads);
    FrozenModel frozen(tiny_resnet(21, 2), "sweep-test");
    frozen.prime(Shape{3, 8, 8}, 4);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batcher.max_batch = 4;
    cfg.batcher.deadline_ms = 0;  // greedy: take whatever is queued
    cfg.batcher.max_depth = kRequests;
    metrics::ServeStats stats;
    stats.begin();
    Server server(frozen, cfg, &stats);
    // Queue the complete workload before the worker exists.
    std::vector<RequestPtr> reqs;
    std::vector<std::future<void>> done;
    for (int i = 0; i < kRequests; ++i) {
      reqs.push_back(make_request(static_cast<uint64_t>(i),
                                  inputs[static_cast<size_t>(i)]));
      done.push_back(reqs.back()->done.get_future());
      EXPECT_TRUE(server.submit(reqs.back()));
    }
    server.start();
    for (auto& f : done) f.wait();
    server.stop();
    std::vector<Tensor> outputs;
    for (const RequestPtr& r : reqs) outputs.push_back(r->output);
    return std::make_pair(outputs, stats.report().batch_hist);
  };
  const auto [out1, hist1] = run(1);
  const auto [out4, hist4] = run(4);

  EXPECT_EQ(hist1, hist4);
  ASSERT_EQ(hist1.size(), 5u);  // max recorded batch size 4
  EXPECT_EQ(hist1[4], 3u);
  EXPECT_EQ(hist1[2], 1u);
  ASSERT_EQ(out1.size(), out4.size());
  for (size_t i = 0; i < out1.size(); ++i)
    EXPECT_TRUE(bitwise_equal(out1[i], out4[i])) << "request " << i;
}

TEST(Server, ClosedLoopLoadGenCompletesAll) {
  FrozenLstm frozen(tiny_lstm(8), 5, "lstm-serve");
  frozen.prime(4);
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.batcher.max_batch = 4;
  cfg.batcher.deadline_ms = 0.5;
  metrics::ServeStats stats;
  stats.begin();
  Server server(frozen, cfg, &stats);
  server.start();

  ClosedLoopConfig lg;
  lg.clients = 3;
  lg.requests_per_client = 6;
  const int64_t done = run_closed_loop(
      server,
      [](uint64_t id) {
        Rng rng(id);
        std::vector<int64_t> toks(5);
        for (auto& t : toks) t = rng.uniform_int(50);
        return make_request(id, std::move(toks));
      },
      lg);
  server.stop();
  EXPECT_EQ(done, 18);
  const metrics::ServeReport rep = stats.report();
  EXPECT_EQ(rep.completed, 18u);
  EXPECT_GT(rep.throughput_rps, 0.0);
  EXPECT_GT(rep.p99_ms, 0.0);
  EXPECT_GE(rep.p99_ms, rep.p50_ms);
  // Histogram accounts for every completed request.
  uint64_t hist_total = 0;
  for (size_t s = 0; s < rep.batch_hist.size(); ++s)
    hist_total += rep.batch_hist[s] * static_cast<uint64_t>(s);
  EXPECT_EQ(hist_total, rep.completed);
}

TEST(Server, MalformedRequestFailsOnlyItsBatch) {
  // FrozenLstm throws on a prefix whose length != seq_len. The worker must
  // fail that batch -- fulfilled, failed, not completed -- and keep serving.
  FrozenLstm frozen(tiny_lstm(10), 5, "lstm-malformed");
  frozen.prime(1);
  metrics::ServeStats stats;
  stats.begin();
  Server server(frozen, flush_rules(1, 1, 0), &stats);
  server.start();
  RequestPtr bad = make_request(0, std::vector<int64_t>{1, 2, 3});
  RequestPtr good = make_request(1, std::vector<int64_t>{1, 2, 3, 4, 5});
  std::future<void> bad_done = bad->done.get_future();
  std::future<void> good_done = good->done.get_future();
  ASSERT_TRUE(server.submit(bad));
  ASSERT_TRUE(server.submit(good));
  bad_done.wait();
  good_done.wait();
  server.stop();
  EXPECT_TRUE(bad->failed);
  EXPECT_FALSE(good->failed);
  // Batch of one, seq_len 5: the last timestep is logits row 4.
  const Tensor want = frozen.forward({1, 2, 3, 4, 5}, 5, 1)
                          .narrow(4, 1)
                          .reshape(Shape{good->output.numel()});
  EXPECT_TRUE(bitwise_equal(want, good->output));
  const metrics::ServeReport rep = stats.report();
  EXPECT_EQ(rep.submitted, 2u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.batches, 1u);
}

TEST(Server, OpenLoopLoadGenRespectsAdmission) {
  FrozenModel frozen(tiny_resnet(9), "open-loop");
  frozen.prime(Shape{3, 8, 8}, 8);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.batcher.max_batch = 8;
  cfg.batcher.deadline_ms = 1.0;
  cfg.batcher.max_depth = 64;
  metrics::ServeStats stats;
  stats.begin();
  Server server(frozen, cfg, &stats);
  server.start();

  OpenLoopConfig lg;
  lg.rate_rps = 2000;  // deliberately above service rate at this size
  lg.total_requests = 64;
  const int64_t done = run_open_loop(
      server,
      [](uint64_t id) {
        Rng rng(id + 31);
        return make_request(id, rng.randn(Shape{3, 8, 8}));
      },
      lg);
  server.stop();
  const metrics::ServeReport rep = stats.report();
  EXPECT_EQ(static_cast<uint64_t>(done), rep.completed);
  EXPECT_EQ(rep.submitted + rep.rejected, 64u);
  EXPECT_GT(rep.mean_batch, 1.0);  // the backlog actually batched
}

// ---------------- ServeStats / Reservoir ----------------

TEST(ServeStats, ReservoirExactQuantilesBelowCapacity) {
  metrics::Reservoir res(4096);
  for (int i = 1; i <= 1000; ++i) res.add(i);
  EXPECT_EQ(res.count(), 1000);
  EXPECT_DOUBLE_EQ(res.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(res.quantile(1.0), 1000.0);
  EXPECT_NEAR(res.quantile(0.5), 500.0, 1.0);
  EXPECT_NEAR(res.quantile(0.99), 990.0, 1.0);
  EXPECT_DOUBLE_EQ(res.max_seen(), 1000.0);
  EXPECT_NEAR(res.mean(), 500.5, 1e-9);
}

TEST(ServeStats, ReservoirEvictionStaysInRange) {
  metrics::Reservoir res(64);
  for (int i = 1; i <= 10000; ++i) res.add(i);
  EXPECT_EQ(res.count(), 10000);
  const double p50 = res.quantile(0.5);
  EXPECT_GT(p50, 2000.0);  // a uniform sample cannot collapse to the head
  EXPECT_LT(p50, 8000.0);
  EXPECT_DOUBLE_EQ(res.max_seen(), 10000.0);
}

TEST(ServeStats, ReportAggregates) {
  metrics::ServeStats stats;
  stats.begin();
  for (int i = 0; i < 10; ++i) stats.record_submit();
  stats.record_reject();
  stats.record_batch(4, 2);
  stats.record_batch(6, 0);
  for (int i = 0; i < 10; ++i) stats.record_done(1.0 + i);
  const metrics::ServeReport r = stats.report();
  EXPECT_EQ(r.submitted, 10u);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.completed, 10u);
  EXPECT_EQ(r.batches, 2u);
  EXPECT_DOUBLE_EQ(r.mean_batch, 5.0);
  EXPECT_DOUBLE_EQ(r.mean_depth, 1.0);
  EXPECT_EQ(r.max_depth, 2);
  ASSERT_EQ(r.batch_hist.size(), 7u);
  EXPECT_EQ(r.batch_hist[4], 1u);
  EXPECT_EQ(r.batch_hist[6], 1u);
  EXPECT_GT(r.elapsed_s, 0.0);
  EXPECT_FALSE(r.summary().empty());
}

}  // namespace
}  // namespace pf::serve
