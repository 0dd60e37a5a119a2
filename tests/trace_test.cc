// Tests for pf::trace (src/trace): span nesting, cross-thread merge
// ordering, ring wraparound accounting, chrome://tracing JSON
// well-formedness for real training and serving runs, flame aggregation,
// and the contract that tracing never perturbs results (trace-on training
// is bitwise-identical to trace-off).
//
// These tests run both in the plain suite and under PF_TRACE=1 + ASan
// (ctest entry pf_tests_trace), so none of them assume the tracer starts
// disabled: every test pins the state it needs and restores the previous
// state on exit.
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "models/resnet.h"
#include "runtime/thread_pool.h"
#include "serve/fleet.h"
#include "serve/frozen.h"
#include "serve/server.h"
#include "tensor/rng.h"

namespace pf {
namespace {

// Pins tracer state for a test: clears residue from earlier tests on entry
// and restores the ambient enabled flag (e.g. PF_TRACE=1) on exit.
struct TraceGuard {
  bool prev = trace::enabled();
  TraceGuard() { trace::reset(); }
  ~TraceGuard() {
    trace::set_enabled(prev);
    trace::reset();
  }
};

// Restores the env-default thread count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_threads(0); }
};

std::string tmp_path(const char* name) {
  // getpid(): the same test code runs concurrently in the plain binary and
  // the sanitizer ctest entries; a shared /tmp name lets one process
  // clobber the other's files mid-run.
  return std::string(::testing::TempDir()) + name + "." +
         std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// Minimal structural JSON validation: every brace/bracket outside string
// literals balances with the right partner and the document is one object.
void expect_well_formed_json(const std::string& s) {
  ASSERT_FALSE(s.empty());
  std::vector<char> stack;
  bool in_str = false, esc = false;
  for (char ch : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (ch == '\\') {
        esc = true;
      } else if (ch == '"') {
        in_str = false;
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_str = true;
        break;
      case '{':
      case '[':
        stack.push_back(ch);
        break;
      case '}':
        ASSERT_FALSE(stack.empty()) << "unbalanced '}'";
        EXPECT_EQ(stack.back(), '{');
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty()) << "unbalanced ']'";
        EXPECT_EQ(stack.back(), '[');
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(in_str) << "unterminated string literal";
  EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed scopes";
  EXPECT_EQ(s.front(), '{');
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

const trace::Event* find_event(const std::vector<trace::Event>& ev,
                               const char* name) {
  for (const trace::Event& e : ev)
    if (std::strcmp(e.name, name) == 0) return &e;
  return nullptr;
}

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

// ---------------- Scope / ring semantics ----------------

TEST(TraceScope, RecordsNestingDepthAndContainment) {
  TraceGuard g;
  trace::set_enabled(true);
  {
    PF_TRACE_SCOPE("t.outer");
    {
      PF_TRACE_SCOPE_C("t.mid", 7);
      { PF_TRACE_SCOPE("t.inner"); }
    }
    { PF_TRACE_SCOPE("t.mid2"); }
  }
  const std::vector<trace::Event> ev = trace::drain();
  ASSERT_EQ(ev.size(), 4u);

  const trace::Event* outer = find_event(ev, "t.outer");
  const trace::Event* mid = find_event(ev, "t.mid");
  const trace::Event* inner = find_event(ev, "t.inner");
  const trace::Event* mid2 = find_event(ev, "t.mid2");
  ASSERT_TRUE(outer && mid && inner && mid2);

  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(mid->depth, 1);
  EXPECT_EQ(inner->depth, 2);
  EXPECT_EQ(mid2->depth, 1);
  EXPECT_EQ(mid->counter, 7);
  EXPECT_EQ(outer->counter, -1);

  // All on the recording thread, and children contained in their parents.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->begin_ns, mid->begin_ns);
  EXPECT_LE(mid->begin_ns, inner->begin_ns);
  EXPECT_LE(inner->end_ns, mid->end_ns);
  EXPECT_LE(mid->end_ns, outer->end_ns);
  EXPECT_LE(mid->end_ns, mid2->begin_ns);
  EXPECT_LE(mid2->end_ns, outer->end_ns);

  // Drain cleared the rings.
  EXPECT_TRUE(trace::drain().empty());
}

TEST(TraceScope, DisabledScopesRecordNothing) {
  TraceGuard g;
  trace::set_enabled(false);
  {
    PF_TRACE_SCOPE("t.ghost");
    PF_TRACE_SCOPE_C("t.ghost2", 1);
  }
  trace::emit("t.ghost3", 0, 1);
  trace::set_enabled(true);  // drain under "on" to prove nothing was buffered
  EXPECT_TRUE(trace::drain().empty());
}

TEST(TraceMerge, CrossThreadEventsMergeSortedByBeginTime) {
  TraceGuard g;
  trace::set_enabled(true);
  constexpr int kThreads = 3, kEach = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kEach; ++i) {
        PF_TRACE_SCOPE_C("t.span", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<trace::Event> ev = trace::drain();
  ASSERT_EQ(ev.size(), static_cast<size_t>(kThreads * kEach));

  std::set<int> tids;
  for (size_t i = 0; i < ev.size(); ++i) {
    tids.insert(ev[i].tid);
    EXPECT_LE(ev[i].begin_ns, ev[i].end_ns);
    if (i > 0) {
      // The merged timeline is globally sorted by begin time.
      EXPECT_LE(ev[i - 1].begin_ns, ev[i].begin_ns) << "index " << i;
    }
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));

  // Within each thread, recording order survives the merge: the per-span
  // counters 0..kEach-1 appear in ascending order per tid.
  for (int tid : tids) {
    int64_t last = -1;
    for (const trace::Event& e : ev) {
      if (e.tid != tid) continue;
      EXPECT_EQ(e.counter, last + 1) << "tid " << tid;
      last = e.counter;
    }
    EXPECT_EQ(last, kEach - 1);
  }
}

TEST(TraceRing, WraparoundKeepsNewestEventsAndCountsDropped) {
  TraceGuard g;
  trace::set_enabled(true);
  constexpr std::uint64_t kExtra = 100;
  const std::uint64_t n = trace::kRingCapacity + kExtra;
  // Synthetic timestamps make survivorship checkable: event i spans [i, i+1).
  for (std::uint64_t i = 0; i < n; ++i)
    trace::emit("t.wrap", i, i + 1, static_cast<std::int64_t>(i));

  const std::vector<trace::Event> ev = trace::drain();
  ASSERT_EQ(ev.size(), trace::kRingCapacity);
  EXPECT_EQ(trace::dropped(), kExtra);
  // Oldest kExtra events were overwritten; the rest survive in order.
  for (size_t i = 0; i < ev.size(); ++i)
    EXPECT_EQ(ev[i].begin_ns, kExtra + i);

  trace::reset();
  EXPECT_EQ(trace::dropped(), 0u);
}

// ---------------- Aggregation / flame summary ----------------

TEST(TraceFlame, AggregateSeparatesSelfTimeFromChildren) {
  TraceGuard g;
  trace::set_enabled(true);
  // outer spans 100us; inner, nested on the same thread, spans 50us.
  trace::emit("t.outer", 1'000, 101'000);
  trace::emit("t.inner", 11'000, 61'000);
  const std::vector<trace::Event> ev = trace::drain();

  const std::vector<trace::FlameRow> rows = trace::aggregate(ev);
  ASSERT_EQ(rows.size(), 2u);
  const trace::FlameRow* outer = nullptr;
  const trace::FlameRow* inner = nullptr;
  for (const trace::FlameRow& r : rows) {
    if (r.name == "t.outer") outer = &r;
    if (r.name == "t.inner") inner = &r;
  }
  ASSERT_TRUE(outer && inner);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_NEAR(outer->total_ms, 0.1, 1e-9);
  EXPECT_NEAR(outer->self_ms, 0.05, 1e-9);  // child time subtracted
  EXPECT_NEAR(inner->total_ms, 0.05, 1e-9);
  EXPECT_NEAR(inner->self_ms, 0.05, 1e-9);

  const std::string flame = trace::flame_summary(ev);
  EXPECT_TRUE(contains(flame, "t.outer"));
  EXPECT_TRUE(contains(flame, "t.inner"));
  EXPECT_TRUE(contains(flame, "|"));
}

// ---------------- End-to-end JSON export ----------------

TEST(TraceJson, TrainingRunExportsChromeLoadableSpans) {
  TraceGuard g;
  ThreadGuard tg;
  const std::string path = tmp_path("pf_trace_train_test.json");
  auto ds = tiny_data();
  core::VisionTrainConfig cfg;
  cfg.epochs = 2;
  cfg.warmup_epochs = 1;  // crosses the SVD warm-start boundary
  cfg.batch = 16;
  cfg.seed = 3;
  cfg.threads = 2;  // pooled dispatch so pool.* spans are recorded
  cfg.trace_path = path;
  core::train_vision(tiny_resnet_factory(false), tiny_resnet_factory(true),
                     ds, cfg);

  const std::string json = read_file(path);
  expect_well_formed_json(json);
  EXPECT_TRUE(contains(json, "\"traceEvents\""));
  EXPECT_TRUE(contains(json, "\"ph\":\"X\""));
  // Every layer the issue calls out shows up in one training timeline:
  // runtime dispatch, kernels, phase boundaries, the Table-19 SVD cost.
  for (const char* span :
       {"pool.dispatch", "pool.worker", "matmul", "im2col",
        "train.epoch.warmup", "train.epoch.finetune", "train.svd_warm_start",
        "svd.factorize", "train.eval"}) {
    EXPECT_TRUE(contains(json, std::string("\"name\":\"") + span + "\""))
        << "missing span " << span;
  }
  EXPECT_TRUE(contains(json, "\"counter\""));  // PF_TRACE_SCOPE_C payloads
  std::filesystem::remove(path);
}

TEST(TraceJson, ServeRunExportsQueueFlushForwardReplySpans) {
  TraceGuard g;
  ThreadGuard tg;
  runtime::set_threads(2);
  const std::string path = tmp_path("pf_trace_serve_test.json");

  Rng rng(31);
  models::ResNetCifarConfig mc;
  mc.width_mult = 0.0625;
  serve::FrozenModel frozen(
      std::make_unique<models::ResNet18Cifar>(mc, rng), "trace-test");
  frozen.prime(Shape{3, 8, 8}, 4);

  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.deadline_ms = 0;  // greedy flush
  cfg.trace_path = path;
  serve::Server server(frozen, cfg);

  constexpr int kRequests = 6;
  std::vector<serve::RequestPtr> reqs;
  std::vector<std::future<void>> done;
  for (int i = 0; i < kRequests; ++i) {
    Rng in(100 + static_cast<uint64_t>(i));
    reqs.push_back(serve::make_request(static_cast<uint64_t>(i),
                                       in.randn(Shape{3, 8, 8})));
    done.push_back(reqs.back()->done.get_future());
  }
  server.start();
  for (const serve::RequestPtr& r : reqs) ASSERT_TRUE(server.submit(r));
  for (std::future<void>& f : done) f.wait();
  server.stop();  // exports the timeline

  const std::string json = read_file(path);
  expect_well_formed_json(json);
  // Queueing delay and batch compute are separable per request: one
  // serve.queue span per request plus flush/forward/reply per batch.
  for (const char* span :
       {"serve.queue", "serve.flush", "serve.forward", "serve.reply"}) {
    EXPECT_TRUE(contains(json, std::string("\"name\":\"") + span + "\""))
        << "missing span " << span;
  }
  std::filesystem::remove(path);
}

TEST(TraceJson, FleetRunExportsQueueFlushForwardReplySpans) {
  // The same spans from a two-model fleet exported via
  // FleetConfig::trace_path: one serving loop records them for every model.
  TraceGuard g;
  ThreadGuard tg;
  runtime::set_threads(2);
  const std::string path = tmp_path("pf_trace_fleet_test.json");

  serve::FleetConfig cfg;
  cfg.workers = 2;
  cfg.trace_path = path;
  serve::Fleet fleet(cfg);
  for (uint64_t seed : {41u, 42u}) {
    serve::FleetModelConfig mc;
    mc.name = "trace-fleet-" + std::to_string(seed);
    mc.factory = [seed]() -> std::unique_ptr<serve::Engine> {
      Rng rng(seed);
      models::ResNetCifarConfig rc;
      rc.width_mult = 0.0625;
      auto f = std::make_unique<serve::FrozenModel>(
          std::make_unique<models::ResNet18Cifar>(rc, rng), "trace-fleet");
      f->prime(Shape{3, 8, 8}, 4);
      return f;
    };
    mc.batcher.max_batch = 4;
    mc.batcher.deadline_ms = 0;  // greedy flush
    fleet.add_model(std::move(mc));
  }

  constexpr int kRequests = 6;
  std::vector<std::future<void>> done;
  fleet.start();
  for (int i = 0; i < kRequests; ++i) {
    Rng in(200 + static_cast<uint64_t>(i));
    serve::RequestPtr r = serve::make_request(static_cast<uint64_t>(i),
                                              in.randn(Shape{3, 8, 8}));
    done.push_back(r->done.get_future());
    ASSERT_TRUE(fleet.submit(i % 2, r));
  }
  for (std::future<void>& f : done) f.wait();
  fleet.stop();  // exports the timeline

  const std::string json = read_file(path);
  expect_well_formed_json(json);
  for (const char* span :
       {"serve.queue", "serve.flush", "serve.forward", "serve.reply"}) {
    EXPECT_TRUE(contains(json, std::string("\"name\":\"") + span + "\""))
        << "missing span " << span;
  }
  std::filesystem::remove(path);
}

// ---------------- Tracing never perturbs results ----------------

TEST(TraceDeterminism, TraceOnTrainingBitwiseIdenticalToTraceOff) {
  TraceGuard g;
  ThreadGuard tg;
  // Same full Algorithm 1 run twice -- tracer hard-off vs tracer exporting
  // a timeline -- must produce identical losses and identical final bits.
  auto run = [&](bool traced, const std::string& dir) {
    trace::set_enabled(false);
    auto ds = tiny_data();
    core::VisionTrainConfig cfg;
    cfg.epochs = 2;
    cfg.warmup_epochs = 1;
    cfg.batch = 16;
    cfg.seed = 13;
    cfg.threads = 2;
    cfg.checkpoint_dir = dir;
    cfg.checkpoint_every = 100;  // final-epoch snapshot only
    if (traced) cfg.trace_path = tmp_path("pf_trace_det_test.json");
    return core::train_vision(tiny_resnet_factory(false),
                              tiny_resnet_factory(true), ds, cfg);
  };
  const std::string dir_off = tmp_path("pf_trace_det_off");
  const std::string dir_on = tmp_path("pf_trace_det_on");
  const core::VisionResult off = run(false, dir_off);
  const core::VisionResult on = run(true, dir_on);

  ASSERT_EQ(off.epochs.size(), on.epochs.size());
  for (size_t e = 0; e < off.epochs.size(); ++e)
    EXPECT_EQ(off.epochs[e].train_loss, on.epochs[e].train_loss)
        << "epoch " << e;
  EXPECT_EQ(off.final_acc, on.final_acc);
  EXPECT_EQ(off.final_loss, on.final_loss);

  Rng rng(0);
  std::unique_ptr<nn::UnaryModule> m_off = tiny_resnet_factory(true)(rng);
  std::unique_ptr<nn::UnaryModule> m_on = tiny_resnet_factory(true)(rng);
  core::load_snapshot(*m_off, dir_off);
  core::load_snapshot(*m_on, dir_on);
  const Tensor p_off = m_off->flat_params();
  const Tensor p_on = m_on->flat_params();
  ASSERT_EQ(p_off.numel(), p_on.numel());
  EXPECT_EQ(std::memcmp(p_off.data(), p_on.data(),
                        static_cast<size_t>(p_off.numel()) * sizeof(float)),
            0);
  std::filesystem::remove_all(dir_off);
  std::filesystem::remove_all(dir_on);
  std::filesystem::remove(tmp_path("pf_trace_det_test.json"));
}

}  // namespace
}  // namespace pf
