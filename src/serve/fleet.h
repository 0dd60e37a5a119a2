// The serving front end: N engines x M workers on one runtime pool, plus the
// load generators the serving benches use. serve::Server (serve/server.h) is
// a one-model Fleet.
//
// A fleet hosts many serving artifacts -- fp32, quantized, delta-variant --
// behind one worker pool. Each model gets its own bounded request queue
// (per-model admission control, so one tenant's burst sheds that tenant's
// load instead of everyone's), its own flush rules (BatcherConfig, see
// serve/request.h) and an SLO class {deadline_ms, weight}.
//
// Scheduling is weighted earliest-deadline-first over FLUSHABLE queues:
//  * a queue becomes flushable under the usual dynamic-batching rules
//    (max_batch queued, or its oldest request has waited the batcher
//    deadline);
//  * among flushable queues a worker picks the smallest *virtual* deadline
//      t_oldest + slo.deadline_ms / slo.weight
//    so a 2x-weight model tolerates half the slack before it preempts --
//    weighted admission across queues without starving anyone (every queue's
//    virtual deadline eventually becomes the minimum as it ages);
//  * ties break on the lowest model index, which (with the deterministic
//    arrival timeline below) keeps scheduling decisions reproducible.
//
// Engines materialize LAZILY: a model registers a factory, not an engine,
// and the factory runs at most once successfully, at first dispatch (or an
// explicit materialize() call). N delta variants of one base therefore cost
// one base artifact plus N small deltas on disk, and only the variants that
// actually receive traffic ever occupy serving memory.
//
// Worker model: start() launches one dispatcher std::thread whose only job
// is to issue a single runtime::parallel_for over the worker ids. Each chunk
// IS a worker loop, so the serving workers are literally the thread pool's
// threads (chunk i -> pool worker i; the dispatcher itself doubles as
// worker 0, exactly like every kernel dispatch). Consequences, all
// intentional:
//  * worker count is clamped to runtime::threads() -- a pool thread runs
//    its chunks sequentially, so a second blocking loop queued behind a
//    first would never start;
//  * while the fleet runs, the pool's dispatch slot is occupied, so GEMMs
//    inside worker loops (and any parallel_for from client threads) take
//    the deterministic inline-serial path: parallelism comes from
//    *requests*, not from splitting one request's kernels. Per-request
//    outputs are batch-composition-invariant (row-partitioned GEMMs whose
//    per-element summation order does not depend on the row count), so
//    serve outputs are bitwise identical across PF_THREADS within a backend;
//  * runtime::set_threads() must not be called while a fleet is running
//    (it blocks on the dispatch slot until stop()).
//
// Every accepted request is fulfilled exactly once: served, or marked
// `failed` when the fault plan drops it or the engine throws on its batch
// (a factory that cannot build, a request the engine rejects). Workers keep
// serving either way; submit() is safe from any thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "metrics/serve_stats.h"
#include "serve/frozen.h"
#include "serve/request.h"

namespace pf::serve {

struct SloClass {
  double deadline_ms = 50.0;  // latency objective (virtual-deadline slack)
  double weight = 1.0;        // admission weight; higher preempts sooner
};

using EngineFactory = std::function<std::unique_ptr<Engine>()>;

struct FleetModelConfig {
  std::string name;
  EngineFactory factory;  // lazy; never runs again once it succeeds
  BatcherConfig batcher;  // per-model flush rules + admission bound
  SloClass slo;
};

struct FleetConfig {
  int workers = 2;  // desired; clamped to runtime::threads() at start()
  // Deterministic fault schedule: with drop_requests(p), workers drop each
  // (id, attempt) with probability p and fulfil it failed instead of
  // serving it, so clients see the failure (see submit_with_retry).
  fault::Plan fault;
  // When non-empty, tracing is enabled from start() to stop(), and stop()
  // writes the timeline here as chrome://tracing JSON: serve.queue per
  // request, serve.flush / serve.forward / serve.reply per batch.
  std::string trace_path;
};

class Fleet {
 public:
  // `stats` may be null (no recording). Register its per-model streams
  // (FleetStats::add_model) before the matching add_model call here.
  explicit Fleet(const FleetConfig& cfg,
                 metrics::FleetStats* stats = nullptr);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Registers a model; returns its index. Before start() only. The model's
  // events are recorded into `sink` when given, else into its FleetStats
  // stream; the FleetStats total sees every model's events either way.
  int add_model(FleetModelConfig m, metrics::ServeStats* sink = nullptr);

  void start();
  void stop();  // idempotent: drain all queues, join, export the trace

  // Enqueue a request for `model`. False = admission reject (that model's
  // queue full, or fleet stopped); rejected promises are never fulfilled.
  bool submit(int model, const RequestPtr& r);

  // Runs the factory now (idempotent, thread-safe). Useful to prime an
  // engine before traffic, and what the tests use to observe laziness.
  // Throws what the factory throws; a later call retries the factory.
  Engine& materialize(int model);
  bool materialized(int model) const;

  int models() const { return static_cast<int>(fleet_.size()); }
  int workers() const { return workers_running_; }  // 0 before start()
  int64_t queue_depth(int model) const;
  const std::string& model_name(int model) const;

 private:
  struct Model {
    FleetModelConfig cfg;
    metrics::ServeStats* sink = nullptr;
    std::deque<RequestPtr> q;
    std::mutex make_m;  // serializes the factory
    std::unique_ptr<Engine> engine;
    std::atomic<bool> ready{false};
  };

  void worker_loop();
  // Pops the next batch under the weighted-EDF policy; empty batch = exit.
  std::vector<RequestPtr> next_batch(int* model_out);
  // Records one event into the model's sink and the fleet total.
  template <class F>
  void record(const Model& s, const F& f) {
    if (s.sink) f(*s.sink);
    if (total_) f(*total_);
  }

  FleetConfig cfg_;
  metrics::FleetStats* stats_;
  metrics::ServeStats* total_;
  std::vector<std::unique_ptr<Model>> fleet_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  bool shutdown_ = false;

  std::thread dispatcher_;
  std::atomic<bool> started_{false};
  int workers_running_ = 0;
  bool trace_prev_ = false;  // tracer state to restore at stop()
};

// ---------------- Load generators ----------------
// Each drives fleet models; serve/server.h adds one-line Server overloads.

// Builds the i-th request (deterministic in `id` so runs are reproducible).
using RequestFactory = std::function<RequestPtr(uint64_t id)>;

// Submit with retry + exponential backoff: survives admission rejects and
// injected drops. Each attempt is a FRESH request from `make` (promises are
// single-use) carrying the same id and attempt = 0, 1, ... so the fault
// plan's drop coin is redrawn per attempt. Sleeps fault::backoff_ms between
// attempts. Returns the completed request, or nullptr when all
// `max_attempts` failed (the caller's load-shedding signal).
RequestPtr submit_with_retry(Fleet& fleet, int model,
                             const RequestFactory& make, uint64_t id,
                             int max_attempts = 4);

struct ClosedLoopConfig {
  int clients = 4;              // concurrent clients, each with 0 think time
  int requests_per_client = 32;
  // Attempts per request (submit_with_retry): 1 sheds admission rejects
  // and failed requests, > 1 retries them.
  int max_attempts = 1;
};

// Closed loop: each client submits one request, waits for the response,
// then immediately submits the next -- throughput is offered-load-limited
// by the service rate (the classic "N outstanding requests" benchmark).
// Returns the number of completed (non-rejected, non-failed) requests.
int64_t run_closed_loop(Fleet& fleet, int model, const RequestFactory& make,
                        const ClosedLoopConfig& cfg);

struct OpenLoopConfig {
  double rate_rps = 200;    // fixed arrival rate, independent of service
  int total_requests = 256;
};

// Open loop: arrivals at a fixed rate whether or not the fleet keeps up,
// so queueing delay and admission rejects become visible (this is the
// arrival model SLO percentiles are defined against). Waits for all
// accepted requests before returning; returns the number completed.
int64_t run_open_loop(Fleet& fleet, int model, const RequestFactory& make,
                      const OpenLoopConfig& cfg);

// One phase of a multi-tenant traffic trace: per-model Poisson arrival
// rates held for `duration_s`. Chaining phases models diurnal shape
// (ramp / peak / trough) and per-tenant bursts (one model's rate spiking
// while the others idle).
struct TracePhase {
  double duration_s = 0.5;
  std::vector<double> rate_rps;  // one per fleet model; 0 = idle this phase
};

struct TraceConfig {
  std::vector<TracePhase> phases;
  uint64_t seed = 0xF1EE7ull;  // arrival-timeline RNG seed
};

// Pre-generates the merged deterministic arrival timeline (per-model Poisson
// gaps per phase, merged and stably ordered), then replays it open-loop:
// arrivals fire at their scheduled time whether or not the fleet keeps up.
// make[i] builds requests for model i. Waits for every accepted request;
// returns per-model completed counts.
std::vector<int64_t> run_trace_open_loop(
    Fleet& fleet, const std::vector<RequestFactory>& make,
    const TraceConfig& cfg);

}  // namespace pf::serve
