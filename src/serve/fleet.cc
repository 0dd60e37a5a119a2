#include "serve/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "runtime/thread_pool.h"
#include "tensor/rng.h"
#include "trace/trace.h"

namespace pf::serve {

using clock = std::chrono::steady_clock;

Fleet::Fleet(const FleetConfig& cfg, metrics::FleetStats* stats)
    : cfg_(cfg), stats_(stats), total_(stats ? &stats->total() : nullptr) {}

Fleet::~Fleet() { stop(); }

int Fleet::add_model(FleetModelConfig m, metrics::ServeStats* sink) {
  if (started_.load()) throw std::runtime_error("Fleet: add_model after start");
  if (!m.factory) throw std::runtime_error("Fleet: model needs a factory");
  BatcherConfig& b = m.batcher;
  b.max_batch = std::max<int64_t>(1, b.max_batch);
  b.max_depth = std::max<int64_t>(1, b.max_depth);
  b.deadline_ms = std::max(0.0, b.deadline_ms);
  const int index = static_cast<int>(fleet_.size());
  auto state = std::make_unique<Model>();
  state->cfg = std::move(m);
  state->sink = sink;
  if (!sink && stats_ && index < stats_->models())
    state->sink = &stats_->stream(index);
  fleet_.push_back(std::move(state));
  return index;
}

void Fleet::start() {
  if (started_.exchange(true)) return;
  if (!cfg_.trace_path.empty()) {
    trace_prev_ = trace::enabled();
    trace::set_enabled(true);
    trace::drain();  // start the export from a clean timeline
  }
  const int n = std::max(1, std::min(cfg_.workers, runtime::threads()));
  workers_running_ = n;
  dispatcher_ = std::thread([this, n] {
    runtime::parallel_for(0, n, 1, [this](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) worker_loop();
    });
  });
}

void Fleet::stop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (!cfg_.trace_path.empty() && started_.load()) {
    trace::write_chrome_json(cfg_.trace_path);
    trace::set_enabled(trace_prev_);
    cfg_.trace_path.clear();  // stop() is idempotent; export once
  }
}

bool Fleet::submit(int model, const RequestPtr& r) {
  Model& s = *fleet_[static_cast<size_t>(model)];
  {
    std::lock_guard<std::mutex> lk(m_);
    if (shutdown_ ||
        static_cast<int64_t>(s.q.size()) >= s.cfg.batcher.max_depth) {
      record(s, [](metrics::ServeStats& st) { st.record_reject(); });
      return false;
    }
    r->t_submit = clock::now();
    s.q.push_back(r);
  }
  // notify_all, not notify_one: one worker may be parked waiting for a
  // queue's deadline while another is idle; both must reassess.
  cv_.notify_all();
  record(s, [](metrics::ServeStats& st) { st.record_submit(); });
  return true;
}

Engine& Fleet::materialize(int model) {
  Model& s = *fleet_[static_cast<size_t>(model)];
  if (!s.ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(s.make_m);
    if (!s.engine) {
      std::unique_ptr<Engine> e = s.cfg.factory();  // may throw: not ready
      if (!e) throw std::runtime_error("Fleet: factory returned null");
      s.engine = std::move(e);
      s.ready.store(true, std::memory_order_release);
    }
  }
  return *s.engine;
}

bool Fleet::materialized(int model) const {
  return fleet_[static_cast<size_t>(model)]->ready.load(
      std::memory_order_acquire);
}

int64_t Fleet::queue_depth(int model) const {
  std::lock_guard<std::mutex> lk(m_);
  return static_cast<int64_t>(fleet_[static_cast<size_t>(model)]->q.size());
}

const std::string& Fleet::model_name(int model) const {
  return fleet_[static_cast<size_t>(model)]->cfg.name;
}

std::vector<RequestPtr> Fleet::next_batch(int* model_out) {
  std::unique_lock<std::mutex> lk(m_);
  // Flush span: from first seeing work to handing the batch out. This is
  // the batching delay (waiting for peers / the deadline), as opposed to
  // idle time parked on empty queues, which records no span.
  std::uint64_t t_flush = 0;
  for (;;) {
    const auto now = clock::now();
    // Scan the queues once: find the flushable queue with the smallest
    // virtual deadline, and the earliest wall-clock time a non-flushable
    // queue will become flushable (its oldest request's batch deadline).
    // Deadlines are re-armed from the CURRENT fronts on every pass: another
    // worker can pop the request a wait was computed from, and a deadline
    // anchored to a departed (older) request would flush the new front
    // early. With deadline_ms == 0 the flush time is the front's own submit
    // time, which has always passed: greedy "take whatever is there".
    int best = -1;
    double best_vdl = 0;
    bool have_wait = false;
    clock::time_point earliest{};
    for (size_t i = 0; i < fleet_.size(); ++i) {
      const Model& s = *fleet_[i];
      if (s.q.empty()) continue;
      const auto& oldest = s.q.front()->t_submit;
      const bool full =
          static_cast<int64_t>(s.q.size()) >= s.cfg.batcher.max_batch;
      const auto flush_at =
          oldest + std::chrono::duration_cast<clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           s.cfg.batcher.deadline_ms));
      // shutdown_ drains greedily: every non-empty queue is flushable.
      if (full || now >= flush_at || shutdown_) {
        const double vdl =
            std::chrono::duration<double, std::milli>(oldest - now).count() +
            s.cfg.slo.deadline_ms / std::max(1e-9, s.cfg.slo.weight);
        if (best < 0 || vdl < best_vdl) {  // tie: lowest index wins (scan order)
          best = static_cast<int>(i);
          best_vdl = vdl;
        }
      } else if (!have_wait || flush_at < earliest) {
        have_wait = true;
        earliest = flush_at;
      }
    }
    if (best < 0 && !have_wait)
      t_flush = 0;  // nothing queued: idle, not batching
    else if (t_flush == 0 && trace::enabled())
      t_flush = trace::now_ns();
    if (best >= 0) {
      Model& s = *fleet_[static_cast<size_t>(best)];
      const int64_t take = std::min<int64_t>(
          s.cfg.batcher.max_batch, static_cast<int64_t>(s.q.size()));
      std::vector<RequestPtr> batch;
      batch.reserve(static_cast<size_t>(take));
      for (int64_t k = 0; k < take; ++k) {
        batch.push_back(std::move(s.q.front()));
        s.q.pop_front();
      }
      if (t_flush) trace::emit("serve.flush", t_flush, trace::now_ns(), take);
      *model_out = best;
      return batch;
    }
    if (shutdown_) return {};  // all queues drained
    if (have_wait)
      cv_.wait_until(lk, earliest);
    else
      cv_.wait(lk);
  }
}

void Fleet::worker_loop() {
  const bool dropping = cfg_.fault.drop_probability() > 0;
  for (;;) {
    int model = -1;
    std::vector<RequestPtr> batch = next_batch(&model);
    if (batch.empty()) return;  // shutdown, every queue drained
    Model& s = *fleet_[static_cast<size_t>(model)];
    if (trace::enabled()) {
      // Per-request queueing delay: submit -> this worker picking the batch
      // up. Together with serve.forward below this separates time-in-queue
      // from batch compute for every request in the timeline.
      const std::uint64_t t_dequeue = trace::now_ns();
      for (const RequestPtr& r : batch)
        trace::emit("serve.queue", trace::to_trace_ns(r->t_submit), t_dequeue,
                    static_cast<std::int64_t>(r->id));
    }
    // Injected drops: the deterministic coin for (id, attempt) decides
    // which requests this batch "loses". Survivors are served as one batch;
    // dropped ones are marked failed and fulfilled below with the rest.
    std::vector<RequestPtr> live;
    live.reserve(batch.size());
    for (const RequestPtr& r : batch) {
      if (dropping && cfg_.fault.should_drop(r->id, r->attempt)) {
        r->failed = true;
        fault::record_drop();
      } else {
        live.push_back(r);
      }
    }
    if (!live.empty()) {
      bool served = true;
      try {
        Engine& engine = materialize(model);
        PF_TRACE_SCOPE_C("serve.forward",
                         static_cast<std::int64_t>(live.size()));
        engine.forward_batch(live);
      } catch (...) {
        // An engine error fails this batch only; the fleet keeps serving.
        served = false;
        for (const RequestPtr& r : live) r->failed = true;
      }
      if (served && (s.sink || total_)) {
        const int64_t depth = queue_depth(model);
        record(s, [&](metrics::ServeStats& st) {
          st.record_batch(static_cast<int64_t>(live.size()), depth);
        });
      }
    }
    const auto now = clock::now();
    PF_TRACE_SCOPE_C("serve.reply", static_cast<std::int64_t>(batch.size()));
    for (const RequestPtr& r : batch) {
      if (!r->failed) {
        const double ms =
            std::chrono::duration<double, std::milli>(now - r->t_submit)
                .count();
        record(s, [ms](metrics::ServeStats& st) { st.record_done(ms); });
      }
      r->done.set_value();
    }
  }
}

// ---------------- Load generators ----------------

namespace {

// One scheduled submission: `t_s` seconds into the replay, (*make)(id) is
// submitted to `model`.
struct Arrival {
  double t_s;
  int model;
  uint64_t id;
  const RequestFactory* make;
};

// Replays time-ordered `arrivals` open-loop: each fires at its scheduled
// time whether or not the fleet keeps up. Waits for every accepted request;
// returns completed (not rejected, not failed) counts per fleet model.
std::vector<int64_t> replay(Fleet& fleet,
                            const std::vector<Arrival>& arrivals) {
  struct Accepted {
    RequestPtr r;
    std::future<void> done;
    int model;
  };
  std::vector<Accepted> inflight;
  inflight.reserve(arrivals.size());
  const auto t0 = clock::now();
  for (const Arrival& a : arrivals) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(a.t_s)));
    RequestPtr r = (*a.make)(a.id);
    std::future<void> done = r->done.get_future();
    if (fleet.submit(a.model, r))
      inflight.push_back({std::move(r), std::move(done), a.model});
  }
  std::vector<int64_t> completed(static_cast<size_t>(fleet.models()), 0);
  for (Accepted& a : inflight) {
    a.done.wait();
    if (!a.r->failed) ++completed[static_cast<size_t>(a.model)];
  }
  return completed;
}

}  // namespace

RequestPtr submit_with_retry(Fleet& fleet, int model,
                             const RequestFactory& make, uint64_t id,
                             int max_attempts) {
  const int attempts = std::max(1, max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      fault::record_retry();
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          fault::backoff_ms(attempt)));
    }
    RequestPtr r = make(id);
    r->attempt = attempt;
    std::future<void> done = r->done.get_future();
    if (!fleet.submit(model, r)) continue;  // admission reject; back off
    done.wait();
    if (r->failed) continue;  // dropped or engine error; back off, retry
    if (attempt > 0) fault::record_recovery();
    return r;
  }
  return nullptr;
}

int64_t run_closed_loop(Fleet& fleet, int model, const RequestFactory& make,
                        const ClosedLoopConfig& cfg) {
  std::atomic<int64_t> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < cfg.requests_per_client; ++k) {
        // One attempt (the default) sheds rejects and failures; more retry.
        const uint64_t id = static_cast<uint64_t>(c) *
                                static_cast<uint64_t>(
                                    cfg.requests_per_client) +
                            static_cast<uint64_t>(k);
        if (submit_with_retry(fleet, model, make, id, cfg.max_attempts))
          completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return completed.load();
}

int64_t run_open_loop(Fleet& fleet, int model, const RequestFactory& make,
                      const OpenLoopConfig& cfg) {
  const double gap_s = 1.0 / std::max(1e-9, cfg.rate_rps);
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(std::max(0, cfg.total_requests)));
  for (int i = 0; i < cfg.total_requests; ++i)
    arrivals.push_back({i * gap_s, model, static_cast<uint64_t>(i), &make});
  return replay(fleet, arrivals)[static_cast<size_t>(model)];
}

std::vector<int64_t> run_trace_open_loop(
    Fleet& fleet, const std::vector<RequestFactory>& make,
    const TraceConfig& cfg) {
  const size_t n_models = static_cast<size_t>(fleet.models());
  if (make.size() != n_models)
    throw std::runtime_error("run_trace_open_loop: one factory per model");

  // Pre-generate the merged arrival timeline so replay jitter cannot change
  // WHICH requests arrive (only, slightly, when): per model per phase, draw
  // Poisson gaps from a stream seeded by (seed, model, phase), then sort by
  // (time, model, sequence) -- fully deterministic.
  std::vector<Arrival> events;
  double phase_start = 0;
  for (size_t p = 0; p < cfg.phases.size(); ++p) {
    const TracePhase& ph = cfg.phases[p];
    if (ph.rate_rps.size() != n_models)
      throw std::runtime_error("run_trace_open_loop: phase rate per model");
    for (size_t mdl = 0; mdl < n_models; ++mdl) {
      const double rate = ph.rate_rps[mdl];
      if (rate <= 0) continue;
      Rng rng(cfg.seed ^ (0x9E3779B97F4A7C15ull * (p * n_models + mdl + 1)));
      double t = phase_start;
      for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= phase_start + ph.duration_s) break;
        events.push_back({t, static_cast<int>(mdl), 0, &make[mdl]});
      }
    }
    phase_start += ph.duration_s;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.t_s != b.t_s ? a.t_s < b.t_s
                                           : a.model < b.model;
                   });
  std::vector<uint64_t> next_id(n_models, 0);
  for (Arrival& e : events) e.id = next_id[static_cast<size_t>(e.model)]++;
  return replay(fleet, events);
}

}  // namespace pf::serve
