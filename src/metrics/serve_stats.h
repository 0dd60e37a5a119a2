// Serving-path observability: latency SLO metrics for src/serve.
//
// A serving benchmark lives or dies on its *tail*: mean latency hides the
// p99 that an SLO is written against, and storing every sample to sort at
// the end does not scale to open-loop runs. `Reservoir` keeps a fixed-size
// uniform sample of the latency stream (Vitter's Algorithm R, deterministic
// given its seed and the insertion order), so quantiles cost O(capacity)
// memory no matter how long the run. `ServeStats` aggregates the full
// serving picture -- throughput, admission rejects, queue depth, batch-size
// histogram, latency quantiles -- behind one mutex; the fleet workers call
// the record_* hooks, the load generator snapshots a ServeReport at the end.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pf::metrics {

// Fixed-capacity uniform sample of a value stream (Algorithm R).
class Reservoir {
 public:
  explicit Reservoir(int64_t capacity = 4096,
                     uint64_t seed = 0x5EED5EED5EED5EEDull);

  void add(double v);
  int64_t count() const { return n_; }  // values offered, not kept

  // Empirical quantile (q in [0, 1]) of the kept sample; 0 when empty.
  double quantile(double q) const;
  double max_seen() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

 private:
  int64_t cap_;
  std::vector<double> sample_;
  int64_t n_ = 0;
  double sum_ = 0, max_ = 0;
  uint64_t state_;
};

// Snapshot of one serving run, produced by ServeStats::report().
struct ServeReport {
  uint64_t submitted = 0;  // accepted into the queue
  uint64_t rejected = 0;   // bounced by the admission policy (queue full)
  uint64_t completed = 0;  // responses delivered
  uint64_t batches = 0;    // engine invocations

  double elapsed_s = 0;        // begin() .. report()
  double throughput_rps = 0;   // completed / elapsed

  // Request latency (submit -> response ready), milliseconds.
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double mean_ms = 0, max_ms = 0;

  double mean_batch = 0;       // requests per engine invocation
  double mean_depth = 0;       // queue depth sampled after each batch pull
  int64_t max_depth = 0;

  // batch_hist[s] = number of batches of exactly s requests (index 0 unused).
  std::vector<uint64_t> batch_hist;

  // One-line "rps 812.4 | p50 3.1 ms | p95 5.0 ms | ..." summary.
  std::string summary() const;
};

// Thread-safe accumulator for one serving run.
class ServeStats {
 public:
  explicit ServeStats(int64_t reservoir_capacity = 4096);

  // Resets all counters and marks the start of the measured window.
  void begin();

  void record_submit();
  void record_reject();
  // One engine invocation of `size` requests; `depth_after` is the queue
  // depth right after the batch was pulled.
  void record_batch(int64_t size, int64_t depth_after);
  // One finished request with its submit -> response latency.
  void record_done(double latency_ms);

  ServeReport report() const;

 private:
  mutable std::mutex m_;
  int64_t reservoir_capacity_;
  uint64_t submitted_ = 0, rejected_ = 0, completed_ = 0, batches_ = 0;
  double depth_sum_ = 0;
  int64_t max_depth_ = 0;
  std::vector<uint64_t> batch_hist_;
  Reservoir latency_;
  double t0_s_ = 0;  // steady-clock seconds at begin()
};

// Snapshot of one fleet run: the aggregate picture plus one ServeReport per
// hosted model (SLO compliance is judged per model, not on the blend).
struct FleetReport {
  std::vector<std::string> names;
  std::vector<ServeReport> models;
  ServeReport total;

  // Multi-line summary: one "name | rps ... | p99 ..." row per model plus
  // the aggregate.
  std::string summary() const;
};

// Per-model ServeStats plus an aggregate, behind the same record_* surface
// the fleet workers call (every event lands in both the model's stats and
// the total's, so aggregate quantiles come from one reservoir rather than
// an impossible merge).
class FleetStats {
 public:
  explicit FleetStats(int64_t reservoir_capacity = 4096);

  // Registers a model stream; returns its index. Call before begin().
  int add_model(const std::string& name);
  void begin();

  void record_submit(int model);
  void record_reject(int model);
  void record_batch(int model, int64_t size, int64_t depth_after);
  void record_done(int model, double latency_ms);

  int models() const { return static_cast<int>(per_model_.size()); }
  // The streams behind record_*, for a recorder that feeds them directly
  // (serve::Fleet records each event into its model's stream and total()).
  ServeStats& stream(int model) {
    return *per_model_[static_cast<size_t>(model)];
  }
  ServeStats& total() { return total_; }
  FleetReport report() const;

 private:
  int64_t reservoir_capacity_;
  std::vector<std::string> names_;
  // ServeStats is self-locking, so FleetStats needs no mutex of its own
  // (add_model is start-up only).
  std::vector<std::unique_ptr<ServeStats>> per_model_;
  ServeStats total_;
};

}  // namespace pf::metrics
