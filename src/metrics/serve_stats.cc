#include "metrics/serve_stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "metrics/metrics.h"
#include "tensor/rng.h"

namespace pf::metrics {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Reservoir::Reservoir(int64_t capacity, uint64_t seed)
    : cap_(std::max<int64_t>(1, capacity)), state_(seed) {
  sample_.reserve(static_cast<size_t>(cap_));
}

void Reservoir::add(double v) {
  ++n_;
  sum_ += v;
  max_ = n_ == 1 ? v : std::max(max_, v);
  if (static_cast<int64_t>(sample_.size()) < cap_) {
    sample_.push_back(v);
    return;
  }
  // Keep each of the n values with probability cap/n: replace a uniformly
  // chosen slot iff the chosen index lands inside the reservoir.
  const int64_t j =
      static_cast<int64_t>(splitmix64(state_) % static_cast<uint64_t>(n_));
  if (j < cap_) sample_[static_cast<size_t>(j)] = v;
}

double Reservoir::quantile(double q) const {
  if (sample_.empty()) return 0.0;
  std::vector<double> sorted = sample_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(std::llround(pos))];
}

ServeStats::ServeStats(int64_t reservoir_capacity)
    : reservoir_capacity_(reservoir_capacity),
      latency_(reservoir_capacity) {}

void ServeStats::begin() {
  std::lock_guard<std::mutex> lk(m_);
  submitted_ = rejected_ = completed_ = batches_ = 0;
  depth_sum_ = 0;
  max_depth_ = 0;
  batch_hist_.clear();
  latency_ = Reservoir(reservoir_capacity_);
  t0_s_ = steady_seconds();
}

void ServeStats::record_submit() {
  std::lock_guard<std::mutex> lk(m_);
  ++submitted_;
}

void ServeStats::record_reject() {
  std::lock_guard<std::mutex> lk(m_);
  ++rejected_;
}

void ServeStats::record_batch(int64_t size, int64_t depth_after) {
  std::lock_guard<std::mutex> lk(m_);
  ++batches_;
  depth_sum_ += static_cast<double>(depth_after);
  max_depth_ = std::max(max_depth_, depth_after);
  if (static_cast<int64_t>(batch_hist_.size()) <= size)
    batch_hist_.resize(static_cast<size_t>(size) + 1, 0);
  ++batch_hist_[static_cast<size_t>(size)];
}

void ServeStats::record_done(double latency_ms) {
  std::lock_guard<std::mutex> lk(m_);
  ++completed_;
  latency_.add(latency_ms);
}

ServeReport ServeStats::report() const {
  std::lock_guard<std::mutex> lk(m_);
  ServeReport r;
  r.submitted = submitted_;
  r.rejected = rejected_;
  r.completed = completed_;
  r.batches = batches_;
  r.elapsed_s = steady_seconds() - t0_s_;
  r.throughput_rps =
      r.elapsed_s > 0 ? static_cast<double>(completed_) / r.elapsed_s : 0;
  r.p50_ms = latency_.quantile(0.50);
  r.p95_ms = latency_.quantile(0.95);
  r.p99_ms = latency_.quantile(0.99);
  r.mean_ms = latency_.mean();
  r.max_ms = latency_.max_seen();
  r.mean_batch = batches_ ? static_cast<double>(completed_) /
                                static_cast<double>(batches_)
                          : 0;
  r.mean_depth = batches_ ? depth_sum_ / static_cast<double>(batches_) : 0;
  r.max_depth = max_depth_;
  r.batch_hist = batch_hist_;
  return r;
}

FleetStats::FleetStats(int64_t reservoir_capacity)
    : reservoir_capacity_(reservoir_capacity), total_(reservoir_capacity) {}

int FleetStats::add_model(const std::string& name) {
  names_.push_back(name);
  per_model_.push_back(std::make_unique<ServeStats>(reservoir_capacity_));
  return static_cast<int>(per_model_.size()) - 1;
}

void FleetStats::begin() {
  for (auto& s : per_model_) s->begin();
  total_.begin();
}

void FleetStats::record_submit(int model) {
  per_model_[static_cast<size_t>(model)]->record_submit();
  total_.record_submit();
}

void FleetStats::record_reject(int model) {
  per_model_[static_cast<size_t>(model)]->record_reject();
  total_.record_reject();
}

void FleetStats::record_batch(int model, int64_t size, int64_t depth_after) {
  per_model_[static_cast<size_t>(model)]->record_batch(size, depth_after);
  total_.record_batch(size, depth_after);
}

void FleetStats::record_done(int model, double latency_ms) {
  per_model_[static_cast<size_t>(model)]->record_done(latency_ms);
  total_.record_done(latency_ms);
}

FleetReport FleetStats::report() const {
  FleetReport r;
  r.names = names_;
  r.models.reserve(per_model_.size());
  for (const auto& s : per_model_) r.models.push_back(s->report());
  r.total = total_.report();
  return r;
}

std::string FleetReport::summary() const {
  std::ostringstream os;
  for (size_t i = 0; i < models.size(); ++i)
    os << names[i] << ": " << models[i].summary() << "\n";
  os << "total: " << total.summary();
  return os.str();
}

std::string ServeReport::summary() const {
  std::ostringstream os;
  os << "rps " << fmt(throughput_rps, 1) << " | p50 " << fmt(p50_ms, 2)
     << " ms | p95 " << fmt(p95_ms, 2) << " ms | p99 " << fmt(p99_ms, 2)
     << " ms | batch " << fmt(mean_batch, 2) << " | depth "
     << fmt(mean_depth, 1) << " (max " << max_depth << ") | rejected "
     << rejected;
  return os.str();
}

}  // namespace pf::metrics
