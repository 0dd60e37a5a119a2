#include "fault/fault.h"

#include <algorithm>
#include <atomic>

#include "tensor/rng.h"
#include "trace/trace.h"

namespace pf::fault {

Plan& Plan::kill_worker(int worker, int64_t step) {
  faults_.push_back({WorkerFault::Kind::kKill, worker, step, 0.0});
  return *this;
}

Plan& Plan::delay_worker(int worker, int64_t step, double delay_ms) {
  faults_.push_back({WorkerFault::Kind::kDelay, worker, step, delay_ms});
  return *this;
}

Plan& Plan::kill_worker_round(int worker, int64_t round) {
  round_faults_.push_back({WorkerFault::Kind::kKill, worker, round, 0.0});
  return *this;
}

Plan& Plan::delay_worker_round(int worker, int64_t round, double delay_ms) {
  round_faults_.push_back({WorkerFault::Kind::kDelay, worker, round, delay_ms});
  return *this;
}

Plan& Plan::drop_requests(double p) {
  drop_probability_ = std::clamp(p, 0.0, 1.0);
  return *this;
}

const WorkerFault* Plan::worker_fault(int worker, int64_t step) const {
  const WorkerFault* hit = nullptr;
  for (const WorkerFault& f : faults_) {
    if (f.worker != worker || f.step != step) continue;
    // Kills shadow delays scheduled on the same (worker, step).
    if (!hit || f.kind == WorkerFault::Kind::kKill) hit = &f;
  }
  return hit;
}

const WorkerFault* Plan::worker_round_fault(int worker, int64_t round) const {
  const WorkerFault* hit = nullptr;
  for (const WorkerFault& f : round_faults_) {
    if (f.worker != worker || f.step != round) continue;
    // Kills shadow delays scheduled on the same (worker, round).
    if (!hit || f.kind == WorkerFault::Kind::kKill) hit = &f;
  }
  return hit;
}

int Plan::kill_at(int64_t step) const {
  int lowest = -1;
  for (const WorkerFault& f : faults_)
    if (f.kind == WorkerFault::Kind::kKill && f.step == step &&
        (lowest < 0 || f.worker < lowest))
      lowest = f.worker;
  return lowest;
}

bool Plan::should_drop(uint64_t request_id, int attempt) const {
  if (drop_probability_ <= 0.0) return false;
  if (drop_probability_ >= 1.0) return true;
  uint64_t s = seed_ ^ request_id;
  uint64_t t = splitmix64(s) + static_cast<uint64_t>(attempt);
  const uint64_t h = splitmix64(t);
  // 53 mantissa bits -> uniform in [0, 1), the same construction Rng uses.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < drop_probability_;
}

double backoff_ms(int attempt, double base_ms, double cap_ms) {
  double ms = base_ms;
  for (int i = 0; i < attempt && ms < cap_ms; ++i) ms *= 2.0;
  return std::min(ms, cap_ms);
}

// ---- Write-crash hook. ----

namespace {
std::atomic<bool> g_write_crash_armed{false};
std::atomic<int64_t> g_write_budget{0};
}  // namespace

ScopedWriteCrash::ScopedWriteCrash(int64_t crash_after_bytes) {
  g_write_budget.store(crash_after_bytes, std::memory_order_relaxed);
  g_write_crash_armed.store(true, std::memory_order_release);
}

ScopedWriteCrash::~ScopedWriteCrash() {
  g_write_crash_armed.store(false, std::memory_order_release);
}

void on_write_bytes(int64_t n) {
  if (!g_write_crash_armed.load(std::memory_order_acquire)) return;
  if (g_write_budget.fetch_sub(n, std::memory_order_relaxed) - n < 0) {
    record_write_crash();
    throw InjectedCrash("fault: injected crash mid-checkpoint-write");
  }
}

// ---- Counters. ----

namespace {
std::atomic<uint64_t> g_kills{0}, g_delays{0}, g_drops{0}, g_write_crashes{0},
    g_retries{0}, g_recoveries{0};
}  // namespace

FaultStats stats() {
  FaultStats s;
  s.injected_kills = g_kills.load(std::memory_order_relaxed);
  s.injected_delays = g_delays.load(std::memory_order_relaxed);
  s.dropped_requests = g_drops.load(std::memory_order_relaxed);
  s.write_crashes = g_write_crashes.load(std::memory_order_relaxed);
  s.retries = g_retries.load(std::memory_order_relaxed);
  s.recoveries = g_recoveries.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() {
  g_kills = g_delays = g_drops = g_write_crashes = g_retries = g_recoveries = 0;
}

namespace {

// Zero-duration marker in the trace timeline, so injected faults are
// visible between the spans they perturb (shm.recover, serve.reply, ...).
void mark(const char* name) {
  if (!trace::enabled()) return;
  const uint64_t t = trace::now_ns();
  trace::emit(name, t, t);
}

}  // namespace

void record_kill() {
  g_kills.fetch_add(1, std::memory_order_relaxed);
  mark("fault.kill");
}
void record_delay() {
  g_delays.fetch_add(1, std::memory_order_relaxed);
  mark("fault.delay");
}
void record_drop() {
  g_drops.fetch_add(1, std::memory_order_relaxed);
  mark("fault.drop");
}
void record_write_crash() {
  g_write_crashes.fetch_add(1, std::memory_order_relaxed);
  mark("fault.write_crash");
}
void record_retry() {
  g_retries.fetch_add(1, std::memory_order_relaxed);
  mark("fault.retry");
}
void record_recovery() {
  g_recoveries.fetch_add(1, std::memory_order_relaxed);
  mark("fault.recovery");
}

}  // namespace pf::fault
