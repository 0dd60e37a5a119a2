// Deterministic fault injection and recovery bookkeeping.
//
// Pufferfish's win is amortized over long runs (warm-up -> SVD -> fine-tune),
// so the expensive failure is the one late in training -- and in the paper's
// multi-node setting worker faults and stragglers are the common case, not
// the exception. This module provides the machinery the rest of the repo
// uses to make faults *reproducible*:
//
//  * fault::Plan -- a seeded schedule of injected faults. Every query is a
//    pure function of (seed, site, occurrence), so a faulty run is exactly
//    as deterministic as a fault-free one: the shm cluster kills/delays a
//    scheduled worker at a scheduled step, the serve::Server drops requests
//    with a seeded per-(id, attempt) coin, and tests replay the same faults
//    on every run at any PF_THREADS.
//  * ScopedWriteCrash -- arms a process-wide byte budget on checkpoint
//    writes; io/artifact throws InjectedCrash once the budget is exhausted,
//    simulating kill -9 mid-write (the crash that used to corrupt the only
//    checkpoint in place before the temp-file + rename protocol).
//  * FaultStats -- process-wide injected/recovered counters, re-exported
//    through metrics:: so benches report recovery behaviour alongside
//    throughput.
//  * backoff_ms -- the deterministic exponential backoff schedule retry
//    paths share (no RNG, no wall-clock reads: attempt k always waits the
//    same bounded time).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pf::fault {

// Thrown at an injected crash point. Distinct from std::runtime_error
// subclasses the I/O paths throw for real errors, so tests can assert the
// crash came from the plan and not from a genuine failure.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& what) : std::runtime_error(what) {}
};

// One scheduled worker fault inside a data-parallel run. `step` counts
// global training steps (mini-batches) from the start of the run, so a plan
// written for "kill late in training" stays meaningful across epochs. Round
// faults (scheduled via *_worker_round) reuse the same record with `step`
// holding the round index; they live in a separate schedule, so a step
// fault and a round fault on the same worker compose instead of shadowing
// each other (tests/fault_test.cc pins this).
struct WorkerFault {
  enum class Kind { kKill, kDelay };
  Kind kind = Kind::kKill;
  int worker = 0;
  int64_t step = 0;
  double delay_ms = 0;  // kDelay only
};

// A deterministic fault schedule. Copyable value type; an empty (default)
// plan injects nothing and costs one branch per query.
class Plan {
 public:
  Plan() = default;
  explicit Plan(uint64_t seed) : seed_(seed) {}

  // Schedule worker `worker` to die at the top of global step `step`
  // (the shm cluster reincarnates it from a surviving replica).
  Plan& kill_worker(int worker, int64_t step);
  // Schedule a straggler: worker sleeps `delay_ms` at the top of `step`.
  Plan& delay_worker(int worker, int64_t step, double delay_ms);
  // ---- Round-boundary membership faults (src/elastic). Rounds are the
  // elastic trainer's epoch-granularity membership boundaries; a round kill
  // reincarnates the worker before the round starts, a round delay marks it
  // a straggler for the whole round (mitigated by the configured
  // StragglerStrategy instead of a plain sleep). Round faults are a
  // separate schedule from step faults: a step delay and a round kill (or
  // any other cross-schedule pair) on the same worker both fire.
  Plan& kill_worker_round(int worker, int64_t round);
  Plan& delay_worker_round(int worker, int64_t round, double delay_ms);
  // Drop each serving request attempt with probability `p`, decided by a
  // seeded coin on (seed, request id, attempt) -- a retry of the same
  // request is a fresh draw, so retries converge.
  Plan& drop_requests(double p);

  bool empty() const {
    return faults_.empty() && round_faults_.empty() &&
           drop_probability_ <= 0.0;
  }

  // The fault scheduled for (worker, step), or nullptr. Kills shadow delays
  // when both are scheduled on the same (worker, step).
  const WorkerFault* worker_fault(int worker, int64_t step) const;
  // Worker scheduled to die at `step`, or -1. With several kills at one
  // step, returns the lowest worker id (callers iterate via worker_fault).
  int kill_at(int64_t step) const;
  bool any_kill_at(int64_t step) const { return kill_at(step) >= 0; }

  // The round fault scheduled for (worker, round), or nullptr. Same
  // same-slot semantics as worker_fault: a round kill shadows a round delay
  // scheduled on the same (worker, round), but never a step fault.
  const WorkerFault* worker_round_fault(int worker, int64_t round) const;
  bool any_round_fault() const { return !round_faults_.empty(); }

  // Seeded per-(id, attempt) drop coin (see drop_requests).
  bool should_drop(uint64_t request_id, int attempt) const;

  double drop_probability() const { return drop_probability_; }
  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_ = 0;
  std::vector<WorkerFault> faults_;
  std::vector<WorkerFault> round_faults_;  // `step` holds the round index
  double drop_probability_ = 0;
};

// Deterministic exponential backoff: base * 2^attempt, capped. Attempt 0
// waits base_ms. Pure function -- retry schedules are reproducible.
double backoff_ms(int attempt, double base_ms = 0.1, double cap_ms = 5.0);

// ---- Injected checkpoint-write crashes (see io/artifact.cc). ----

// While an instance is alive, checkpoint writes throw InjectedCrash once
// `crash_after_bytes` have been written (process-wide; not nestable --
// meant for tests, which hold one at a time).
class ScopedWriteCrash {
 public:
  explicit ScopedWriteCrash(int64_t crash_after_bytes);
  ~ScopedWriteCrash();
  ScopedWriteCrash(const ScopedWriteCrash&) = delete;
  ScopedWriteCrash& operator=(const ScopedWriteCrash&) = delete;
};

// Called by io/artifact before writing `n` bytes; throws InjectedCrash when an
// armed budget runs out. No-op (one relaxed load) when disarmed.
void on_write_bytes(int64_t n);

// ---- Fault/recovery counters. ----

struct FaultStats {
  uint64_t injected_kills = 0;     // workers killed by a plan
  uint64_t injected_delays = 0;    // straggler delays injected
  uint64_t dropped_requests = 0;   // serving request attempts dropped
  uint64_t write_crashes = 0;      // checkpoint writes crashed mid-write
  uint64_t retries = 0;            // request resubmissions (drop or reject)
  uint64_t recoveries = 0;         // faults survived: reincarnations +
                                   // requests completed after retries
};

FaultStats stats();
void reset_stats();

void record_kill();
void record_delay();
void record_drop();
void record_write_crash();
void record_retry();
void record_recovery();

}  // namespace pf::fault
