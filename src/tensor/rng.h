// Deterministic, seedable RNG used everywhere in the repo.
//
// Reproducibility matters for the paper's experiments (3-seed averages), so
// all randomness flows through this xoshiro256** generator rather than
// std::mt19937 (whose distributions are implementation-defined).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace pf {

// splitmix64 (Steele, Lea & Flood 2014): advances `state` by the golden
// gamma and returns its mixed value. Seeds Rng, and is the one hash behind
// the fault coins, elastic chaos schedules and serving reservoir picks.
inline uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Uniform in [0, 2^64).
  uint64_t next_u64();
  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Standard normal via Box-Muller (cached pair).
  double normal();
  double normal(double mean, double stddev);
  // Uniform integer in [0, n).
  int64_t uniform_int(int64_t n);
  // Bernoulli(p).
  bool bernoulli(double p);

  // Tensor factories.
  Tensor rand(Shape shape, float lo = 0.0f, float hi = 1.0f);
  Tensor randn(Shape shape, float mean = 0.0f, float stddev = 1.0f);
  // Fisher-Yates permutation of 0..n-1.
  std::vector<int64_t> permutation(int64_t n);

  // Derive an independent stream (for per-worker / per-layer seeding).
  Rng split(uint64_t stream_id) const;

  // Exact generator state, snapshot/restore. A restored Rng continues the
  // stream bitwise-identically -- including the cached Box-Muller pair --
  // which is what lets a resumed training run replay the exact randomness
  // an uninterrupted run would have drawn (core/checkpoint.h).
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached = false;
    double cached = 0.0;
  };
  State state() const;
  void set_state(const State& st);

  // Independent stream for (seed, stream_id) without an intermediate Rng:
  // both words are pushed through splitmix64, so distinct worker ids map to
  // distinct, decorrelated streams even for adjacent seeds. This is what
  // the shm-cluster workers use (seed hygiene for concurrent workers).
  static Rng stream(uint64_t seed, uint64_t stream_id);

 private:
  uint64_t s_[4];
  bool has_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace pf
