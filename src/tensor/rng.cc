#include "tensor/rng.h"

#include <cmath>
#include <numbers>

namespace pf {

namespace {

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_ = r * std::sin(theta);
  has_cached_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

int64_t Rng::uniform_int(int64_t n) {
  return static_cast<int64_t>(uniform() * static_cast<double>(n)) % n;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Tensor Rng::rand(Shape shape, float lo, float hi) {
  Tensor t = Tensor::uninit(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i)
    p[i] = static_cast<float>(uniform(lo, hi));
  return t;
}

Tensor Rng::randn(Shape shape, float mean, float stddev) {
  Tensor t = Tensor::uninit(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i)
    p[i] = static_cast<float>(normal(mean, stddev));
  return t;
}

std::vector<int64_t> Rng::permutation(int64_t n) {
  std::vector<int64_t> p(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    const int64_t j = uniform_int(i + 1);
    std::swap(p[static_cast<size_t>(i)], p[static_cast<size_t>(j)]);
  }
  return p;
}

Rng::State Rng::state() const {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.has_cached = has_cached_;
  st.cached = cached_;
  return st;
}

void Rng::set_state(const State& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  has_cached_ = st.has_cached;
  cached_ = st.cached;
}

Rng Rng::stream(uint64_t seed, uint64_t stream_id) {
  // splitmix64 is a bijection on the counter sequence, so hashing the seed
  // first and then folding in the (offset) stream id guarantees distinct
  // (seed, id) pairs land on distinct internal states.
  uint64_t x = seed;
  const uint64_t a = splitmix64(x);
  x = a ^ (stream_id + 0x9E3779B97F4A7C15ull);
  const uint64_t b = splitmix64(x);
  return Rng(b);
}

Rng Rng::split(uint64_t stream_id) const {
  // Hash the current state with the stream id to get an independent stream.
  uint64_t seed = s_[0] ^ (stream_id * 0xD1B54A32D192ED03ull) ^ s_[3];
  return Rng(seed);
}

}  // namespace pf
