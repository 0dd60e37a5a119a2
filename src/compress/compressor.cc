#include "compress/compressor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "linalg/svd.h"
#include "metrics/metrics.h"
#include "tensor/matmul.h"

namespace pf::compress {

namespace {

Tensor mean_of(const std::vector<Tensor>& grads) {
  Tensor out = grads[0];
  for (size_t i = 1; i < grads.size(); ++i) out.add_(grads[i]);
  out.mul_(1.0f / static_cast<float>(grads.size()));
  return out;
}

// Fresh copies of `ts`: a reducer keeps mutating its buffers after a
// snapshot is taken.
std::vector<Tensor> copy_all(const std::vector<Tensor>& ts) {
  std::vector<Tensor> out;
  out.reserve(ts.size());
  for (const Tensor& t : ts) out.push_back(Tensor().copy_from(t));
  return out;
}

}  // namespace

void Reducer::set_state(const ReducerState& st) {
  if (!st.empty())
    throw std::runtime_error(
        "reducer '" + name() +
        "' cannot restore snapshot state (it keeps no state, or its state "
        "is not snapshot-capable) -- the snapshot was written by a "
        "different reducer configuration");
}

Tensor AllreduceReducer::reduce(const std::vector<Tensor>& grads,
                                const std::vector<Shape>& /*shapes*/,
                                ReduceStats* stats) {
  metrics::Timer t;
  Tensor out = mean_of(grads);
  if (stats) {
    stats->payload_bytes_per_worker = grads[0].numel() * 4;
    stats->collective = dist::Coll::kAllreduce;
    stats->n_messages = 1;  // flat-buffer packing (paper Section 4.1)
    stats->encode_seconds = 0;
    stats->decode_seconds = t.seconds();  // the local summation stand-in
  }
  return out;
}

// ---------------- PowerSGD ----------------

PowerSgdReducer::PowerSgdReducer(int64_t rank, uint64_t seed)
    : rank_(rank), rng_(seed) {}

std::string PowerSgdReducer::name() const {
  return "powersgd(r=" + std::to_string(rank_) + ")";
}

Tensor PowerSgdReducer::reduce(const std::vector<Tensor>& grads,
                               const std::vector<Shape>& shapes,
                               ReduceStats* stats) {
  const size_t workers = grads.size();
  const int64_t total = grads[0].numel();

  if (!initialized_) {
    q_.resize(shapes.size());
    error_.assign(workers, std::vector<Tensor>(shapes.size()));
    int64_t off = 0;
    for (size_t p = 0; p < shapes.size(); ++p) {
      const int64_t n = shape_numel(shapes[p]);
      if (shapes[p].size() >= 2) {
        const int64_t rows = shapes[p][0];
        const int64_t cols = n / rows;
        const int64_t r = std::min({rank_, rows, cols});
        q_[p] = rng_.randn(Shape{cols, r});
        linalg::orthonormalize_columns(q_[p]);
        for (size_t w = 0; w < workers; ++w)
          error_[w][p] = Tensor::zeros(Shape{rows, cols});
      }
      off += n;
    }
    (void)off;
    initialized_ = true;
  }

  Tensor out(Shape{total});
  int64_t payload = 0;
  double encode_s = 0, decode_s = 0;

  int64_t off = 0;
  for (size_t p = 0; p < shapes.size(); ++p) {
    const int64_t n = shape_numel(shapes[p]);
    if (shapes[p].size() < 2) {
      // 1-D riders: plain allreduce mean.
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0;
        for (size_t w = 0; w < workers; ++w) acc += grads[w][off + j];
        out[off + j] = static_cast<float>(acc / workers);
      }
      payload += n * 4;
      off += n;
      continue;
    }
    const int64_t rows = shapes[p][0];
    const int64_t cols = n / rows;
    const int64_t r = q_[p].size(1);

    metrics::Timer te;
    // Per worker: M_w = grad_w + error_w; P_w = M_w Q.
    std::vector<Tensor> m(workers);
    Tensor p_sum(Shape{rows, r});
    for (size_t w = 0; w < workers; ++w) {
      m[w] = Tensor(Shape{rows, cols},
                    std::vector<float>(grads[w].data() + off,
                                       grads[w].data() + off + n));
      m[w].add_(error_[w][p]);
      Tensor pw = pf::matmul(m[w], q_[p]);
      p_sum.add_(pw);
    }
    p_sum.mul_(1.0f / static_cast<float>(workers));
    encode_s += te.seconds();

    metrics::Timer td;
    linalg::orthonormalize_columns(p_sum);  // P-hat, identical on all workers
    // Q update: mean over workers of M_w^T P-hat.
    Tensor q_new(Shape{cols, r});
    for (size_t w = 0; w < workers; ++w) {
      Tensor qw = pf::matmul_tn(m[w], p_sum);
      q_new.add_(qw);
    }
    q_new.mul_(1.0f / static_cast<float>(workers));
    // Reconstruction and error feedback.
    Tensor approx = pf::matmul_nt(p_sum, q_new);  // (rows, cols)
    for (size_t w = 0; w < workers; ++w) {
      Tensor& e = error_[w][p];
      for (int64_t j = 0; j < n; ++j) e[j] = m[w][j] - approx[j];
    }
    q_[p] = q_new;
    decode_s += td.seconds();

    std::copy(approx.data(), approx.data() + n, out.data() + off);
    payload += (rows * r + cols * r) * 4;  // two allreduce rounds
    off += n;
  }

  if (stats) {
    stats->payload_bytes_per_worker = payload;
    stats->collective = dist::Coll::kAllreduce;
    stats->n_messages = 2;  // P round + Q round (both packed flat)
    stats->encode_seconds = encode_s * 1.0;  // total across workers
    stats->decode_seconds = decode_s;
  }
  return out;
}

// ---------------- SIGNUM ----------------

Tensor SignumReducer::reduce(const std::vector<Tensor>& grads,
                             const std::vector<Shape>& /*shapes*/,
                             ReduceStats* stats) {
  const size_t workers = grads.size();
  const int64_t n = grads[0].numel();
  if (momentum_.empty())
    momentum_.assign(workers, Tensor::zeros(Shape{n}));
  if (error_feedback_ && error_.empty())
    error_.assign(workers, Tensor::zeros(Shape{n}));

  metrics::Timer te;
  // Per worker: momentum update + sign encoding into a packed bitset. With
  // error feedback the encoded value is c_w = momentum + residual, the
  // payload carries one per-worker scale (mean |c_w|), and the residual
  // keeps what the sign quantization lost.
  std::vector<std::vector<uint8_t>> payloads(workers);
  std::vector<float> scales(workers, 1.0f);
  for (size_t w = 0; w < workers; ++w) {
    Tensor& m = momentum_[w];
    for (int64_t j = 0; j < n; ++j)
      m[j] = beta_ * m[j] + (1 - beta_) * grads[w][j];
    Tensor c = m;  // COW: unshared below only when error feedback mutates
    if (error_feedback_) {
      c = Tensor().copy_from(m);
      c.add_(error_[w]);
      double abs_sum = 0;
      for (int64_t j = 0; j < n; ++j)
        abs_sum += std::fabs(static_cast<double>(c[j]));
      scales[w] = static_cast<float>(abs_sum / static_cast<double>(n));
    }
    auto& bits = payloads[w];
    bits.assign(static_cast<size_t>((n + 7) / 8), 0);
    for (int64_t j = 0; j < n; ++j)
      if (c[j] >= 0)
        bits[static_cast<size_t>(j / 8)] |=
            static_cast<uint8_t>(1u << (j % 8));
    if (error_feedback_) {
      Tensor& e = error_[w];
      for (int64_t j = 0; j < n; ++j)
        e[j] = c[j] - (c[j] >= 0 ? scales[w] : -scales[w]);
    }
  }
  const double encode_s = te.seconds();

  metrics::Timer td;
  Tensor out(Shape{n});
  if (error_feedback_) {
    // Scaled mean of signs: each peer's payload decodes to scale_w *
    // sign(c_w); the aggregate keeps first-order magnitude information.
    const float inv = 1.0f / static_cast<float>(workers);
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0;
      for (size_t w = 0; w < workers; ++w)
        acc += (payloads[w][static_cast<size_t>(j / 8)] >> (j % 8)) & 1
                   ? scales[w]
                   : -scales[w];
      out[j] = acc * inv;
    }
  } else {
    // Majority vote: every worker decodes all peers' sign bitsets.
    for (int64_t j = 0; j < n; ++j) {
      int vote = 0;
      for (size_t w = 0; w < workers; ++w)
        vote +=
            (payloads[w][static_cast<size_t>(j / 8)] >> (j % 8)) & 1 ? 1 : -1;
      out[j] = vote >= 0 ? 1.0f : -1.0f;
    }
  }
  const double decode_s = td.seconds();

  if (stats) {
    stats->payload_bytes_per_worker =
        (n + 7) / 8 + (error_feedback_ ? 4 : 0);  // + the scale float
    stats->collective = dist::Coll::kAllgather;
    stats->n_messages = 1;
    stats->encode_seconds = encode_s;
    stats->decode_seconds = decode_s;  // one worker's majority-vote decode
  }
  return out;
}

ReducerState SignumReducer::state() const {
  ReducerState st;
  if (momentum_.empty()) return st;
  st.scalars = {static_cast<int64_t>(momentum_.size()),
                error_feedback_ ? 1 : 0};
  st.tensors = copy_all(momentum_);
  for (const Tensor& e : copy_all(error_))
    st.tensors.push_back(e);
  return st;
}

void SignumReducer::set_state(const ReducerState& st) {
  if (st.empty()) {
    momentum_.clear();
    error_.clear();
    return;
  }
  if (st.scalars.size() != 2 ||
      (st.scalars[1] != 0) != error_feedback_ ||
      st.tensors.size() !=
          static_cast<size_t>(st.scalars[0]) * (error_feedback_ ? 2 : 1))
    throw std::runtime_error(
        "signum: snapshot state does not match this reducer's "
        "configuration (worker count or error-feedback flag)");
  const size_t workers = static_cast<size_t>(st.scalars[0]);
  momentum_ = copy_all({st.tensors.begin(), st.tensors.begin() + workers});
  error_.clear();
  if (error_feedback_)
    error_ = copy_all({st.tensors.begin() + workers, st.tensors.end()});
}

// ---------------- Top-k ----------------

Tensor TopKReducer::reduce(const std::vector<Tensor>& grads,
                           const std::vector<Shape>& /*shapes*/,
                           ReduceStats* stats) {
  const size_t workers = grads.size();
  const int64_t n = grads[0].numel();
  const int64_t k =
      std::max<int64_t>(1, static_cast<int64_t>(n * keep_ratio_));
  if (error_feedback_ && error_.empty())
    error_.assign(workers, Tensor::zeros(Shape{n}));

  metrics::Timer te;
  struct Payload {
    std::vector<int64_t> idx;
    std::vector<float> val;
  };
  std::vector<Payload> payloads(workers);
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (size_t w = 0; w < workers; ++w) {
    Tensor m = grads[w];
    if (error_feedback_) m.add_(error_[w]);
    std::iota(order.begin(), order.end(), 0);
    std::nth_element(order.begin(), order.begin() + k, order.end(),
                     [&](int64_t a, int64_t b) {
                       return std::fabs(m[a]) > std::fabs(m[b]);
                     });
    Payload& p = payloads[w];
    p.idx.assign(order.begin(), order.begin() + k);
    p.val.resize(static_cast<size_t>(k));
    if (error_feedback_) {
      // Error feedback: remember everything not sent.
      error_[w] = m;
      for (int64_t j = 0; j < k; ++j) {
        const int64_t id = p.idx[static_cast<size_t>(j)];
        p.val[static_cast<size_t>(j)] = m[id];
        error_[w][id] = 0.0f;
      }
    } else {
      // Un-sent coordinates are simply dropped -- the behaviour the
      // convergence regression test measures against.
      for (int64_t j = 0; j < k; ++j)
        p.val[static_cast<size_t>(j)] = m[p.idx[static_cast<size_t>(j)]];
    }
  }
  const double encode_s = te.seconds();

  metrics::Timer td;
  Tensor out(Shape{n});
  for (size_t w = 0; w < workers; ++w)
    for (int64_t j = 0; j < k; ++j)
      out[payloads[w].idx[static_cast<size_t>(j)]] +=
          payloads[w].val[static_cast<size_t>(j)];
  out.mul_(1.0f / static_cast<float>(workers));
  const double decode_s = td.seconds();

  if (stats) {
    stats->payload_bytes_per_worker = k * 8;  // 4B index + 4B value
    stats->collective = dist::Coll::kAllgather;
    stats->n_messages = 1;
    stats->encode_seconds = encode_s;
    stats->decode_seconds = decode_s;
  }
  return out;
}

ReducerState TopKReducer::state() const {
  ReducerState st;
  if (error_.empty()) return st;
  st.scalars = {static_cast<int64_t>(error_.size())};
  st.tensors = copy_all(error_);
  return st;
}

void TopKReducer::set_state(const ReducerState& st) {
  if (st.empty()) {
    error_.clear();
    return;
  }
  if (!error_feedback_ || st.scalars.size() != 1 ||
      st.tensors.size() != static_cast<size_t>(st.scalars[0]))
    throw std::runtime_error(
        "topk: snapshot state does not match this reducer's configuration "
        "(worker count or error-feedback flag)");
  error_ = copy_all(st.tensors);
}

// ---------------- Stochastic binary quantization ----------------

Tensor BinaryQuantReducer::reduce(const std::vector<Tensor>& grads,
                                  const std::vector<Shape>& shapes,
                                  ReduceStats* stats) {
  const size_t workers = grads.size();
  const int64_t n = grads[0].numel();

  // Quantization is applied PER PARAMETER TENSOR (a (lo, hi) pair per
  // segment), matching how these schemes are deployed -- a single global
  // range would be dominated by whichever layer has the widest gradients.
  std::vector<std::pair<int64_t, int64_t>> segments;  // (offset, len)
  {
    int64_t off = 0;
    for (const Shape& s : shapes) {
      const int64_t len = shape_numel(s);
      segments.emplace_back(off, len);
      off += len;
    }
    if (off != n) segments.assign(1, {0, n});  // fallback: one segment
  }

  metrics::Timer te;
  struct Payload {
    std::vector<uint8_t> bits;
    std::vector<float> lo, hi;  // per segment
  };
  std::vector<Payload> payloads(workers);
  // Stochastic rounding uses an inline LCG: one multiply-add per element,
  // which is what makes the ENCODE side of this scheme genuinely cheap
  // (the paper's appendix F: 12.1 s encode vs 118.4 s decode per epoch).
  uint64_t lcg = rng_.next_u64() | 1;
  for (size_t w = 0; w < workers; ++w) {
    const Tensor& g = grads[w];
    Payload& p = payloads[w];
    p.bits.assign(static_cast<size_t>((n + 7) / 8), 0);
    for (const auto& [off, len] : segments) {
      float lo = g[off], hi = g[off];
      for (int64_t j = off; j < off + len; ++j) {
        lo = std::min(lo, g[j]);
        hi = std::max(hi, g[j]);
      }
      p.lo.push_back(lo);
      p.hi.push_back(hi);
      const float inv_range = 1.0f / std::max(1e-12f, hi - lo);
      for (int64_t j = off; j < off + len; ++j) {
        const float prob = (g[j] - lo) * inv_range;
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const float u = static_cast<float>(lcg >> 40) * 0x1.0p-24f;
        if (u < prob)
          p.bits[static_cast<size_t>(j / 8)] |=
              static_cast<uint8_t>(1u << (j % 8));
      }
    }
  }
  const double encode_s = te.seconds();

  metrics::Timer td;
  // Each worker dequantizes *every* peer's payload and averages -- this is
  // the expensive part appendix F measures (118 s/epoch at 16 nodes).
  Tensor out(Shape{n});
  for (size_t w = 0; w < workers; ++w) {
    const Payload& p = payloads[w];
    for (size_t seg = 0; seg < segments.size(); ++seg) {
      const auto [off, len] = segments[seg];
      const float lo = p.lo[seg];
      const float range = p.hi[seg] - lo;
      for (int64_t j = off; j < off + len; ++j) {
        const int bit = (p.bits[static_cast<size_t>(j / 8)] >> (j % 8)) & 1;
        out[j] += lo + static_cast<float>(bit) * range;
      }
    }
  }
  out.mul_(1.0f / static_cast<float>(workers));
  const double decode_s = td.seconds();

  if (stats) {
    stats->payload_bytes_per_worker =
        (n + 7) / 8 + 8 * static_cast<int64_t>(segments.size());
    stats->collective = dist::Coll::kAllgather;
    stats->n_messages = 1;
    stats->encode_seconds = encode_s;
    stats->decode_seconds = decode_s;
  }
  return out;
}

// ---------------- ATOMO (spectral) ----------------

std::string AtomoReducer::name() const {
  return "atomo(k=" + std::to_string(budget_) + ")";
}

Tensor AtomoReducer::reduce(const std::vector<Tensor>& grads,
                            const std::vector<Shape>& shapes,
                            ReduceStats* stats) {
  const size_t workers = grads.size();
  const int64_t total = grads[0].numel();
  Tensor out(Shape{total});
  int64_t payload = 0;
  double encode_s = 0, decode_s = 0;

  int64_t off = 0;
  for (const Shape& shape : shapes) {
    const int64_t n = shape_numel(shape);
    if (shape.size() < 2) {
      // 1-D riders allgathered raw (signs/sparsity don't apply).
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0;
        for (size_t w = 0; w < workers; ++w) acc += grads[w][off + j];
        out[off + j] = static_cast<float>(acc / workers);
      }
      payload += n * 4;
      off += n;
      continue;
    }
    const int64_t rows = shape[0];
    const int64_t cols = n / rows;
    const int64_t full = std::min(rows, cols);
    const int64_t k = std::min(budget_, full);

    struct Triplet {
      std::vector<float> u, v;
      float scale;
    };
    std::vector<std::vector<Triplet>> payloads(workers);

    metrics::Timer te;
    for (size_t w = 0; w < workers; ++w) {
      Tensor m(Shape{rows, cols},
               std::vector<float>(grads[w].data() + off,
                                  grads[w].data() + off + n));
      // The per-step SVD: this is the expensive part ATOMO pays every
      // iteration and Pufferfish pays once per training run.
      linalg::SvdResult svd = linalg::gram_svd(m, full);
      // Importance sampling: keep triplet i with probability
      // p_i = min(1, k * s_i / sum(s)), send s_i / p_i for unbiasedness.
      double s_sum = 0;
      for (int64_t i = 0; i < full; ++i) s_sum += svd.s[i];
      for (int64_t i = 0; i < full && s_sum > 0; ++i) {
        const double p =
            std::min(1.0, budget_ * static_cast<double>(svd.s[i]) / s_sum);
        if (p <= 0 || !rng_.bernoulli(p)) continue;
        Triplet t;
        t.scale = static_cast<float>(svd.s[i] / p);
        t.u.resize(static_cast<size_t>(rows));
        t.v.resize(static_cast<size_t>(cols));
        for (int64_t r = 0; r < rows; ++r)
          t.u[static_cast<size_t>(r)] = svd.u[r * full + i];
        for (int64_t cidx = 0; cidx < cols; ++cidx)
          t.v[static_cast<size_t>(cidx)] = svd.v[cidx * full + i];
        payloads[w].push_back(std::move(t));
      }
    }
    encode_s += te.seconds();

    metrics::Timer td;
    // Every worker reconstructs every peer's sampled triplets and averages.
    std::vector<double> acc(static_cast<size_t>(n), 0.0);
    for (size_t w = 0; w < workers; ++w)
      for (const Triplet& t : payloads[w])
        for (int64_t r = 0; r < rows; ++r) {
          const double us = static_cast<double>(t.u[static_cast<size_t>(r)]) *
                            t.scale;
          for (int64_t cidx = 0; cidx < cols; ++cidx)
            acc[static_cast<size_t>(r * cols + cidx)] +=
                us * t.v[static_cast<size_t>(cidx)];
        }
    for (int64_t j = 0; j < n; ++j)
      out[off + j] = static_cast<float>(acc[static_cast<size_t>(j)] / workers);
    decode_s += td.seconds();

    // Payload: sampled triplets (expected ~k of them).
    int64_t triplets = 0;
    for (const auto& p : payloads) triplets += static_cast<int64_t>(p.size());
    payload += (triplets / static_cast<int64_t>(workers)) *
               (rows + cols + 1) * 4;
    (void)k;
    off += n;
  }

  if (stats) {
    stats->payload_bytes_per_worker = payload;
    stats->collective = dist::Coll::kAllgather;  // triplets don't sum
    stats->n_messages = 1;
    stats->encode_seconds = encode_s;
    stats->decode_seconds = decode_s;
  }
  return out;
}

}  // namespace pf::compress
