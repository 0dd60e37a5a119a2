#include "core/factorize.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "linalg/svd.h"
#include "tensor/matmul.h"
#include "trace/trace.h"

namespace pf::core {

namespace {

double g_svd_seconds = 0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void check(bool cond, const std::string& msg) {
  if (!cond) throw std::runtime_error("factorize: " + msg);
}

void check_rank(int64_t rank, int64_t full, const std::string& what) {
  check(rank >= 1 && rank <= full,
        "rank " + std::to_string(rank) + " outside [1, " +
            std::to_string(full) + "] for " + what);
}

// Calls fn(unrolled offset, filter offset) for every element of a
// (c, c_in, k, k) filter bank and its (c_in k^2, c) unrolled matrix.
template <typename Fn>
void for_each_unrolled(int64_t c, int64_t c_in, int64_t k, Fn&& fn) {
  for (int64_t j = 0; j < c; ++j)
    for (int64_t ci = 0; ci < c_in; ++ci)
      for (int64_t ki = 0; ki < k; ++ki)
        for (int64_t kj = 0; kj < k; ++kj)
          fn(((ci * k + ki) * k + kj) * c + j,
             ((j * c_in + ci) * k + ki) * k + kj);
}

void check_pair(const nn::Conv2d& d, const nn::LowRankConv2d& l) {
  check(d.c_in() == l.c_in() && d.c_out() == l.c_out() &&
            d.kernel() == l.kernel(),
        "conv shape mismatch");
}
void check_pair(const nn::Linear& d, const nn::LowRankLinear& l) {
  check(d.in_features() == l.in_features() &&
            d.out_features() == l.out_features(),
        "linear shape mismatch");
}
void check_pair(const nn::LSTMLayer& d, const nn::LowRankLSTMLayer& l) {
  check(d.hidden() == l.hidden() && d.input_dim() == l.input_dim(),
        "lstm shape mismatch");
}

// Factorizes a conv's unrolled weight into dst at dst's rank.
void factorize_unrolled(const Tensor& unrolled, nn::LowRankConv2d& dst,
                        Rng& rng) {
  FactorPair f = factorize_matrix(unrolled, dst.rank(), rng);
  // U rolls into the thin convolution (r, c_in, k, k); V^T becomes the 1x1
  // up-projection (c_out, r, 1, 1).
  dst.u->value = roll_conv(f.u, dst.c_in(), dst.kernel());
  dst.v->value = f.v.reshape(Shape{dst.c_out(), dst.rank(), 1, 1});
}

// The one parallel-tree walk. A non-null `rng` walks towards the hybrid
// (vanilla src, hybrid dst) and factorizes; a null one walks back and
// densifies. `policy` re-picks each conv / linear rank (null: keep the
// hybrid layer's); `report` records every factorized layer.
struct Transfer {
  Rng* rng = nullptr;
  const RankPolicy* policy = nullptr;
  ReprojectReport* report = nullptr;

  // The rank the dense layer with (unrolled) weight `w` is factorized at.
  int64_t pick_rank(const std::string& type, const Tensor& w,
                    int64_t current) {
    const int64_t r = policy ? policy->rank_for(w) : current;
    if (report)
      report->entries.push_back({type + " " + std::to_string(w.size(0)) +
                                     "x" + std::to_string(w.size(1)),
                                 current, r});
    return r;
  }

  void convert(const nn::Conv2d& conv, nn::LowRankConv2d& lr) {
    check_pair(conv, lr);
    const Tensor unrolled = unroll_conv(conv.weight->value);
    lr.set_rank(pick_rank("LowRankConv2d", unrolled, lr.rank()));
    factorize_unrolled(unrolled, lr, *rng);
  }
  void convert(const nn::Linear& fc, nn::LowRankLinear& lr) {
    check_pair(fc, lr);
    lr.set_rank(pick_rank("LowRankLinear", fc.weight->value, lr.rank()));
    factorize_linear(fc, lr, *rng);
  }
  void convert(const nn::LSTMLayer& lstm, nn::LowRankLSTMLayer& lr) {
    if (report)
      report->entries.push_back(
          {"LowRankLSTMLayer h=" + std::to_string(lr.hidden()), lr.rank(),
           lr.rank()});
    factorize_lstm(lstm, lr, *rng);
  }

  void convert(const nn::LowRankConv2d& lr, nn::Conv2d& conv) {
    check_pair(conv, lr);
    // V (c_out, r, 1, 1) is already the (c_out, r) factor.
    const Tensor v = lr.v->value.reshape(Shape{lr.c_out(), lr.rank()});
    conv.weight->value = roll_conv(pf::matmul_nt(unroll_conv(lr.u->value), v),
                                   lr.c_in(), lr.kernel());
  }
  void convert(const nn::LowRankLinear& lr, nn::Linear& fc) {
    check_pair(fc, lr);
    fc.weight->value = pf::matmul_nt(lr.u->value, lr.v->value);  // (out, in)
    if (lr.bias && fc.bias) fc.bias->value = lr.bias->value;
  }
  void convert(const nn::LowRankLSTMLayer& lr, nn::LSTMLayer& lstm) {
    check_pair(lstm, lr);
    const int64_t h = lr.hidden(), d = lr.input_dim();
    Tensor w_ih = Tensor::uninit(Shape{4 * h, d});
    Tensor w_hh = Tensor::uninit(Shape{4 * h, h});
    for (size_t gate = 0; gate < 4; ++gate) {
      const Tensor gi = pf::matmul_nt(lr.u_ih[gate]->value,
                                      lr.v_ih[gate]->value);  // (h, d)
      const Tensor gh = pf::matmul_nt(lr.u_hh[gate]->value,
                                      lr.v_hh[gate]->value);  // (h, h)
      std::memcpy(w_ih.data() + static_cast<int64_t>(gate) * h * d,
                  gi.data(), static_cast<size_t>(h * d) * sizeof(float));
      std::memcpy(w_hh.data() + static_cast<int64_t>(gate) * h * h,
                  gh.data(), static_cast<size_t>(h * h) * sizeof(float));
    }
    lstm.w_ih->value = std::move(w_ih);
    lstm.w_hh->value = std::move(w_hh);
    lstm.bias->value = lr.bias->value;
  }

  template <typename From, typename To>
  bool try_convert(nn::Module& src, nn::Module& dst) {
    auto* from = dynamic_cast<From*>(&src);
    auto* to = dynamic_cast<To*>(&dst);
    if (!from || !to) return false;
    convert(*from, *to);
    return true;
  }

  void walk(nn::Module& src, nn::Module& dst) {
    const std::string st = src.type_name(), dt = dst.type_name();
    if (st == dt) {
      auto& sp = src.local_params();
      auto& dp = dst.local_params();
      check(sp.size() == dp.size(), "param count mismatch in " + st);
      for (size_t i = 0; i < sp.size(); ++i) {
        check(sp[i].var->value.shape() == dp[i].var->value.shape(),
              "param shape mismatch in " + st + "." + sp[i].name);
        dp[i].var->value = sp[i].var->value;
      }
      auto& sb = src.local_buffers();
      auto& db = dst.local_buffers();
      check(sb.size() == db.size(), "buffer count mismatch in " + st);
      for (size_t i = 0; i < sb.size(); ++i) db[i].value = sb[i].value;
      const auto& sc = src.children();
      const auto& dc = dst.children();
      check(sc.size() == dc.size(), "child count mismatch in " + st);
      for (size_t i = 0; i < sc.size(); ++i) walk(*sc[i], *dc[i]);
      return;
    }
    const bool converted =
        rng ? try_convert<nn::Conv2d, nn::LowRankConv2d>(src, dst) ||
                  try_convert<nn::Linear, nn::LowRankLinear>(src, dst) ||
                  try_convert<nn::LSTMLayer, nn::LowRankLSTMLayer>(src, dst)
            : try_convert<nn::LowRankConv2d, nn::Conv2d>(src, dst) ||
                  try_convert<nn::LowRankLinear, nn::Linear>(src, dst) ||
                  try_convert<nn::LowRankLSTMLayer, nn::LSTMLayer>(src, dst);
    check(converted, "unsupported pair " + st + " -> " + dt);
  }
};

// Calls fn(layer) for every low-rank layer of `m` in visit order.
template <typename Fn>
void visit_low_rank(nn::Module& m, Fn&& fn) {
  if (auto* c = dynamic_cast<nn::LowRankConv2d*>(&m))
    fn(*c);
  else if (auto* l = dynamic_cast<nn::LowRankLinear*>(&m))
    fn(*l);
  else if (auto* s = dynamic_cast<nn::LowRankLSTMLayer*>(&m))
    fn(*s);
  for (nn::Module* c : m.children()) visit_low_rank(*c, fn);
}

}  // namespace

int64_t ratio_rank(int64_t m, int64_t n, double ratio) {
  const int64_t full = std::min(m, n);
  const double r = full * ratio;
  if (!(r >= 1)) return 1;  // also a NaN ratio
  if (r >= static_cast<double>(full)) return full;
  return static_cast<int64_t>(r);
}

Tensor unroll_conv(const Tensor& w) {
  const int64_t c = w.size(0), c_in = w.size(1), k = w.size(2);
  Tensor out = Tensor::uninit(Shape{c_in * k * k, c});
  const float* wp = w.data();
  float* op = out.data();
  for_each_unrolled(c, c_in, k, [&](int64_t u, int64_t f) { op[u] = wp[f]; });
  return out;
}

Tensor roll_conv(const Tensor& unrolled, int64_t c_in, int64_t k) {
  check(unrolled.size(0) == c_in * k * k, "roll_conv row count mismatch");
  const int64_t c = unrolled.size(1);
  Tensor out = Tensor::uninit(Shape{c, c_in, k, k});
  const float* up = unrolled.data();
  float* op = out.data();
  for_each_unrolled(c, c_in, k, [&](int64_t u, int64_t f) { op[f] = up[u]; });
  return out;
}

double last_warm_start_svd_seconds() { return g_svd_seconds; }

FactorPair factorize_matrix(const Tensor& w, int64_t rank, Rng& rng) {
  check_rank(rank, std::min(w.size(0), w.size(1)),
             "a " + shape_str(w.shape()) + " weight");
  PF_TRACE_SCOPE_C("svd.factorize", rank);
  const double t0 = now_s();
  linalg::SvdResult svd = linalg::truncated_svd(w, rank, rng);
  g_svd_seconds += now_s() - t0;
  FactorPair f;
  f.u = svd.u;  // (out, r)
  f.v = svd.v;  // (in, r)
  const Tensor& s = svd.s;
  float* up = f.u.data();  // unshares from svd.u/v once, not per element
  float* vp = f.v.data();
  const int64_t un = f.u.size(0), vn = f.v.size(0);
  for (int64_t j = 0; j < rank; ++j) {
    const float rs = std::sqrt(std::max(0.0f, s[j]));
    for (int64_t i = 0; i < un; ++i) up[i * rank + j] *= rs;
    for (int64_t i = 0; i < vn; ++i) vp[i * rank + j] *= rs;
  }
  return f;
}

float reconstruction_error(const Tensor& w, const FactorPair& f) {
  Tensor rec = pf::matmul_nt(f.u, f.v);
  return linalg::frobenius_diff(w, rec) / std::max(1e-12f, w.norm());
}

void factorize_linear(const nn::Linear& src, nn::LowRankLinear& dst,
                      Rng& rng) {
  check_pair(src, dst);
  FactorPair f = factorize_matrix(src.weight->value, dst.rank(), rng);
  dst.u->value = std::move(f.u);
  dst.v->value = std::move(f.v);
  if (src.bias && dst.bias) dst.bias->value = src.bias->value;
}

void factorize_conv(const nn::Conv2d& src, nn::LowRankConv2d& dst, Rng& rng) {
  check_pair(src, dst);
  factorize_unrolled(unroll_conv(src.weight->value), dst, rng);
}

void factorize_lstm(const nn::LSTMLayer& src, nn::LowRankLSTMLayer& dst,
                    Rng& rng) {
  check_pair(src, dst);
  const int64_t h = src.hidden(), r = dst.rank();
  // Per-gate factorization (paper Table 12): slice the fused (4h, *) weights.
  for (int gate = 0; gate < 4; ++gate) {
    Tensor wg = slice(src.w_ih->value, 0, gate * h, h);  // (h, d)
    FactorPair f = factorize_matrix(wg, r, rng);
    dst.u_ih[static_cast<size_t>(gate)]->value = std::move(f.u);
    dst.v_ih[static_cast<size_t>(gate)]->value = std::move(f.v);
    Tensor hg = slice(src.w_hh->value, 0, gate * h, h);  // (h, h)
    FactorPair fh = factorize_matrix(hg, r, rng);
    dst.u_hh[static_cast<size_t>(gate)]->value = std::move(fh.u);
    dst.v_hh[static_cast<size_t>(gate)]->value = std::move(fh.v);
  }
  dst.bias->value = src.bias->value;
}

void warm_start(nn::Module& vanilla, nn::Module& hybrid, Rng& rng) {
  g_svd_seconds = 0;
  Transfer{&rng}.walk(vanilla, hybrid);
}

ReprojectReport reproject(nn::Module& vanilla, nn::Module& hybrid,
                          const RankPolicy& policy, Rng& rng) {
  ReprojectReport report;
  const double svd_before = g_svd_seconds;
  Transfer{&rng, &policy, &report}.walk(vanilla, hybrid);
  report.svd_seconds = g_svd_seconds - svd_before;
  return report;
}

void defactorize(nn::Module& hybrid, nn::Module& vanilla) {
  Transfer{}.walk(hybrid, vanilla);
}

std::vector<int64_t> collect_ranks(nn::Module& hybrid) {
  std::vector<int64_t> ranks;
  visit_low_rank(hybrid, [&](auto& lr) { ranks.push_back(lr.rank()); });
  return ranks;
}

void apply_ranks(nn::Module& hybrid, const std::vector<int64_t>& ranks) {
  size_t i = 0;
  visit_low_rank(hybrid, [&](auto& lr) {
    check(i < ranks.size(), "rank list shorter than the model's layer list");
    const int64_t r = ranks[i++];
    using Layer = std::decay_t<decltype(lr)>;
    if constexpr (std::is_same_v<Layer, nn::LowRankLSTMLayer>) {
      // LSTM rank is structural (per-gate arrays); it never moves, so the
      // snapshot's entry must simply match.
      check(r == lr.rank(), "snapshot LSTM rank " + std::to_string(r) +
                                " != model rank " + std::to_string(lr.rank()));
    } else if constexpr (std::is_same_v<Layer, nn::LowRankConv2d>) {
      const int64_t k = lr.kernel();
      check_rank(r, std::min(lr.c_in() * k * k, lr.c_out()), lr.type_name());
      lr.set_rank(r);
      lr.u->value = Tensor::zeros(Shape{r, lr.c_in(), k, k});
      lr.v->value = Tensor::zeros(Shape{lr.c_out(), r, 1, 1});
    } else {
      check_rank(r, std::min(lr.in_features(), lr.out_features()),
                 lr.type_name());
      lr.set_rank(r);
      lr.u->value = Tensor::zeros(Shape{lr.out_features(), r});
      lr.v->value = Tensor::zeros(Shape{lr.in_features(), r});
    }
  });
  check(i == ranks.size(), "rank list longer than the model's layer list");
}

int64_t choose_rank_for_energy(const Tensor& w, double energy,
                               int64_t min_rank) {
  linalg::SvdResult svd = linalg::gram_svd(w);
  double total = 0;
  for (int64_t i = 0; i < svd.s.numel(); ++i)
    total += static_cast<double>(svd.s[i]) * svd.s[i];
  if (total <= 0) return min_rank;
  double acc = 0;
  for (int64_t i = 0; i < svd.s.numel(); ++i) {
    acc += static_cast<double>(svd.s[i]) * svd.s[i];
    if (acc / total >= energy) return std::max(min_rank, i + 1);
  }
  return std::max(min_rank, svd.s.numel());
}

double retained_energy(const Tensor& w, int64_t rank) {
  linalg::SvdResult svd = linalg::gram_svd(w);
  double total = 0, kept = 0;
  for (int64_t i = 0; i < svd.s.numel(); ++i) {
    const double e = static_cast<double>(svd.s[i]) * svd.s[i];
    total += e;
    if (i < rank) kept += e;
  }
  return total > 0 ? kept / total : 1.0;
}

}  // namespace pf::core
