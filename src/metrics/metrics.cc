#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "runtime/buffer_pool.h"

namespace pf::metrics {

double topk_accuracy(const Tensor& logits, const std::vector<int64_t>& labels,
                     int64_t k) {
  const int64_t n = logits.size(0), c = logits.size(1);
  int64_t correct = 0;
  std::vector<int64_t> idx(static_cast<size_t>(c));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    for (int64_t j = 0; j < c; ++j) idx[static_cast<size_t>(j)] = j;
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [row](int64_t a, int64_t b) { return row[a] > row[b]; });
    for (int64_t j = 0; j < k; ++j)
      if (idx[static_cast<size_t>(j)] == labels[static_cast<size_t>(i)]) {
        ++correct;
        break;
      }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

double perplexity(double mean_ce_loss) { return std::exp(mean_ce_loss); }

namespace {

// Count n-grams of order `n` in `seq` (sequence assumed free of specials).
std::map<std::vector<int64_t>, int64_t> ngrams(const std::vector<int64_t>& seq,
                                               size_t n) {
  std::map<std::vector<int64_t>, int64_t> out;
  if (seq.size() < n) return out;
  for (size_t i = 0; i + n <= seq.size(); ++i)
    ++out[std::vector<int64_t>(seq.begin() + static_cast<int64_t>(i),
                               seq.begin() + static_cast<int64_t>(i + n))];
  return out;
}

}  // namespace

double bleu4(const std::vector<std::vector<int64_t>>& hypotheses,
             const std::vector<std::vector<int64_t>>& references) {
  double log_precision = 0;
  int64_t hyp_len = 0, ref_len = 0;
  for (size_t n = 1; n <= 4; ++n) {
    int64_t match = 0, total = 0;
    for (size_t s = 0; s < hypotheses.size(); ++s) {
      const auto h = ngrams(hypotheses[s], n);
      const auto r = ngrams(references[s], n);
      for (const auto& [g, cnt] : h) {
        total += cnt;
        auto it = r.find(g);
        if (it != r.end()) match += std::min(cnt, it->second);
      }
    }
    double p;
    if (n == 1) {
      p = total > 0 ? static_cast<double>(match) / total : 0.0;
    } else {
      // Add-one smoothing for higher orders (short sentences otherwise zero
      // out the geometric mean).
      p = static_cast<double>(match + 1) / static_cast<double>(total + 1);
    }
    if (p <= 0) return 0.0;
    log_precision += std::log(p) / 4.0;
  }
  for (size_t s = 0; s < hypotheses.size(); ++s) {
    hyp_len += static_cast<int64_t>(hypotheses[s].size());
    ref_len += static_cast<int64_t>(references[s].size());
  }
  const double bp =
      hyp_len >= ref_len
          ? 1.0
          : std::exp(1.0 - static_cast<double>(ref_len) /
                               std::max<int64_t>(1, hyp_len));
  return 100.0 * bp * std::exp(log_precision);
}

MeanStd mean_std(const std::vector<double>& xs) {
  MeanStd ms;
  if (xs.empty()) return ms;
  for (double x : xs) ms.mean += x;
  ms.mean /= static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double acc = 0;
    for (double x : xs) acc += (x - ms.mean) * (x - ms.mean);
    ms.std = std::sqrt(acc / static_cast<double>(xs.size() - 1));
  }
  return ms;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_mean_std(const MeanStd& ms, int precision) {
  return fmt(ms.mean, precision) + " +- " + fmt(ms.std, precision);
}

std::string fmt_int(int64_t v) {
  std::string s = std::to_string(v < 0 ? -v : v);
  std::string out;
  int cnt = 0;
  for (auto it = s.rbegin(); it != s.rend(); ++it) {
    if (cnt && cnt % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++cnt;
  }
  if (v < 0) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string fmt_bytes(int64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 3) {
    v /= 1024.0;
    ++u;
  }
  return fmt(v, v < 10 ? 2 : 1) + " " + units[u];
}

std::string fmt_ratio(double v) { return fmt(v, 2) + "x"; }

Table::Table(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void Table::print() const {
  if (rows_.empty()) return;
  std::vector<size_t> width(rows_[0].size(), 0);
  for (const auto& row : rows_)
    for (size_t i = 0; i < row.size() && i < width.size(); ++i)
      width[i] = std::max(width[i], row[i].size());
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t i = 0; i < width.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      std::printf(" %-*s |", static_cast<int>(width[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(rows_[0]);
  std::printf("|");
  for (size_t i = 0; i < width.size(); ++i) {
    for (size_t j = 0; j < width[i] + 2; ++j) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (size_t r = 1; r < rows_.size(); ++r) print_row(rows_[r]);
}

AllocStats alloc_stats() {
  const runtime::PoolStats p = runtime::BufferPool::instance().stats();
  AllocStats s;
  s.allocations = p.allocations();
  s.pool_hits = p.hits;
  s.sys_allocs = p.misses;
  s.cow_unshares = p.cow_unshares;
  s.bytes_live = p.bytes_live;
  s.bytes_pooled = p.bytes_pooled;
  return s;
}

void reset_alloc_stats(bool clear_pool) {
  runtime::BufferPool& pool = runtime::BufferPool::instance();
  if (clear_pool) pool.clear();
  pool.reset_stats();
}

std::string fmt_alloc_stats(const AllocStats& s) {
  std::ostringstream os;
  os << "allocs " << fmt_int(static_cast<int64_t>(s.allocations)) << " (hits "
     << fmt_int(static_cast<int64_t>(s.pool_hits)) << " / sys "
     << fmt_int(static_cast<int64_t>(s.sys_allocs)) << "), cow-unshares "
     << fmt_int(static_cast<int64_t>(s.cow_unshares)) << ", live "
     << fmt_bytes(static_cast<int64_t>(s.bytes_live)) << ", pooled "
     << fmt_bytes(static_cast<int64_t>(s.bytes_pooled));
  return os.str();
}

std::string fmt_fault_stats(const fault::FaultStats& s) {
  std::ostringstream os;
  os << "kills " << fmt_int(static_cast<int64_t>(s.injected_kills))
     << " / delays " << fmt_int(static_cast<int64_t>(s.injected_delays))
     << " / drops " << fmt_int(static_cast<int64_t>(s.dropped_requests))
     << " / write-crashes " << fmt_int(static_cast<int64_t>(s.write_crashes))
     << " | retries " << fmt_int(static_cast<int64_t>(s.retries))
     << ", recoveries " << fmt_int(static_cast<int64_t>(s.recoveries));
  return os.str();
}

}  // namespace pf::metrics
