// Evaluation metrics (top-k accuracy, perplexity, BLEU-4), a wall-clock
// timer, and the fixed-width table printer all benches share so their output
// lines up with the paper's tables.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "tensor/tensor.h"

namespace pf::metrics {

// Fraction of rows of (N, C) logits whose top-k set contains the label.
double topk_accuracy(const Tensor& logits, const std::vector<int64_t>& labels,
                     int64_t k = 1);

// exp(mean NLL); `loss` is a mean cross-entropy in nats.
double perplexity(double mean_ce_loss);

// Corpus BLEU-4 with brevity penalty and add-one smoothing on the
// higher-order n-gram precisions (standard smoothing-2).
double bleu4(const std::vector<std::vector<int64_t>>& hypotheses,
             const std::vector<std::vector<int64_t>>& references);

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Mean and sample standard deviation of a series (the paper reports
// "averaged across 3 independent trials").
struct MeanStd {
  double mean = 0, std = 0;
};
MeanStd mean_std(const std::vector<double>& xs);
std::string fmt_mean_std(const MeanStd& ms, int precision = 2);

// Markdown-ish fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

// Number formatting helpers.
std::string fmt(double v, int precision = 2);
std::string fmt_int(int64_t v);       // thousands separators
std::string fmt_bytes(int64_t bytes);
std::string fmt_ratio(double v);      // "1.64x"

// ---- Allocation/copy observability (runtime::BufferPool + Tensor COW). ----
// Snapshot of the pool counters, re-exported here so benches and reports
// depend on metrics only.
struct AllocStats {
  uint64_t allocations = 0;   // pool hits + system-allocator misses
  uint64_t pool_hits = 0;     // served from a free list
  uint64_t sys_allocs = 0;    // hit the system allocator
  uint64_t cow_unshares = 0;  // copy-on-write copies actually taken
  uint64_t bytes_live = 0;    // bytes currently handed out to tensors
  uint64_t bytes_pooled = 0;  // bytes cached in free lists
};
AllocStats alloc_stats();
// Zeroes the counters and (optionally) drops cached buffers, so benchmark
// sections start from a clean slate and cannot subsidize each other.
void reset_alloc_stats(bool clear_pool = false);
// One-line human-readable form: "allocs 1,234 (hits 1,200 / sys 34) ...".
std::string fmt_alloc_stats(const AllocStats& s);

// ---- Fault-injection observability (src/fault). ----
// One-line form of fault::stats(): "kills 2 / delays 1 / drops 17 /
// write-crashes 0 | retries 19, recoveries 19".
std::string fmt_fault_stats(const fault::FaultStats& s);

}  // namespace pf::metrics
