// Shared scaffolding for the per-table/per-figure benchmark binaries:
// standard scaled datasets, model factories, and banner printing. Every
// bench prints the paper's reported numbers next to ours so the qualitative
// claim (who wins, by roughly what factor) can be eyeballed directly.
#pragma once

#include <memory>
#include <string>

#include "core/trainer.h"
#include "metrics/metrics.h"
#include "models/lstm_lm.h"
#include "models/resnet.h"
#include "models/transformer_mt.h"
#include "models/vgg.h"
#include "runtime/shm_cluster.h"

namespace bench {

using namespace pf;

// CIFAR-10 stand-in: 10 classes, 3 channels. VGG benches need hw = 32
// (five max-pools); ResNet benches run at hw = 16 for speed. Noise 0.35
// keeps the task learnable in ~10 epochs on one CPU core while leaving the
// ablation orderings room to show.
data::SyntheticImages cifar_like(int64_t classes = 10, int64_t hw = 32,
                                 int64_t train = 128, int64_t test = 64,
                                 float noise = 0.35f, uint64_t seed = 7);

// ImageNet stand-in: more classes, same CPU-friendly geometry.
data::SyntheticImages imagenet_like(int64_t train = 200, int64_t test = 100);

core::VisionModelFactory make_vgg(double width, int k_first_lowrank,
                                  int64_t classes = 10);
core::VisionModelFactory make_resnet18(double width, int first_lowrank_block,
                                       int64_t classes = 10);
core::VisionModelFactory make_resnet50(double width, bool factorize_stage4,
                                       int64_t classes = 20,
                                       bool wide = false);

// The data-parallel executor with `workers` threads standing in for the
// paper's nodes. Each epoch record's `priced` breakdown is the paper-cluster
// view (10 Gbps alpha-beta comm over the real payload bytes) the
// distributed benches print.
runtime::ShmDataParallelTrainer make_cluster(
    const core::VisionModelFactory& make,
    std::unique_ptr<compress::Reducer> reducer, int workers,
    const dist::DistTrainConfig& cfg);

// Algorithm 1's vanilla -> hybrid transfer for replace_model: the truncated
// SVD warm start, on an Rng seeded with `svd_seed`.
runtime::ShmDataParallelTrainer::ModelTransfer warm_start_with(
    uint64_t svd_seed);

// Standard scaled training recipes (kept here so benches agree).
// VGG-19 (deep, residual-free) needs ~14 epochs to take off at this scale;
// ResNet-18 at hw = 16 converges in ~8.
core::VisionTrainConfig vgg_recipe(int epochs = 14, int warmup = 4,
                                   uint64_t seed = 0);
// Tuned recipe for VGG *Pufferfish* runs: the scaled VGG only takes off
// after its first lr decay, so the warm-up must extend past it (switch at
// epoch 13 of 22) or the SVD factorizes near-random weights.
core::VisionTrainConfig vgg_long_recipe(int warmup = 13, uint64_t seed = 0);
core::VisionTrainConfig resnet_recipe(int epochs = 8, int warmup = 2,
                                      uint64_t seed = 0);
core::VisionTrainConfig imagenet_recipe(int epochs = 10, int warmup = 2,
                                        uint64_t seed = 0);

// Prints the bench banner with the paper artifact being reproduced.
void banner(const std::string& title, const std::string& paper_ref,
            const std::string& substitution);

// Allocation-traffic bracketing for a benchmark section. begin() clears the
// buffer pool and zeroes its counters so sections can't subsidize each
// other; end() prints one "[alloc] <label>: ..." line with the pool
// hit/miss/COW counters accumulated since the matching begin().
void alloc_section_begin();
void alloc_section_end(const std::string& label);

// Span-tracing bracketing for a benchmark section, active only when the
// tracer is on (PF_TRACE=1 or trace::set_enabled). begin() drops events
// buffered by earlier sections; end() prints one "[trace] <label>: ..."
// line with the span/dropped counts and, when `json_path` is non-empty,
// writes the section's timeline there as chrome://tracing JSON. No-ops
// (and no output) when tracing is disabled, so bench output is unchanged
// for plain runs.
void trace_section_begin();
void trace_section_end(const std::string& label,
                       const std::string& json_path = "");

// "93.89 +- 0.14"-style cell from per-seed values.
std::string cell(const std::vector<double>& values, int precision = 2);

// Machine-readable bench output: a sectioned key/value report emitted as
// JSON (insertion-ordered, fixed formatting -> byte-stable across runs of
// deterministic benches). Benches opt in via `--json[=path]` on their
// command line; with no path (or "-") the JSON goes to stdout after the
// human tables. Strings are escaped with trace::json_escape -- the same
// writer the chrome://tracing exporter uses.
class JsonReport {
 public:
  // Scans argv for --json or --json=PATH. Returns true when present and
  // stores the path ("" = stdout) through `path` if non-null.
  static bool wants_json(int argc, char** argv, std::string* path = nullptr);

  void section(const std::string& name);  // subsequent kv() rows go here
  void kv(const std::string& key, double value);
  void kv(const std::string& key, const std::string& value);

  // {"bench":"...","sections":[{"name":"...","values":{...}},...]}
  std::string to_json(const std::string& bench_name) const;
  // Serialize and write to `path` ("" or "-" = stdout). Returns false on
  // I/O failure.
  bool emit(const std::string& bench_name, const std::string& path = "") const;

 private:
  struct Entry {
    std::string key;
    bool is_num = false;
    double num = 0;
    std::string str;
  };
  struct Section {
    std::string name;
    std::vector<Entry> entries;
  };
  std::vector<Section> sections_;
};

}  // namespace bench
