#include "common.h"

#include <cstdio>
#include <fstream>

#include "core/factorize.h"
#include "trace/trace.h"

namespace bench {

runtime::ShmDataParallelTrainer make_cluster(
    const core::VisionModelFactory& make,
    std::unique_ptr<compress::Reducer> reducer, int workers,
    const dist::DistTrainConfig& cfg) {
  runtime::ShmClusterConfig scfg;
  scfg.workers = workers;
  scfg.train = cfg;
  return runtime::ShmDataParallelTrainer(make, std::move(reducer), scfg);
}

runtime::ShmDataParallelTrainer::ModelTransfer warm_start_with(
    uint64_t svd_seed) {
  return [svd_seed](nn::UnaryModule& from, nn::UnaryModule& to) {
    Rng svd_rng(svd_seed);
    core::warm_start(from, to, svd_rng);
  };
}

data::SyntheticImages cifar_like(int64_t classes, int64_t hw, int64_t train,
                                 int64_t test, float noise, uint64_t seed) {
  data::SyntheticImages::Config c;
  c.num_classes = classes;
  c.hw = hw;
  c.train_size = train;
  c.test_size = test;
  c.noise = noise;
  c.seed = seed;
  return data::SyntheticImages(c);
}

data::SyntheticImages imagenet_like(int64_t train, int64_t test) {
  return cifar_like(/*classes=*/20, /*hw=*/32, train, test, /*noise=*/0.35f,
                    /*seed=*/23);
}

core::VisionModelFactory make_vgg(double width, int k_first_lowrank,
                                  int64_t classes) {
  return [=](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::VggConfig cfg;
    cfg.width_mult = width;
    cfg.k_first_lowrank = k_first_lowrank;
    cfg.num_classes = classes;
    return std::make_unique<models::Vgg19>(cfg, rng);
  };
}

core::VisionModelFactory make_resnet18(double width, int first_lowrank_block,
                                       int64_t classes) {
  return [=](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg;
    cfg.width_mult = width;
    cfg.first_lowrank_block = first_lowrank_block;
    cfg.num_classes = classes;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

core::VisionModelFactory make_resnet50(double width, bool factorize_stage4,
                                       int64_t classes, bool wide) {
  return [=](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetImageNetConfig cfg;
    cfg.width_mult = width;
    cfg.factorize_stage4 = factorize_stage4;
    cfg.num_classes = classes;
    cfg.wide = wide;
    cfg.input_hw = 32;
    return std::make_unique<models::ResNet50>(cfg, rng);
  };
}

core::VisionTrainConfig vgg_recipe(int epochs, int warmup, uint64_t seed) {
  core::VisionTrainConfig cfg;
  cfg.epochs = epochs;
  cfg.warmup_epochs = warmup;
  cfg.batch = 32;
  cfg.lr = 0.05f;
  cfg.momentum = 0.9f;
  cfg.weight_decay = 1e-4f;
  // Paper: decay at 150/250 of 300 epochs -> similar fractions here.
  cfg.lr_milestones = {(2 * epochs) / 3, (6 * epochs) / 7};
  cfg.seed = seed;
  return cfg;
}

core::VisionTrainConfig vgg_long_recipe(int warmup, uint64_t seed) {
  core::VisionTrainConfig cfg = vgg_recipe(22, warmup, seed);
  cfg.lr_milestones = {12, 19};
  return cfg;
}

core::VisionTrainConfig resnet_recipe(int epochs, int warmup, uint64_t seed) {
  core::VisionTrainConfig cfg = vgg_recipe(epochs, warmup, seed);
  cfg.lr_milestones = {(3 * epochs) / 4};
  return cfg;
}

core::VisionTrainConfig imagenet_recipe(int epochs, int warmup,
                                        uint64_t seed) {
  core::VisionTrainConfig cfg = vgg_recipe(epochs, warmup, seed);
  // Paper: decay at 30/60/80 of 90 epochs; label smoothing 0.1.
  cfg.lr_milestones = {epochs / 3, (2 * epochs) / 3, (8 * epochs) / 9};
  cfg.label_smoothing = 0.1f;
  return cfg;
}

void banner(const std::string& title, const std::string& paper_ref,
            const std::string& substitution) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  if (!substitution.empty())
    std::printf("substitution: %s\n", substitution.c_str());
  std::printf("=====================================================\n\n");
}

void alloc_section_begin() {
  metrics::reset_alloc_stats(/*clear_pool=*/true);
}

void alloc_section_end(const std::string& label) {
  std::printf("[alloc] %s: %s\n", label.c_str(),
              metrics::fmt_alloc_stats(metrics::alloc_stats()).c_str());
}

void trace_section_begin() {
  if (trace::enabled()) trace::reset();
}

void trace_section_end(const std::string& label,
                       const std::string& json_path) {
  if (!trace::enabled()) return;
  // Drain first: wraparound drops are tallied when the rings are read.
  const std::vector<trace::Event> events = trace::drain();
  const std::uint64_t dropped = trace::dropped();
  std::string exported;
  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::binary);
    os << trace::to_chrome_json(events);
    exported = os.good() ? ", exported " + json_path
                         : ", EXPORT FAILED " + json_path;
  }
  std::printf("[trace] %s: %zu spans, %llu dropped%s\n", label.c_str(),
              events.size(), static_cast<unsigned long long>(dropped),
              exported.c_str());
}

std::string cell(const std::vector<double>& values, int precision) {
  return metrics::fmt_mean_std(metrics::mean_std(values), precision);
}

bool JsonReport::wants_json(int argc, char** argv, std::string* path) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      if (path != nullptr) path->clear();
      return true;
    }
    if (a.rfind("--json=", 0) == 0) {
      if (path != nullptr) *path = a.substr(7);
      return true;
    }
  }
  return false;
}

void JsonReport::section(const std::string& name) {
  sections_.push_back({name, {}});
}

void JsonReport::kv(const std::string& key, double value) {
  if (sections_.empty()) section("default");
  Entry e;
  e.key = key;
  e.is_num = true;
  e.num = value;
  sections_.back().entries.push_back(std::move(e));
}

void JsonReport::kv(const std::string& key, const std::string& value) {
  if (sections_.empty()) section("default");
  Entry e;
  e.key = key;
  e.str = value;
  sections_.back().entries.push_back(std::move(e));
}

std::string JsonReport::to_json(const std::string& bench_name) const {
  std::string out = "{\"bench\":\"";
  trace::json_escape(out, bench_name.c_str());
  out += "\",\"sections\":[";
  char buf[64];
  for (size_t s = 0; s < sections_.size(); ++s) {
    if (s != 0) out += ',';
    out += "{\"name\":\"";
    trace::json_escape(out, sections_[s].name.c_str());
    out += "\",\"values\":{";
    const auto& entries = sections_[s].entries;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      trace::json_escape(out, entries[i].key.c_str());
      out += "\":";
      if (entries[i].is_num) {
        // %.12g round-trips the doubles benches report while staying
        // byte-stable for equal inputs.
        std::snprintf(buf, sizeof(buf), "%.12g", entries[i].num);
        out += buf;
      } else {
        out += '"';
        trace::json_escape(out, entries[i].str.c_str());
        out += '"';
      }
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

bool JsonReport::emit(const std::string& bench_name,
                      const std::string& path) const {
  const std::string json = to_json(bench_name);
  if (path.empty() || path == "-") {
    std::fputs(json.c_str(), stdout);
    return true;
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(json.data(), static_cast<std::streamsize>(json.size()));
  return os.good();
}

}  // namespace bench
