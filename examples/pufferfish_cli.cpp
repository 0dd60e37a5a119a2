// pufferfish_cli: a small command-line front end over the library, the way
// a downstream user would actually drive it.
//
//   pufferfish_cli train  --model resnet18 --rank-ratio 0.25
//                         --epochs 8 --warmup 2 --width 0.125
//                         --checkpoint out.ckpt
//   pufferfish_cli eval   --model resnet18 --width 0.125
//                         --rank-ratio 0.25 --checkpoint out.ckpt
//   pufferfish_cli inspect --model vgg19          (params/MACs, paper scale)
//   pufferfish_cli plan   --model resnet18 --floor 0.96 --profile 10g
//                                          (cost-model auto-tuner, src/plan)
//
// Models: vgg19 | resnet18 | resnet50 | wrn50. `--rank-ratio 0` trains the
// vanilla model; anything in (0, 1] runs the full Pufferfish pipeline
// (Algorithm 1) with the hybrid configuration from the paper, and a ratio
// outside [0, 1] is an error.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "core/trainer.h"
#include "metrics/metrics.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "nn/serialize.h"
#include "plan/calibrate.h"
#include "plan/planner.h"
#include "runtime/thread_pool.h"

using namespace pf;

namespace {

// Flag values are parsed strictly: the whole value must be a number (a
// finite double, or an integer in int range) and within the flag's range,
// else the command fails with "error: --<flag> ...".
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = flags.find(key);
    return it == flags.end() ? dflt : it->second;
  }
  [[noreturn]] void bad(const std::string& key, const std::string& what) const {
    throw std::runtime_error("--" + key + " " + what + ", got '" +
                             get(key, "") + "'");
  }
  double get_d(const std::string& key, double dflt) const {
    auto it = flags.find(key);
    if (it == flags.end()) return dflt;
    const char* s = it->second.c_str();
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v))
      bad(key, "must be a finite number");
    return v;
  }
  int get_i(const std::string& key, int dflt,
            int min = std::numeric_limits<int>::min()) const {
    auto it = flags.find(key);
    if (it == flags.end()) return dflt;
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE ||
        v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
      bad(key, "must be an integer");
    if (v < min) bad(key, "must be >= " + std::to_string(min));
    return static_cast<int>(v);
  }
};

// --rank-ratio is the fraction of each layer's full rank a hybrid keeps;
// 0 trains the vanilla model.
double rank_ratio(const Args& a) {
  const double r = a.get_d("rank-ratio", 0.25);
  if (!(r >= 0 && r <= 1)) a.bad("rank-ratio", "must be in [0, 1]");
  return r;
}

// --width multiplies every layer's channel count.
double width(const Args& a, double dflt) {
  const double w = a.get_d("width", dflt);
  if (!(w > 0)) a.bad("width", "must be > 0");
  return w;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    if (i + 1 == argc) throw std::runtime_error("--" + key + " needs a value");
    a.flags[key] = argv[i + 1];
  }
  return a;
}

int usage() {
  std::printf(
      "usage:\n"
      "  pufferfish_cli train   --model <vgg19|resnet18|resnet50|wrn50>\n"
      "                         [--rank-ratio R=0.25] [--epochs N=8]\n"
      "                         [--warmup N=2] [--width W=0.125]\n"
      "                         [--classes C=10] [--seed S=0]\n"
      "                         [--threads T=PF_THREADS] [--checkpoint PATH]\n"
      "  pufferfish_cli eval    --model M --checkpoint PATH [--width W]\n"
      "                         [--rank-ratio R] [--classes C]\n"
      "  pufferfish_cli inspect --model M   (paper-scale params & MACs)\n"
      "  pufferfish_cli plan    --model M [--floor A=0.96] [--width W=1.0]\n"
      "                         [--profile 10g|100g|1g|calibrated]\n"
      "                         [--workers P] [--batch B=32] [--epochs N=8]\n"
      "                         [--classes C=10] [--top N=8]\n"
      "                         [--input-hw H=32; calibrated: 16, vgg19 32]\n"
      "                         [--images I=50000 training images/epoch]\n"
      "          picks (rank ratio, hybrid-K, warm-up, bucket, workers,\n"
      "          reducer) minimizing modeled time-to-accuracy; 'calibrated'\n"
      "          measures this machine's step and ring time first\n");
  return 2;
}

// Builds a model factory for (model, width, classes, rank_ratio>0?hybrid).
core::VisionModelFactory make_factory(const std::string& model, double width,
                                      int64_t classes, double rank_ratio) {
  const bool hybrid = rank_ratio > 0;
  if (model == "vgg19") {
    return [=](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
      models::VggConfig cfg;
      cfg.width_mult = width;
      cfg.num_classes = classes;
      if (hybrid) {
        cfg.k_first_lowrank = 10;
        cfg.rank_ratio = rank_ratio;
      }
      return std::make_unique<models::Vgg19>(cfg, rng);
    };
  }
  if (model == "resnet18") {
    return [=](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
      models::ResNetCifarConfig cfg;
      cfg.width_mult = width;
      cfg.num_classes = classes;
      if (hybrid) {
        cfg.first_lowrank_block = 2;
        cfg.rank_ratio = rank_ratio;
      }
      return std::make_unique<models::ResNet18Cifar>(cfg, rng);
    };
  }
  if (model == "resnet50" || model == "wrn50") {
    return [=](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
      models::ResNetImageNetConfig cfg;
      cfg.width_mult = width;
      cfg.num_classes = classes;
      cfg.wide = model == "wrn50";
      if (hybrid) {
        cfg.factorize_stage4 = true;
        cfg.rank_ratio = rank_ratio;
      }
      cfg.input_hw = 32;
      return std::make_unique<models::ResNet50>(cfg, rng);
    };
  }
  return nullptr;
}

data::SyntheticImages make_data(int64_t classes, int64_t hw) {
  data::SyntheticImages::Config dc;
  dc.num_classes = classes;
  dc.hw = hw;
  dc.train_size = 160;
  dc.test_size = 80;
  return data::SyntheticImages(dc);
}

int cmd_train(const Args& a) {
  const std::string model = a.get("model", "resnet18");
  const double w = width(a, 0.125);
  const double ratio = rank_ratio(a);
  const int64_t classes = a.get_i("classes", 10, 1);
  const int64_t hw = model == "vgg19" ? 32 : 16;

  core::VisionModelFactory vanilla = make_factory(model, w, classes, 0);
  core::VisionModelFactory hybrid =
      ratio > 0 ? make_factory(model, w, classes, ratio)
                : core::VisionModelFactory{};
  if (!vanilla) return usage();

  core::VisionTrainConfig cfg;
  cfg.epochs = a.get_i("epochs", 8, 1);
  cfg.warmup_epochs = a.get_i("warmup", 2, 0);
  cfg.batch = a.get_i("batch", 32, 1);
  cfg.lr = static_cast<float>(a.get_d("lr", 0.05));
  cfg.lr_milestones = {(3 * cfg.epochs) / 4};
  cfg.seed = static_cast<uint64_t>(a.get_i("seed", 0));
  cfg.threads = a.get_i("threads", 0, 0);  // 0 = PF_THREADS env default
  if (cfg.threads > 0) runtime::set_threads(cfg.threads);

  data::SyntheticImages ds = make_data(classes, hw);
  std::printf(
      "training %s (width %.3f, rank ratio %.3f) for %d epochs on %d "
      "thread(s)...\n",
      model.c_str(), w, ratio, cfg.epochs, runtime::threads());
  core::VisionResult r = core::train_vision(vanilla, hybrid, ds, cfg);
  for (const core::EpochRecord& e : r.epochs)
    std::printf("  epoch %2d [%s] loss %.3f acc %.1f%% (%.1fs)\n", e.epoch,
                e.low_rank_phase ? "low-rank" : "vanilla ", e.train_loss,
                100 * e.test_acc, e.seconds);
  std::printf("final acc %.2f%%, %s params, SVD %.3fs\n", 100 * r.final_acc,
              metrics::fmt_int(r.params).c_str(), r.svd_seconds);

  const std::string ckpt = a.get("checkpoint", "");
  if (!ckpt.empty()) {
    // Re-train the final model once more to hold an instance we can save:
    // train_vision owns its model, so the CLI keeps its own copy by
    // rebuilding and warm-starting from scratch at the same seed.
    Rng rng(cfg.seed * 0x9E3779B9u + 17);
    auto final_model = (ratio > 0 ? hybrid : vanilla)(rng);
    std::printf("note: --checkpoint stores the architecture-matched "
                "initialization; integrate save into your training loop "
                "for trained weights (see examples/quickstart.cpp).\n");
    nn::save_checkpoint(*final_model, ckpt);
    std::printf("wrote %s\n", ckpt.c_str());
  }
  return 0;
}

int cmd_eval(const Args& a) {
  const std::string model = a.get("model", "resnet18");
  const double w = width(a, 0.125);
  const double ratio = rank_ratio(a);
  const int64_t classes = a.get_i("classes", 10, 1);
  const std::string ckpt = a.get("checkpoint", "");
  if (ckpt.empty()) return usage();
  const int64_t hw = model == "vgg19" ? 32 : 16;

  core::VisionModelFactory factory = make_factory(model, w, classes, ratio);
  if (!factory) return usage();
  Rng rng(1);
  auto m = factory(rng);
  nn::load_checkpoint(*m, ckpt);
  data::SyntheticImages ds = make_data(classes, hw);
  core::EvalResult ev = core::evaluate_vision(*m, ds, 32);
  std::printf("%s: top-1 %.2f%%, top-5 %.2f%%, loss %.4f (%s params)\n",
              model.c_str(), 100 * ev.acc, 100 * ev.top5, ev.loss,
              metrics::fmt_int(m->num_params()).c_str());
  return 0;
}

int cmd_inspect(const Args& a) {
  const std::string model = a.get("model", "resnet18");
  Rng rng(1);
  metrics::Table t({"variant", "# params", "fwd MACs (G)"});
  if (model == "vgg19") {
    models::Vgg19 v(models::VggConfig::vanilla(), rng);
    models::Vgg19 p(models::VggConfig::pufferfish(10), rng);
    t.add_row({"vanilla", metrics::fmt_int(v.num_params()),
               metrics::fmt(v.forward_macs(32, 32) / 1e9, 3)});
    t.add_row({"pufferfish", metrics::fmt_int(p.num_params()),
               metrics::fmt(p.forward_macs(32, 32) / 1e9, 3)});
  } else if (model == "resnet18") {
    models::ResNet18Cifar v(models::ResNetCifarConfig::vanilla(), rng);
    models::ResNet18Cifar p(models::ResNetCifarConfig::pufferfish(), rng);
    t.add_row({"vanilla", metrics::fmt_int(v.num_params()),
               metrics::fmt(v.forward_macs(32, 32) / 1e9, 3)});
    t.add_row({"pufferfish", metrics::fmt_int(p.num_params()),
               metrics::fmt(p.forward_macs(32, 32) / 1e9, 3)});
  } else if (model == "resnet50" || model == "wrn50") {
    const bool wide = model == "wrn50";
    auto vc = wide ? models::ResNetImageNetConfig::wrn50_vanilla()
                   : models::ResNetImageNetConfig::resnet50_vanilla();
    auto pc = wide ? models::ResNetImageNetConfig::wrn50_pufferfish()
                   : models::ResNetImageNetConfig::resnet50_pufferfish();
    models::ResNet50 v(vc, rng);
    models::ResNet50 p(pc, rng);
    t.add_row({"vanilla", metrics::fmt_int(v.num_params()),
               metrics::fmt(v.forward_macs(224, 224) / 1e9, 3)});
    t.add_row({"pufferfish", metrics::fmt_int(p.num_params()),
               metrics::fmt(p.forward_macs(224, 224) / 1e9, 3)});
  } else {
    return usage();
  }
  t.print();
  return 0;
}

int cmd_plan(const Args& a) {
  plan::PlannerRequest req;
  req.model = a.get("model", "resnet18");
  req.width = width(a, 1.0);
  req.classes = a.get_i("classes", 10, 1);
  req.input_hw = a.get_i("input-hw", 32, 1);
  req.per_worker_batch = a.get_i("batch", 32, 1);
  req.epochs = a.get_i("epochs", 8, 1);
  req.images_per_epoch = a.get_d("images", 50000);
  req.accuracy_floor = a.get_d("floor", 0.96);

  const std::string profile = a.get("profile", "10g");
  if (profile == "10g") {
    req.hw = dist::HardwareProfile::cloud_10g();
  } else if (profile == "100g") {
    req.hw = dist::HardwareProfile::rdma_100g();
  } else if (profile == "1g") {
    req.hw = dist::HardwareProfile::commodity_1g();
  } else if (profile == "calibrated") {
    // Measure this machine: the trainer's shm ring for alpha/beta, the GEMM
    // kernel for flops, one real training step for compute. Plans from a
    // calibrated profile describe THIS host, not the EC2 presets.
    // The step runs first: an input too small for the model throws before
    // the ring calibration spends its time.
    const int cal_workers = a.get_i("workers", 4);
    const int64_t step_hw = req.model == "vgg19" ? 32 : 16;
    req.input_hw = a.get_i("input-hw", static_cast<int>(step_hw), 1);
    req.measured_step_seconds = plan::measure_step_seconds(
        plan::vision_factory(req.model, req.width, req.classes, 1.0, 0),
        req.per_worker_batch, req.input_hw, 3);
    std::printf("calibrating (p=%d)...\n", cal_workers);
    req.hw = plan::calibrated_profile(cal_workers, 3);
    req.overlap = false;  // the shm executor reduces synchronously
    req.workers = {cal_workers};
    std::printf(
        "calibrated: alpha=%.3g s B=%.3g GB/s gemm=%.2f GFLOP/s "
        "step=%.4f s\n",
        req.hw.alpha_s, req.hw.bandwidth_bytes_per_s / 1e9,
        req.hw.flops_per_s / 1e9, req.measured_step_seconds);
  } else {
    return usage();
  }
  if (a.flags.count("workers") != 0u)
    req.workers = {a.get_i("workers", 16)};

  const plan::Plan p = plan::make_plan(req);
  std::printf("%s", p.summary(a.get_i("top", 8)).c_str());
  return p.has_feasible() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "train") return cmd_train(a);
    if (a.command == "eval") return cmd_eval(a);
    if (a.command == "inspect") return cmd_inspect(a);
    if (a.command == "plan") return cmd_plan(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
