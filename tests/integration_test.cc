// Cross-module integration and property tests:
//  - autograd conv2d against a direct nested-loop reference (TEST_P sweep),
//  - distributed training convergence under every compressor,
//  - the full Pufferfish pipeline (warm-up -> SVD -> fine-tune -> checkpoint
//    -> reload -> evaluate) end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "compress/compressor.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "models/resnet.h"
#include "nn/serialize.h"
#include "runtime/shm_cluster.h"

namespace pf {
namespace {

// ---- conv2d (autograd op) vs direct reference. ----

struct ConvCase {
  int64_t n, c_in, c_out, hw, k, stride, pad;
};

class ConvRefP : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvRefP, ForwardMatchesDirectConvolution) {
  const auto [n, c_in, c_out, hw, k, stride, pad] = GetParam();
  Rng rng(n * 100 + c_in * 10 + k);
  Tensor x = rng.randn(Shape{n, c_in, hw, hw});
  Tensor w = rng.randn(Shape{c_out, c_in, k, k});
  ag::Var y = ag::conv2d(ag::leaf(x), ag::leaf(w), stride, pad);

  const int64_t oh = (hw + 2 * pad - k) / stride + 1;
  ASSERT_EQ(y->shape(), (Shape{n, c_out, oh, oh}));
  for (int64_t img = 0; img < n; ++img)
    for (int64_t co = 0; co < c_out; ++co)
      for (int64_t oy = 0; oy < oh; ++oy)
        for (int64_t ox = 0; ox < oh; ++ox) {
          double acc = 0;
          for (int64_t ci = 0; ci < c_in; ++ci)
            for (int64_t ky = 0; ky < k; ++ky)
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t iy = oy * stride - pad + ky;
                const int64_t ix = ox * stride - pad + kx;
                if (iy < 0 || iy >= hw || ix < 0 || ix >= hw) continue;
                acc += static_cast<double>(
                           x.at({img, ci, iy, ix})) *
                       w.at({co, ci, ky, kx});
              }
          EXPECT_NEAR(y->value.at({img, co, oy, ox}), acc,
                      1e-3 + 1e-3 * std::fabs(acc));
        }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvRefP,
    ::testing::Values(ConvCase{1, 1, 1, 5, 3, 1, 1},
                      ConvCase{2, 3, 4, 6, 3, 1, 1},
                      ConvCase{1, 2, 3, 7, 3, 2, 1},
                      ConvCase{2, 4, 2, 8, 1, 1, 0},
                      ConvCase{1, 2, 2, 9, 5, 2, 2},
                      ConvCase{1, 3, 5, 4, 3, 1, 0}));

// ---- Distributed convergence under each compressor. ----

data::SyntheticImages easy_data() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 64;
  dc.test_size = 32;
  dc.noise = 0.3f;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

std::unique_ptr<nn::UnaryModule> small_resnet(Rng& rng) {
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = 4;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

class ReducerConvergenceP
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ReducerConvergenceP, TrainsAboveChance) {
  const std::string which = GetParam();
  std::unique_ptr<compress::Reducer> reducer;
  float lr = 0.05f;
  float momentum = 0.9f;
  if (which == "allreduce")
    reducer = std::make_unique<compress::AllreduceReducer>();
  if (which == "powersgd")
    reducer = std::make_unique<compress::PowerSgdReducer>(4, 7);
  if (which == "topk")
    reducer = std::make_unique<compress::TopKReducer>(0.05);
  if (which == "binary-quant") {
    // Whole-gradient binary quantization is very coarse: a smaller step
    // plus momentum averages the (zero-mean) quantization noise.
    reducer = std::make_unique<compress::BinaryQuantReducer>(7);
    lr = 0.01f;
  }
  if (which == "signum") {
    reducer = std::make_unique<compress::SignumReducer>();
    lr = 0.005f;  // sign updates are unit-magnitude
    momentum = 0.0f;
  }
  ASSERT_NE(reducer, nullptr);

  auto ds = easy_data();
  dist::DistTrainConfig cfg;
  cfg.epochs = 10;
  cfg.global_batch = 16;
  cfg.lr = lr;
  cfg.momentum = momentum;
  cfg.lr_milestones = {8};
  runtime::ShmClusterConfig scfg;
  scfg.workers = 4;
  scfg.train = cfg;
  runtime::ShmDataParallelTrainer trainer(small_resnet, std::move(reducer),
                                          scfg);
  auto recs = trainer.train(ds);
  EXPECT_GT(recs.back().test_acc, 0.4) << which;  // chance = 0.25
}

INSTANTIATE_TEST_SUITE_P(Compressors, ReducerConvergenceP,
                         ::testing::Values("allreduce", "powersgd", "topk",
                                           "binary-quant", "signum"));

// ---- Full pipeline: Algorithm 1 + checkpoint round trip. ----

TEST(Pipeline, WarmupFactorizeFinetuneCheckpointReload) {
  auto ds = easy_data();
  // width 0.125: at 0.0625 the first stage's factorized blocks collapse to
  // rank 1 and the hybrid cannot learn -- a real pitfall worth documenting.
  auto vanilla = [](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg;
    cfg.width_mult = 0.125;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
  auto hybrid = [](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg = models::ResNetCifarConfig::pufferfish();
    cfg.width_mult = 0.125;
    cfg.num_classes = 4;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };

  core::VisionTrainConfig cfg;
  cfg.epochs = 8;
  cfg.warmup_epochs = 2;
  cfg.batch = 16;
  cfg.lr_milestones = {6};
  core::VisionResult r = core::train_vision(vanilla, hybrid, ds, cfg);
  EXPECT_GT(r.final_acc, 0.4);

  // Train a fresh hybrid the same way, checkpoint, reload elsewhere, and
  // verify evaluation reproduces bit-for-bit.
  Rng rng(1);
  models::ResNetCifarConfig hcfg = models::ResNetCifarConfig::pufferfish();
  hcfg.width_mult = 0.125;
  hcfg.num_classes = 4;
  models::ResNet18Cifar trained(hcfg, rng);
  // (Reuse warm-start machinery to give it meaningful weights quickly.)
  Rng rng2(2);
  models::ResNetCifarConfig vcfg;
  vcfg.width_mult = 0.125;
  vcfg.num_classes = 4;
  models::ResNet18Cifar donor(vcfg, rng2);
  Rng svd_rng(3);
  core::warm_start(donor, trained, svd_rng);

  const std::string path =
      std::string(::testing::TempDir()) + "pipeline_ckpt.bin";
  nn::save_checkpoint(trained, path);
  models::ResNet18Cifar reloaded(hcfg, rng2);
  nn::load_checkpoint(reloaded, path);
  const core::EvalResult e1 = core::evaluate_vision(trained, ds, 16);
  const core::EvalResult e2 = core::evaluate_vision(reloaded, ds, 16);
  EXPECT_DOUBLE_EQ(e1.acc, e2.acc);
  EXPECT_DOUBLE_EQ(e1.loss, e2.loss);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pf
