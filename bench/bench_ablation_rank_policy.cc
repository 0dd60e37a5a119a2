// Ablation (beyond the paper's tables): the global rank-ratio knob.
//
// The paper fixes rank ratio = 0.25 everywhere and cites per-layer rank
// allocation as future work. This bench (a) sweeps the global ratio on the
// scaled ResNet-18 to chart the params-vs-accuracy tradeoff around the
// paper's operating point, and (b) reports what fraction of spectral energy
// ratio 0.25 actually retains on warm-up-trained weights, next to the rank
// an energy-90% policy would pick (core::choose_rank_for_energy).
#include "common.h"

#include "core/factorize.h"
#include "optim/optim.h"

using namespace bench;

int main() {
  banner("Ablation: global rank-ratio sweep + energy-based allocation",
         "Pufferfish Section 4.1 (rank-ratio 0.25 choice) + future-work "
         "rank allocation",
         "scaled ResNet-18 on the CIFAR-like task");

  data::SyntheticImages ds = cifar_like(10, 16, 200, 100);

  std::printf("(a) global rank-ratio sweep (hybrid + warm-up, 2 seeds):\n");
  {
    metrics::Table t({"rank ratio", "# params", "vs vanilla",
                      "test acc (%)"});
    Rng ref_rng(1);
    models::ResNetCifarConfig vcfg;
    vcfg.width_mult = 0.125;
    models::ResNet18Cifar vanilla_model(vcfg, ref_rng);
    const int64_t vanilla_params = vanilla_model.num_params();

    for (double ratio : {0.0625, 0.125, 0.25, 0.5}) {
      auto hybrid = [ratio](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
        models::ResNetCifarConfig cfg =
            models::ResNetCifarConfig::pufferfish();
        cfg.width_mult = 0.125;
        cfg.rank_ratio = ratio;
        return std::make_unique<models::ResNet18Cifar>(cfg, rng);
      };
      std::vector<double> accs;
      int64_t params = 0;
      for (uint64_t seed = 0; seed < 2; ++seed) {
        core::VisionResult r = core::train_vision(
            make_resnet18(0.125, 0), hybrid, ds, resnet_recipe(8, 2, seed));
        accs.push_back(100 * r.final_acc);
        params = r.params;
      }
      t.add_row({metrics::fmt(ratio, 4), metrics::fmt_int(params),
                 metrics::fmt(100.0 * params / vanilla_params, 1) + "%",
                 cell(accs)});
    }
    // Vanilla reference row.
    std::vector<double> vaccs;
    for (uint64_t seed = 0; seed < 2; ++seed) {
      core::VisionResult r = core::train_vision(
          make_resnet18(0.125, 0), nullptr, ds, resnet_recipe(8, 2, seed));
      vaccs.push_back(100 * r.final_acc);
    }
    t.add_row({"vanilla", metrics::fmt_int(vanilla_params), "100.0%",
               cell(vaccs)});
    t.print();
    std::printf("claim: accuracy saturates near the paper's 0.25 while "
                "params keep shrinking below it -- 0.25 is a knee point.\n\n");
  }

  std::printf("(b) what the fixed ratio keeps, layer by layer (warm-up "
              "trained weights):\n");
  {
    // Train the vanilla model briefly, then inspect each factorizable
    // conv's spectrum.
    Rng rng(5);
    models::ResNetCifarConfig cfg;
    cfg.width_mult = 0.125;
    models::ResNet18Cifar model(cfg, rng);
    optim::SGD opt(model.parameters(), 0.05f, 0.9f, 1e-4f);
    for (int epoch = 0; epoch < 2; ++epoch)
      for (const data::ImageBatch& b : ds.train_batches(32, epoch)) {
        model.zero_grad();
        ag::Var loss =
            ag::cross_entropy(model.forward(ag::leaf(b.images)), b.labels);
        ag::backward(loss);
        opt.step();
      }

    metrics::Table t({"layer (unrolled shape)", "ratio-0.25 rank",
                      "energy kept by 0.25", "rank for 90% energy"});
    int shown = 0;
    std::function<void(nn::Module&)> walk = [&](nn::Module& m) {
      if (m.type_name() == "Conv2d" && shown < 6) {
        auto& conv = static_cast<nn::Conv2d&>(m);
        const int64_t c_in = conv.c_in(), c_out = conv.c_out(),
                      k = conv.kernel();
        if (c_out < 8) return;
        const Tensor unrolled = core::unroll_conv(conv.weight->value);
        const int64_t r25 = core::ratio_rank(c_in * k * k, c_out, 0.25);
        const double kept = core::retained_energy(unrolled, r25);
        const int64_t r90 = core::choose_rank_for_energy(unrolled, 0.9);
        t.add_row({"conv " + std::to_string(c_in * k * k) + "x" +
                       std::to_string(c_out),
                   std::to_string(r25), metrics::fmt(100 * kept, 1) + "%",
                   std::to_string(r90)});
        ++shown;
      }
      for (nn::Module* c : m.children()) walk(*c);
    };
    walk(model);
    t.print();
    std::printf(
        "observation: early in training the spectra are still flat, so a "
        "fixed ratio keeps well under 90%% energy -- per-layer allocation "
        "(the paper's cited future work) would spend rank where the energy "
        "is. The utilities above make that policy implementable.\n");
  }
  return 0;
}
