// Appendix E, Figure 6: combining Pufferfish with PowerSGD.
//
// Pufferfish shrinks the model; PowerSGD then compresses the (already
// smaller) gradient further. The paper runs "Pufferfish + PowerSGD rank 4"
// with lr re-warm-up at the model switch and finds it matches PowerSGD's
// communication while keeping Pufferfish's cheap compute -- at the price of
// extra encode/decode on every (U, V) layer pair.
#include "common.h"

#include "dist/cluster.h"

using namespace bench;

int main() {
  banner("Figure 6 (appendix E): Pufferfish + PowerSGD",
         "Pufferfish Figure 6",
         "ResNet-18/CIFAR-10, 8 nodes -> scaled model on CIFAR-like task");

  data::SyntheticImages ds = cifar_like(10, 16, 192, 96);
  const int nodes = 8;
  dist::DistTrainConfig cfg;
  cfg.epochs = 9;
  cfg.global_batch = 64;
  cfg.lr = 0.08f;
  cfg.lr_warmup_epochs = 2;  // the large-batch lr re-warm-up recipe
  cfg.lr_warmup_start = 0.02f;
  cfg.lr_milestones = {7};
  const int kSwitch = 2;

  struct Arm {
    std::string name;
    bool pufferfish;
    std::function<std::unique_ptr<compress::Reducer>()> reducer;
  };
  const std::vector<Arm> arms = {
      {"vanilla SGD", false,
       [] { return std::make_unique<compress::AllreduceReducer>(); }},
      {"Pufferfish", true,
       [] { return std::make_unique<compress::AllreduceReducer>(); }},
      {"PowerSGD (rank 2)", false,
       [] { return std::make_unique<compress::PowerSgdReducer>(2, 5); }},
      {"Pufferfish + PowerSGD (rank 4)", true,
       [] { return std::make_unique<compress::PowerSgdReducer>(4, 5); }},
      {"SIGNUM", false,
       [] { return std::make_unique<compress::SignumReducer>(); }},
  };

  metrics::Table bt({"method", "comp (s)", "encode (s)", "comm (s)",
                     "decode (s)", "epoch total (s)", "payload/worker",
                     "final acc (%)"});
  for (const Arm& arm : arms) {
    dist::DistTrainConfig acfg = cfg;
    if (arm.name == "SIGNUM") {
      acfg.lr = 0.008f;
      acfg.momentum = 0.0f;
      acfg.lr_warmup_start = 0.002f;
    }
    runtime::ShmDataParallelTrainer trainer =
        make_cluster(make_resnet18(0.125, 0), arm.reducer(), nodes, acfg);
    dist::DistEpochRecord last;
    for (int e = 0; e < acfg.epochs; ++e) {
      if (arm.pufferfish && e == kSwitch)
        trainer.replace_model(make_resnet18(0.125, 2), warm_start_with(31),
                              arm.reducer());
      last = trainer.train_epoch(ds, e);
    }
    const dist::EpochBreakdown& b = last.priced;
    bt.add_row({arm.name, metrics::fmt(b.compute_s, 3),
                metrics::fmt(b.encode_s, 3), metrics::fmt(b.comm_s, 3),
                metrics::fmt(b.decode_s, 3), metrics::fmt(b.total(), 3),
                metrics::fmt_bytes(b.bytes_per_worker),
                metrics::fmt(100 * last.test_acc, 1)});
  }
  bt.print();

  std::printf(
      "\nClaim checks (paper appendix E): (i) Pufferfish+PowerSGD has the "
      "smallest payload of the Pufferfish arms -- gradients of the smaller "
      "model compressed again; (ii) its encode/decode exceeds plain "
      "PowerSGD's because BOTH U and V layers are encoded per block; "
      "(iii) the combination keeps Pufferfish's reduced compute.\n");
  return 0;
}
