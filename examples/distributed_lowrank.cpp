// Distributed data-parallel training with the cluster simulator: vanilla
// SGD vs Pufferfish vs SIGNUM vs PowerSGD on a 16-node (simulated) cluster,
// reporting the per-epoch compute/encode/communicate/decode breakdown the
// paper's Figure 4 charts.
//
// Build & run:  ./build/examples/distributed_lowrank
#include <cstdio>

#include "dist/cluster.h"
#include "metrics/metrics.h"
#include "models/resnet.h"

using namespace pf;

namespace {

std::unique_ptr<nn::UnaryModule> make_model(bool pufferfish) {
  Rng rng(7);
  models::ResNetCifarConfig cfg =
      pufferfish ? models::ResNetCifarConfig::pufferfish()
                 : models::ResNetCifarConfig::vanilla();
  cfg.width_mult = 0.125;
  cfg.num_classes = 8;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

}  // namespace

int main() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 8;
  dc.hw = 16;
  dc.train_size = 128;
  dc.test_size = 64;
  data::SyntheticImages dataset(dc);

  const int nodes = 16;  // p3.2xlarge-style cluster, 10 Gbps links

  dist::DistTrainConfig cfg;
  cfg.epochs = 2;
  cfg.global_batch = 64;
  cfg.lr = 0.05f;

  struct Arm {
    const char* name;
    bool pufferfish;
    std::unique_ptr<compress::Reducer> reducer;
  };
  std::vector<Arm> arms;
  arms.push_back({"vanilla SGD (allreduce)", false,
                  std::make_unique<compress::AllreduceReducer>()});
  arms.push_back({"Pufferfish (allreduce)", true,
                  std::make_unique<compress::AllreduceReducer>()});
  arms.push_back({"SIGNUM (allgather)", false,
                  std::make_unique<compress::SignumReducer>()});
  arms.push_back({"PowerSGD rank 2", false,
                  std::make_unique<compress::PowerSgdReducer>(2, 3)});

  metrics::Table table({"method", "comp (s)", "encode (s)", "comm (s)",
                        "decode (s)", "epoch total (s)", "payload/worker"});
  std::printf("== simulated 16-node cluster, per-epoch breakdown ==\n");
  std::printf("(compute/encode/decode: measured CPU; comm: alpha-beta ring"
              " model @10 Gbps)\n\n");
  for (Arm& arm : arms) {
    dist::DataParallelTrainer trainer(make_model(arm.pufferfish),
                                      std::move(arm.reducer), nodes, cfg);
    dist::DistEpochRecord rec = trainer.train_epoch(dataset, 0);
    const dist::EpochBreakdown& b = rec.breakdown;
    table.add_row({arm.name, metrics::fmt(b.compute_s, 3),
                   metrics::fmt(b.encode_s, 3), metrics::fmt(b.comm_s, 3),
                   metrics::fmt(b.decode_s, 3), metrics::fmt(b.total(), 3),
                   metrics::fmt_bytes(b.bytes_per_worker)});
  }
  table.print();
  std::printf(
      "\nPufferfish shrinks BOTH compute and communication without any "
      "per-step encode/decode -- the paper's core claim.\n");
  return 0;
}
