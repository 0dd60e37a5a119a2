// Distributed data-parallel training on the shared-memory executor:
// vanilla SGD vs Pufferfish vs SIGNUM vs PowerSGD with 16 worker threads,
// reporting the per-epoch compute/encode/communicate/decode breakdown the
// paper's Figure 4 charts, priced on the paper's 16-node 10 Gbps cluster.
//
// Build & run:  ./build/examples/distributed_lowrank
#include <cstdio>

#include "metrics/metrics.h"
#include "models/resnet.h"
#include "runtime/shm_cluster.h"

using namespace pf;

namespace {

core::VisionModelFactory make_model(bool pufferfish) {
  return [pufferfish](Rng& rng) -> std::unique_ptr<nn::UnaryModule> {
    models::ResNetCifarConfig cfg =
        pufferfish ? models::ResNetCifarConfig::pufferfish()
                   : models::ResNetCifarConfig::vanilla();
    cfg.width_mult = 0.125;
    cfg.num_classes = 8;
    return std::make_unique<models::ResNet18Cifar>(cfg, rng);
  };
}

}  // namespace

int main() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 8;
  dc.hw = 16;
  dc.train_size = 128;
  dc.test_size = 64;
  data::SyntheticImages dataset(dc);

  runtime::ShmClusterConfig cfg;
  cfg.workers = 16;  // p3.2xlarge-style cluster, 10 Gbps links
  cfg.train.epochs = 2;
  cfg.train.global_batch = 64;
  cfg.train.lr = 0.05f;

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
  std::printf("== 16 workers priced on a 16-node cluster, per-epoch "
              "breakdown ==\n");
  std::printf("(compute: per-worker thread CPU; encode/decode: measured; "
              "comm: alpha-beta ring model @10 Gbps)\n\n");
  for (Arm& arm : arms) {
    runtime::ShmDataParallelTrainer trainer(make_model(arm.pufferfish),
                                            std::move(arm.reducer), cfg);
    dist::DistEpochRecord rec = trainer.train_epoch(dataset, 0);
    const dist::EpochBreakdown& b = rec.priced;
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
