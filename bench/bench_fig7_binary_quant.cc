// Appendix F, Figure 7: why "computationally cheap" gradient quantization
// is slow in practice -- stochastic binary quantization (Suresh et al.) on
// a 16-node cluster.
//
// The paper measures compression at 12.1 s vs DECOMPRESSION at 118.4 s per
// epoch at 16 nodes: the encoding is not allreduce-compatible, so every
// worker allgathers and dequantizes 15 peers' payloads -- decode cost scales
// linearly with the cluster. We reproduce the breakdown and the scaling law.
#include "common.h"

#include "dist/cluster.h"

using namespace bench;

int main() {
  banner("Figure 7 (appendix F): stochastic binary quantization breakdown",
         "Pufferfish Figure 7 + appendix F",
         "ResNet-50/ImageNet, 16 nodes -> scaled model, synthetic task");

  data::SyntheticImages ds = imagenet_like(128, 64);
  dist::DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 64;
  cfg.lr = 0.05f;

  std::printf("per-epoch breakdown at 16 nodes:\n");
  {
    struct Arm {
      std::string name;
      bool pufferfish;
      std::unique_ptr<compress::Reducer> reducer;
    };
    std::vector<Arm> arms;
    arms.push_back({"vanilla SGD", false,
                    std::make_unique<compress::AllreduceReducer>()});
    arms.push_back({"Pufferfish", true,
                    std::make_unique<compress::AllreduceReducer>()});
    arms.push_back({"binary quantization", false,
                    std::make_unique<compress::BinaryQuantReducer>(7)});
    metrics::Table t({"method", "comp (s)", "encode (s)", "comm (s)",
                      "decode (s)", "epoch total (s)"});
    double decode_binary = 0, encode_binary = 0;
    for (Arm& arm : arms) {
      runtime::ShmDataParallelTrainer trainer =
          make_cluster(make_resnet50(0.125, arm.pufferfish),
                       std::move(arm.reducer), /*workers=*/16, cfg);
      dist::DistEpochRecord rec = trainer.train_epoch(ds, 0);
      const dist::EpochBreakdown& b = rec.priced;
      if (arm.name == "binary quantization") {
        decode_binary = b.decode_s;
        encode_binary = b.encode_s;
      }
      t.add_row({arm.name, metrics::fmt(b.compute_s, 3),
                 metrics::fmt(b.encode_s, 3), metrics::fmt(b.comm_s, 3),
                 metrics::fmt(b.decode_s, 3), metrics::fmt(b.total(), 3)});
    }
    t.print();
    std::printf("paper: compress 12.1 s vs decompress 118.4 s (~10x); ours: "
                "decode/encode = %.1fx\n\n",
                decode_binary / std::max(1e-9, encode_binary));
  }

  std::printf("decode cost vs cluster size (the allgather pathology):\n");
  {
    metrics::Table t({"nodes", "decode (s)", "decode per node (s)"});
    double first_decode = 0, last_decode = 0;
    for (int nodes : {2, 4, 8, 16}) {
      runtime::ShmDataParallelTrainer trainer = make_cluster(
          make_resnet50(0.125, false),
          std::make_unique<compress::BinaryQuantReducer>(11), nodes, cfg);
      const dist::EpochBreakdown b = trainer.train_epoch(ds, 0).priced;
      if (nodes == 2) first_decode = b.decode_s;
      last_decode = b.decode_s;
      t.add_row({std::to_string(nodes), metrics::fmt(b.decode_s, 3),
                 metrics::fmt(b.decode_s / nodes, 4)});
    }
    t.print();
    std::printf(
        "claim: per-worker decode time grows ~linearly with cluster size "
        "(each worker dequantizes every peer); 2 -> 16 nodes grew decode "
        "%.1fx here (linear would be 8x). Pufferfish sidesteps the whole "
        "encode/decode stage.\n",
        last_decode / std::max(1e-9, first_decode));
  }
  return 0;
}
