// Figure 4: distributed training -- per-epoch breakdown, end-to-end
// convergence, and DDP-style scalability.
//  (a) ResNet-50-class on ImageNet-like, 16 nodes: vanilla / Pufferfish /
//      SIGNUM  (paper: Pufferfish 1.35x / 1.28x per-epoch speedups).
//  (b) ResNet-18-class on CIFAR-like, 8 nodes: + PowerSGD rank 2
//      (paper: 1.33x / 1.67x / 1.92x vs PowerSGD / SIGNUM / vanilla;
//      PowerSGD has the smallest COMM but pays encode/decode).
//  (c) DDP bucketed-overlap scalability over 2/4/8/16 nodes
//      (paper: 1.52x per-epoch at 16 nodes, 1.64x end-to-end at 8).
//
// Every arm runs on the one data-parallel executor
// (runtime::ShmDataParallelTrainer, one thread per node) and the tables
// print each epoch's priced breakdown: compute on each worker thread's CPU
// clock, encode/decode measured, communication from the alpha-beta ring
// model over the REAL payload bytes. Section (d) sets that priced view next
// to the same epoch's measured wall-clock. A final paper-scale projection
// re-runs the comm model with the full-size models' exact byte counts.
#include "common.h"

#include "dist/cluster.h"

using namespace bench;

namespace {

struct ArmResult {
  std::string name;
  dist::EpochBreakdown breakdown;  // last epoch, priced
  std::vector<dist::DistEpochRecord> records;
};

// Runs `epochs` of distributed training; if `hybrid_factory` is set, runs
// Algorithm 1: warm-up epochs on the vanilla model, then switch to the
// warm-started hybrid.
ArmResult run_arm(const std::string& name,
                  const core::VisionModelFactory& vanilla_factory,
                  const core::VisionModelFactory& hybrid_factory,
                  std::unique_ptr<compress::Reducer> reducer,
                  std::unique_ptr<compress::Reducer> post_switch_reducer,
                  const data::SyntheticImages& ds, int nodes,
                  dist::DistTrainConfig cfg, int warmup_epochs) {
  runtime::ShmDataParallelTrainer trainer =
      make_cluster(vanilla_factory, std::move(reducer), nodes, cfg);
  ArmResult out;
  out.name = name;
  for (int e = 0; e < cfg.epochs; ++e) {
    if (hybrid_factory && e == warmup_epochs)
      trainer.replace_model(hybrid_factory, warm_start_with(17),
                            std::move(post_switch_reducer));
    out.records.push_back(trainer.train_epoch(ds, e));
  }
  out.breakdown = out.records.back().priced;
  return out;
}

void print_breakdown(const std::vector<ArmResult>& arms) {
  metrics::Table t({"method", "comp (s)", "encode (s)", "comm (s)",
                    "decode (s)", "epoch total (s)", "payload/worker"});
  for (const ArmResult& a : arms) {
    const dist::EpochBreakdown& b = a.breakdown;
    t.add_row({a.name, metrics::fmt(b.compute_s, 3),
               metrics::fmt(b.encode_s, 3), metrics::fmt(b.comm_s, 3),
               metrics::fmt(b.decode_s, 3), metrics::fmt(b.total(), 3),
               metrics::fmt_bytes(b.bytes_per_worker)});
  }
  t.print();
}

void print_convergence(const std::vector<ArmResult>& arms) {
  metrics::Table t({"method", "final acc (%)", "priced wall-clock (s)"});
  for (const ArmResult& a : arms) {
    double priced_s = 0;
    for (const dist::DistEpochRecord& r : a.records)
      priced_s += r.priced.total();
    t.add_row({a.name, metrics::fmt(100 * a.records.back().test_acc, 1),
               metrics::fmt(priced_s, 2)});
  }
  t.print();
}

}  // namespace

int main() {
  banner("Figure 4: distributed breakdown, convergence, DDP scalability",
         "Pufferfish Figure 4 (Section 4.2)",
         "16x p3.2xlarge + NCCL -> N worker threads priced on the "
         "alpha-beta ring model @10 Gbps; real grads/payloads, per-thread "
         "CPU compute");

  // ---- (a) ResNet-50-class, 16 nodes. ----
  {
    std::printf("(a) ResNet-50-class on ImageNet-like, 16 nodes, global "
                "batch 64:\n");
    data::SyntheticImages ds = imagenet_like(128, 64);
    const int nodes = 16;
    dist::DistTrainConfig cfg;
    cfg.epochs = 8;
    cfg.global_batch = 64;
    cfg.lr = 0.05f;
    cfg.lr_milestones = {6};

    std::vector<ArmResult> arms;
    arms.push_back(run_arm("vanilla SGD", make_resnet50(0.125, false),
                           nullptr,
                           std::make_unique<compress::AllreduceReducer>(),
                           nullptr, ds, nodes, cfg, 0));
    arms.push_back(run_arm("Pufferfish", make_resnet50(0.125, false),
                           make_resnet50(0.125, true),
                           std::make_unique<compress::AllreduceReducer>(),
                           std::make_unique<compress::AllreduceReducer>(),
                           ds, nodes, cfg, 1));
    {
      dist::DistTrainConfig scfg = cfg;
      scfg.lr = 0.005f;  // sign updates need a small step
      scfg.momentum = 0.0f;
      arms.push_back(run_arm("SIGNUM", make_resnet50(0.125, false), nullptr,
                             std::make_unique<compress::SignumReducer>(),
                             nullptr, ds, nodes, scfg, 0));
    }
    print_breakdown(arms);
    std::printf("paper: Pufferfish per-epoch 1.35x vs vanilla, 1.28x vs "
                "SIGNUM; ours: %.2fx vs vanilla, %.2fx vs SIGNUM\n",
                arms[0].breakdown.total() / arms[1].breakdown.total(),
                arms[2].breakdown.total() / arms[1].breakdown.total());
    std::printf("\nend-to-end (%d epochs incl. warm-up + SVD):\n",
                cfg.epochs);
    print_convergence(arms);
    std::printf("\n");
  }

  // ---- (b) ResNet-18-class, 8 nodes, large batch + lr warm-up. ----
  {
    std::printf("(b) ResNet-18-class on CIFAR-like, 8 nodes, global batch "
                "64, linear lr warm-up:\n");
    data::SyntheticImages ds = cifar_like(10, 16, 192, 96);
    const int nodes = 8;
    dist::DistTrainConfig cfg;
    cfg.epochs = 6;
    cfg.global_batch = 64;
    cfg.lr = 0.08f;
    cfg.lr_warmup_epochs = 2;
    cfg.lr_warmup_start = 0.02f;
    cfg.lr_milestones = {4};

    std::vector<ArmResult> arms;
    arms.push_back(run_arm("vanilla SGD", make_resnet18(0.125, 0), nullptr,
                           std::make_unique<compress::AllreduceReducer>(),
                           nullptr, ds, nodes, cfg, 0));
    arms.push_back(run_arm("Pufferfish", make_resnet18(0.125, 0),
                           make_resnet18(0.125, 2),
                           std::make_unique<compress::AllreduceReducer>(),
                           std::make_unique<compress::AllreduceReducer>(),
                           ds, nodes, cfg, 2));
    // Paper detail: Pufferfish's own warm-up phase can itself run over
    // PowerSGD rank 4 for extra comm savings (Section 4.2).
    arms.push_back(run_arm("Pufferfish (PowerSGD r4 warm-up)",
                           make_resnet18(0.125, 0), make_resnet18(0.125, 2),
                           std::make_unique<compress::PowerSgdReducer>(4, 3),
                           std::make_unique<compress::AllreduceReducer>(),
                           ds, nodes, cfg, 2));
    arms.push_back(run_arm("PowerSGD (rank 2)", make_resnet18(0.125, 0),
                           nullptr,
                           std::make_unique<compress::PowerSgdReducer>(2, 3),
                           nullptr, ds, nodes, cfg, 0));
    {
      dist::DistTrainConfig scfg = cfg;
      scfg.lr = 0.008f;
      scfg.momentum = 0.0f;
      arms.push_back(run_arm("SIGNUM", make_resnet18(0.125, 0), nullptr,
                             std::make_unique<compress::SignumReducer>(),
                             nullptr, ds, nodes, scfg, 0));
    }
    print_breakdown(arms);
    std::printf("paper: Pufferfish per-epoch 1.33x vs PowerSGD, 1.67x vs "
                "SIGNUM, 1.92x vs vanilla; ours: %.2fx / %.2fx / %.2fx\n",
                arms[3].breakdown.total() / arms[1].breakdown.total(),
                arms[4].breakdown.total() / arms[1].breakdown.total(),
                arms[0].breakdown.total() / arms[1].breakdown.total());
    std::printf("\nend-to-end:\n");
    print_convergence(arms);
    std::printf("\n");
  }

  // ---- (c) DDP scalability: paper-scale projection over 2..16 nodes. ----
  {
    std::printf("(c) DDP (bucketed-overlap) per-epoch scalability, "
                "ResNet-50 at PAPER scale (projected):\n");
    // Assumptions (documented in EXPERIMENTS.md): V100 effective training
    // throughput ~10 TFLOP/s; fwd+bwd ~ 3x fwd MACs x 2 FLOP/MAC; per-node
    // batch fixed at 32 (the paper's Fig 4(c) setup); ImageNet epoch =
    // 1,281,167 images; gradients = fp32 params; 25 MB DDP buckets;
    // ring allreduce @10 Gbps.
    Rng rng(19);
    models::ResNet50 rv(models::ResNetImageNetConfig::resnet50_vanilla(),
                        rng);
    models::ResNet50 rp(models::ResNetImageNetConfig::resnet50_pufferfish(),
                        rng);
    const double flops_v = 3.0 * 2.0 * rv.forward_macs(224, 224);
    const double flops_p = 3.0 * 2.0 * rp.forward_macs(224, 224);
    const double v100 = 10e12;
    const int64_t bytes_v = rv.num_params() * 4;
    const int64_t bytes_p = rp.num_params() * 4;
    const int64_t per_node_batch = 32;
    const double images = 1281167.0;

    metrics::Table t({"nodes", "vanilla epoch (s)", "Pufferfish epoch (s)",
                      "speedup", "paper speedup @16: 1.52x"});
    const dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
    for (int nodes : {2, 4, 8, 16}) {
      const double steps = images / (per_node_batch * nodes);
      const double step_v = dist::overlap_epoch_seconds(
          flops_v * per_node_batch / v100, bytes_v, nodes, hw);
      const double step_p = dist::overlap_epoch_seconds(
          flops_p * per_node_batch / v100, bytes_p, nodes, hw);
      t.add_row({std::to_string(nodes), metrics::fmt(steps * step_v, 1),
                 metrics::fmt(steps * step_p, 1),
                 metrics::fmt_ratio(step_v / step_p), ""});
    }
    t.print();
    std::printf(
        "claim: the speedup grows with the cluster because communication "
        "(which Pufferfish cuts 1.68x) becomes a larger share of the step "
        "as nodes increase; the paper measures 1.52x at 16 nodes.\n");
  }

  // ---- (d) measured vs priced: one executor run, two views. ----
  {
    std::printf("\n(d) measured vs priced, ResNet-18-class, 4 workers "
                "(shared-memory threads; priced on the alpha-beta model):\n");
    data::SyntheticImages ds = cifar_like(10, 16, 128, 64);
    dist::DistTrainConfig cfg;
    cfg.epochs = 2;
    cfg.global_batch = 32;
    cfg.lr = 0.05f;

    std::vector<std::string> names;
    std::vector<dist::DistEpochRecord> recs;
    for (int factorized = 0; factorized < 2; ++factorized) {
      names.push_back(factorized ? "Pufferfish (hybrid)" : "vanilla");
      runtime::ShmDataParallelTrainer shm = make_cluster(
          make_resnet18(0.125, factorized ? 2 : 0),
          std::make_unique<compress::AllreduceReducer>(), /*workers=*/4, cfg);
      recs.push_back(shm.train(ds).back());
    }
    metrics::Table t({"model", "comp priced/meas (s)", "comm priced/meas (s)",
                      "total priced/meas (s)", "payload/worker"});
    for (size_t i = 0; i < recs.size(); ++i) {
      const dist::EpochBreakdown& p = recs[i].priced;
      const dist::EpochBreakdown& m = recs[i].breakdown;
      t.add_row({names[i],
                 metrics::fmt(p.compute_s, 3) + " / " +
                     metrics::fmt(m.compute_s, 3),
                 metrics::fmt(p.comm_s, 3) + " / " + metrics::fmt(m.comm_s, 3),
                 metrics::fmt(p.total(), 3) + " / " +
                     metrics::fmt(m.total(), 3),
                 metrics::fmt_bytes(m.bytes_per_worker)});
    }
    t.print();
    std::printf(
        "claim: one run, two views of the same gradients on the same shards: "
        "the factorized/vanilla compute ratio is priced %.2f (thread CPU "
        "time) vs measured %.2f (wall-clock, inflated when workers share "
        "cores); the comm columns contrast a 10 Gbps ring model with "
        "in-memory aggregation -- the factorized model still shrinks the "
        "real payload %.2fx.\n",
        recs[1].priced.compute_s / recs[0].priced.compute_s,
        recs[1].breakdown.compute_s / recs[0].breakdown.compute_s,
        static_cast<double>(recs[0].breakdown.bytes_per_worker) /
            static_cast<double>(recs[1].breakdown.bytes_per_worker));
  }

  // ---- paper-scale comm projection. ----
  {
    std::printf("\npaper-scale projection (exact full-size models, ring "
                "allreduce @10 Gbps, 16 nodes):\n");
    Rng rng(1);
    models::ResNet50 rv(models::ResNetImageNetConfig::resnet50_vanilla(), rng);
    models::ResNet50 rp(models::ResNetImageNetConfig::resnet50_pufferfish(),
                        rng);
    const dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();
    // One flat-buffer allreduce, or `calls` per-layer allreduces.
    auto allreduce_s = [&](int64_t bytes, int calls) {
      return dist::collective_seconds(dist::Coll::kAllreduce, bytes, 16, hw,
                                      calls);
    };
    const int64_t bv = rv.num_params() * 4, bp = rp.num_params() * 4;
    metrics::Table t({"model", "gradient size", "allreduce/step (ms)",
                      "unpacked (per-layer calls) (ms)"});
    const int n_layers_v = 161, n_layers_p = 188;  // approx param tensors
    t.add_row({"vanilla ResNet-50", metrics::fmt_bytes(bv),
               metrics::fmt(1e3 * allreduce_s(bv, 1), 2),
               metrics::fmt(1e3 * allreduce_s(bv, n_layers_v), 2)});
    t.add_row({"Pufferfish ResNet-50", metrics::fmt_bytes(bp),
               metrics::fmt(1e3 * allreduce_s(bp, 1), 2),
               metrics::fmt(1e3 * allreduce_s(bp, n_layers_p), 2)});
    t.print();
    std::printf(
        "claim: Pufferfish cuts per-step allreduce ~%.2fx at paper scale; "
        "the flat-buffer packing (1 call vs per-layer calls) saves the "
        "latency term the paper's Section 4.1 optimization targets.\n",
        allreduce_s(bv, 1) / allreduce_s(bp, 1));
  }
  return 0;
}
