// Fault-tolerance bench: what crash-safety actually costs. Three tables:
// (1) snapshot overhead -- atomic weights + TrainState writes and the
// resume load, in ms and bytes, against the epoch they protect; (2) shm
// data-parallel training under injected worker kills and straggler delays,
// showing recovery wall-clock and that the final weights stay bitwise
// identical to the fault-free run; (3) batched serving under injected
// request drops, with and without retry/backoff, showing the completion
// rate recover at a measured latency cost. No paper artifact corresponds
// to this table -- it certifies the repo's own recovery guarantees
// (DESIGN.md section 9) stay cheap enough to leave on.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/checkpoint.h"
#include "fault/fault.h"
#include "optim/optim.h"
#include "runtime/shm_cluster.h"
#include "serve/frozen.h"
#include "serve/server.h"

namespace {

using namespace bench;

constexpr int64_t kFaultHw = 16;

std::string tmp_dir(const char* name) {
  const std::string d =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(d);
  return d;
}

int64_t file_size(const std::string& path) {
  return static_cast<int64_t>(std::filesystem::file_size(path));
}

bool bitwise_equal(const pf::Tensor& a, const pf::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

pf::runtime::ShmClusterConfig cluster_config(int epochs) {
  pf::runtime::ShmClusterConfig scfg;
  scfg.workers = 4;
  scfg.bucket_bytes = 64 << 10;
  scfg.train.epochs = epochs;
  scfg.train.global_batch = 32;
  scfg.train.lr = 0.05f;
  scfg.train.seed = 3;
  return scfg;
}

void snapshot_overhead_table(const pf::data::SyntheticImages& ds) {
  std::printf("\n-- Snapshot overhead (ResNet-18 x0.25, SGD momentum) --\n");
  pf::core::VisionModelFactory factory = make_resnet18(0.25, 0);
  pf::Rng rng(1);
  auto model = factory(rng);
  pf::optim::SGD opt(model->parameters(), 0.05f, 0.9f, 1e-4f);

  // One real epoch so momentum buffers and BN stats are non-trivial, and
  // so the epoch time the snapshot protects is measured, not guessed.
  pf::metrics::Timer epoch_t;
  {
    model->train(true);
    for (const pf::data::ImageBatch& b : ds.train_batches(32, 0)) {
      model->zero_grad();
      pf::ag::Var loss = pf::ag::cross_entropy(
          model->forward(pf::ag::leaf(b.images)), b.labels);
      pf::ag::backward(loss);
      opt.step();
    }
  }
  const double epoch_s = epoch_t.seconds();

  const std::string dir = tmp_dir("pf_bench_fault_snapshot");
  pf::core::TrainState st;
  st.next_epoch = 1;
  st.rng = rng.state();
  pf::core::capture_optimizer(opt, st);

  constexpr int kReps = 5;
  pf::metrics::Timer save_t;
  for (int i = 0; i < kReps; ++i) pf::core::save_snapshot(*model, st, dir);
  const double save_ms = save_t.seconds() * 1e3 / kReps;

  pf::Rng rng2(99);
  auto loaded = factory(rng2);
  pf::metrics::Timer load_t;
  pf::core::TrainState got;
  for (int i = 0; i < kReps; ++i)
    got = pf::core::load_snapshot(*loaded, dir);
  const double load_ms = load_t.seconds() * 1e3 / kReps;

  const pf::core::SnapshotPaths paths = pf::core::snapshot_paths(dir);
  pf::metrics::Table t({"op", "ms", "bytes", "% of epoch"});
  t.add_row({"save snapshot (atomic)", pf::metrics::fmt(save_ms),
             pf::metrics::fmt_bytes(file_size(paths.model) +
                                    file_size(paths.state)),
             pf::metrics::fmt(100.0 * save_ms / 1e3 / epoch_s) + "%"});
  t.add_row({"load + verify snapshot", pf::metrics::fmt(load_ms), "-",
             pf::metrics::fmt(100.0 * load_ms / 1e3 / epoch_s) + "%"});
  t.print();
  std::printf("epoch protected: %.2fs; weights restored bitwise: %s\n",
              epoch_s,
              bitwise_equal(model->flat_params(), loaded->flat_params())
                  ? "yes"
                  : "NO");
  std::filesystem::remove_all(dir);
}

void shm_recovery_table(const pf::data::SyntheticImages& ds) {
  std::printf("\n-- Shm data-parallel training under injected faults --\n");
  pf::core::VisionModelFactory factory = make_resnet18(0.125, 0);

  struct Scenario {
    std::string name;
    pf::fault::Plan plan;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"fault-free", pf::fault::Plan()});
  {
    pf::fault::Plan p(13);
    p.kill_worker(1, 1).kill_worker(3, 2);
    scenarios.push_back({"2 worker kills", p});
  }
  {
    pf::fault::Plan p(13);
    p.delay_worker(2, 0, 25.0).delay_worker(0, 3, 25.0);
    scenarios.push_back({"2 stragglers (25ms)", p});
  }

  pf::Tensor baseline;
  pf::metrics::Table t({"scenario", "train s", "fault s", "kills", "delays",
                        "recoveries", "bitwise = fault-free"});
  for (Scenario& sc : scenarios) {
    pf::fault::reset_stats();
    pf::runtime::ShmClusterConfig scfg = cluster_config(2);
    scfg.fault = sc.plan;
    pf::runtime::ShmDataParallelTrainer trainer(factory, nullptr, scfg);
    pf::metrics::Timer wall;
    (void)trainer.train(ds);
    const double train_s = wall.seconds();
    const pf::Tensor params = trainer.model().flat_params();
    if (sc.name == "fault-free") baseline = params;
    const pf::fault::FaultStats s = pf::fault::stats();
    t.add_row({sc.name, pf::metrics::fmt(train_s),
               pf::metrics::fmt(trainer.fault_seconds(), 4),
               pf::metrics::fmt_int(static_cast<int64_t>(s.injected_kills)),
               pf::metrics::fmt_int(static_cast<int64_t>(s.injected_delays)),
               pf::metrics::fmt_int(static_cast<int64_t>(s.recoveries)),
               bitwise_equal(baseline, params) ? "yes" : "NO"});
  }
  t.print();
}

void serve_retry_table() {
  std::printf("\n-- Batched serving under injected request drops --\n");
  pf::core::VisionModelFactory factory = make_resnet18(0.25, 0);
  pf::Rng rng(6);
  pf::serve::FrozenModel frozen(factory(rng), "bench-fault");
  frozen.prime(pf::Shape{3, kFaultHw, kFaultHw}, 8);

  struct Scenario {
    std::string name;
    double drop_p;
    int max_attempts;
  };
  const std::vector<Scenario> scenarios = {
      {"no faults", 0.0, 1},
      {"drop 20%, no retry", 0.2, 1},
      {"drop 20%, retry<=8", 0.2, 8},
  };

  pf::metrics::Table t({"scenario", "completed", "drops", "retries",
                        "recoveries", "s"});
  for (const Scenario& sc : scenarios) {
    pf::fault::reset_stats();
    pf::serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.batcher.max_batch = 8;
    cfg.batcher.deadline_ms = 0.5;
    if (sc.drop_p > 0) {
      cfg.fault = pf::fault::Plan(21);
      cfg.fault.drop_requests(sc.drop_p);
    }
    pf::serve::Server server(frozen, cfg);
    server.start();
    pf::serve::ClosedLoopConfig lg;
    lg.clients = 4;
    lg.requests_per_client = 32;
    lg.max_attempts = sc.max_attempts;
    pf::metrics::Timer wall;
    const int64_t done = pf::serve::run_closed_loop(
        server,
        [](uint64_t id) {
          pf::Rng r(id + 500);
          return pf::serve::make_request(
              id, r.randn(pf::Shape{3, kFaultHw, kFaultHw}));
        },
        lg);
    server.stop();
    const pf::fault::FaultStats s = pf::fault::stats();
    t.add_row({sc.name,
               pf::metrics::fmt_int(done) + "/128",
               pf::metrics::fmt_int(static_cast<int64_t>(s.dropped_requests)),
               pf::metrics::fmt_int(static_cast<int64_t>(s.retries)),
               pf::metrics::fmt_int(static_cast<int64_t>(s.recoveries)),
               pf::metrics::fmt(wall.seconds())});
  }
  t.print();
  pf::fault::reset_stats();
}

}  // namespace

int main() {
  banner("Fault injection & crash-safe checkpointing",
         "no paper table -- certifies this repo's recovery guarantees "
         "(DESIGN.md section 9)",
         "synthetic CIFAR-like data; ResNet-18 at reduced width");
  auto ds = cifar_like(10, kFaultHw, 64, 32);
  snapshot_overhead_table(ds);
  shm_recovery_table(ds);
  serve_retry_table();
  return 0;
}
