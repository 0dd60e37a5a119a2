// Data-parallel cluster simulator: real gradient math over N logical
// workers, modeled wall-clock.
//
// Each step the global batch is sharded across `nodes` workers; every worker
// computes a real gradient on its shard (executed sequentially here, timed,
// then divided by `nodes` since real workers run in parallel); the chosen
// Reducer produces real encoded payloads whose byte counts are priced by
// dist::collective_seconds (cost_model.h) on HardwareProfile::cloud_10g(),
// the paper's 10 Gbps cluster. The result is the per-epoch compute / encode /
// communicate / decode breakdown of the paper's Figure 4, plus a faithful
// training trajectory (the aggregated gradient actually updates the model).
#pragma once

#include <functional>
#include <memory>

#include "compress/compressor.h"
#include "core/trainer.h"
#include "dist/cost_model.h"
#include "optim/optim.h"

namespace pf::dist {

struct EpochBreakdown {
  double compute_s = 0;   // fwd+bwd per node (modeled parallel)
  double encode_s = 0;    // compression per node
  double comm_s = 0;      // modeled collective time
  double decode_s = 0;    // per-node decode / aggregation post-processing
  double other_s = 0;     // optimizer step, data, bookkeeping
  // Independently measured epoch wall time, when the executor has one
  // (runtime::ShmDataParallelTrainer). 0 for purely modeled breakdowns.
  // When set, the components are disjoint per-worker averages, so
  // total() == wall_s up to the other_s >= 0 clamp (asserted in
  // trainer_test.cc).
  double wall_s = 0;
  int64_t bytes_per_worker = 0;
  double total() const {
    return compute_s + encode_s + comm_s + decode_s + other_s;
  }
};

struct DistEpochRecord {
  int epoch = 0;
  double train_loss = 0;
  double test_acc = 0;
  EpochBreakdown breakdown;
  double cumulative_sim_seconds = 0;  // simulated wall-clock since start
};

struct DistTrainConfig {
  int epochs = 8;
  int64_t global_batch = 64;  // sharded evenly over the nodes
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  std::vector<int> lr_milestones = {6};
  float lr_factor = 0.1f;
  // Linear lr warm-up epochs (the large-batch recipe used in Fig. 4(b)).
  int lr_warmup_epochs = 0;
  float lr_warmup_start = 0.01f;
  float label_smoothing = 0.0f;
  uint64_t seed = 0;
  // Compute-kernel threads for this run; 0 keeps the PF_THREADS env default
  // (see runtime/thread_pool.h).
  int threads = 0;
};

// Learning rate at `epoch` under cfg's linear warm-up + step-decay schedule.
// Shared by the modeled cluster and the shm executor (runtime/shm_cluster).
float lr_at_epoch(const DistTrainConfig& cfg, int epoch);

// Balanced contiguous partition of [0, batch) over `lanes` workers: lane i
// gets floor(batch/lanes) samples plus one of the first batch%lanes
// remainders. Every sample lands in exactly one lane (the old floor-based
// shard could drop the tail when lanes did not divide the batch), lanes are
// contiguous and ascending, and the partition is a pure function of
// (batch, lanes) -- the resharding contract elastic membership relies on
// (tests/elastic_test.cc asserts the exactly-once property for random
// worker-count sequences).
struct ShardRange {
  int64_t start = 0;
  int64_t count = 0;
};
ShardRange shard_range(int64_t batch, int lanes, int lane);

class DataParallelTrainer {
 public:
  DataParallelTrainer(std::unique_ptr<nn::UnaryModule> model,
                      std::unique_ptr<compress::Reducer> reducer,
                      int nodes, const DistTrainConfig& cfg);

  // Runs one epoch over the dataset; returns loss/accuracy/breakdown.
  DistEpochRecord train_epoch(const data::SyntheticImages& ds, int epoch);

  // Full run.
  std::vector<DistEpochRecord> train(const data::SyntheticImages& ds);

  nn::UnaryModule& model() { return *model_; }
  // Swap in a new model mid-run (Pufferfish's vanilla -> hybrid switch);
  // optimizer state is rebuilt, reducer state reset.
  void replace_model(std::unique_ptr<nn::UnaryModule> model,
                     std::unique_ptr<compress::Reducer> reducer);

  // The active reducer (null = none was given). Lets harnesses poke
  // reducer-specific counters (e.g. VarianceGateReducer's gate decisions).
  compress::Reducer* reducer() { return reducer_.get(); }

  double cumulative_sim_seconds() const { return sim_seconds_; }
  // Total payload bytes one worker transmitted since construction, summed
  // over every step (breakdown.bytes_per_worker only records the LAST
  // step's payload, which misses step-to-step variation -- exactly what a
  // gating reducer produces). Survives replace_model.
  int64_t cumulative_bytes_per_worker() const { return cumulative_bytes_; }

 private:
  std::unique_ptr<nn::UnaryModule> model_;
  std::unique_ptr<compress::Reducer> reducer_;
  int nodes_;
  HardwareProfile hw_ = HardwareProfile::cloud_10g();
  DistTrainConfig cfg_;
  std::unique_ptr<optim::SGD> opt_;
  std::vector<Shape> param_shapes_;
  double sim_seconds_ = 0;
  int64_t cumulative_bytes_ = 0;
};

}  // namespace pf::dist
