// Data-parallel training vocabulary shared by the one executor
// (runtime::ShmDataParallelTrainer) and its callers: the per-epoch
// compute / encode / communicate / decode breakdown of the paper's
// Figure 4, the epoch record, the training config, the lr schedule and the
// batch-shard partition.
#pragma once

#include <cstdint>
#include <vector>

namespace pf::dist {

struct EpochBreakdown {
  double compute_s = 0;   // fwd+bwd per worker
  double encode_s = 0;    // compression per worker
  double comm_s = 0;      // collective time
  double decode_s = 0;    // per-worker decode / aggregation post-processing
  double other_s = 0;     // optimizer step, data, bookkeeping
  // Independently measured epoch wall time, when the breakdown is
  // measured. 0 for priced breakdowns (DistEpochRecord::priced). When set,
  // the components are disjoint per-worker averages, so
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
  // Measured on this host: every field is wall-clock of the threads that
  // ran the epoch (compute = per-worker fwd+bwd average, comm = time in
  // rendezvous + reduction).
  EpochBreakdown breakdown;
  // The same epoch priced on the paper's 10 Gbps cluster
  // (HardwareProfile::cloud_10g()), the numbers Figs. 4/6/7 print:
  //   comm_s    = sum over steps of dist::collective_seconds(collective,
  //               payload bytes, workers, cloud_10g, messages); the ring
  //               path prices as one flat-buffer allreduce of every param;
  //   encode_s  = sum of the reducer's encode seconds / workers;
  //   decode_s  = sum of the reducer's per-worker decode seconds (the
  //               compress::Reducer contract, not divided by workers);
  //   compute_s = mean per-worker fwd+bwd on the worker thread's CPU
  //               clock, so it does not inflate when workers share cores;
  //   other_s   = the measured other_s.
  // wall_s is 0: a priced breakdown is a model, not a measurement.
  EpochBreakdown priced;
};

struct DistTrainConfig {
  int epochs = 8;
  int64_t global_batch = 64;  // sharded evenly over the workers
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

}  // namespace pf::dist
