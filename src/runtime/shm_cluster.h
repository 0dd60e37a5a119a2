// The data-parallel executor: real shared-memory data-parallel training.
//
// N worker threads each own a full model replica built from identically
// seeded factories (replicas start bitwise equal and stay equal, because
// every worker applies the same aggregated gradient with its own optimizer).
// Each step the global batch is sharded by dist::shard_range; workers
// compute real gradients on their shard concurrently and aggregate through
// one of two paths:
//
//  * ring path (allreduce-compatible payloads, i.e. the paper's vanilla /
//    Pufferfish flat buffers): a bucketed all-reduce executed by the worker
//    threads themselves. The flat gradient is split into buckets walked from
//    the tail of the buffer (the order backward produces gradients, DDP's
//    overlap trick); each bucket is a rendezvous followed by a
//    reduce-scatter over the shared arena -- worker w sums segment w of the
//    bucket across all replicas in fixed replica order, so the result is
//    bitwise identical to the sequential mean -- with the allgather
//    collapsing to shared-memory reads of the aggregated buffer.
//  * reducer path (PowerSGD / SIGNUM / top-k / ATOMO payloads whose
//    encodings do not sum): workers rendezvous, then worker 0 runs the
//    `compress::Reducer` over all shards, so stateful reducers see every
//    worker's gradient in one place.
//
// BN running statistics follow the same single-model view: each replica
// updates them from its own shard, then after every step lane 0 replays the
// lanes' updates in ascending lane order and writes the result to every
// active replica, so buffers are the ones one model would hold after the
// step's shards as micro-batches, equal on every replica.
//
// Every epoch record carries two views of the same epoch (dist/cluster.h):
// `breakdown` is MEASURED wall-clock on this host, and `priced` is the
// paper-cluster view -- each step's real payload bytes priced through
// dist::collective_seconds on HardwareProfile::cloud_10g(), next to the
// per-worker compute on the worker thread's CPU clock -- which is what
// bench_fig4_distributed, Fig. 6 and Fig. 7 print.
// Fault tolerance (src/fault): a seeded fault::Plan can kill or delay a
// worker at the top of a scheduled global step. Because replicas are
// bitwise-identical at step boundaries, a killed worker is *reincarnated*
// in place -- its (NaN-poisoned) parameters and optimizer velocity are
// restored from the lowest surviving replica -- and the run continues
// bitwise-identical to a fault-free one. The plan doubles as the failure
// detector: it is deterministic and visible to every worker, which mirrors
// a real step-boundary failure detector at zero coordination cost.
// Checkpoint/resume: with checkpoint_dir set, train() writes an atomic
// weights + TrainState snapshot per epoch and resume() restores replicas,
// optimizers, and per-worker Rng streams from it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "fault/fault.h"
#include "optim/optim.h"

namespace pf::runtime {

// Times the exact bucketed ring all-reduce the trainer's ring path executes
// (rendezvous per bucket, tail-first bucket walk, per-segment reduce-scatter
// over a shared arena): `workers` threads each contribute a flat gradient of
// `elems` floats. Returns mean seconds per reduce over `reps` repetitions
// after one untimed warm-up pass. The plan calibration
// (src/plan/calibrate.h) fits effective alpha/beta to this at several
// payload sizes, so modeled communication describes this machine.
double timed_ring_allreduce(int workers, int64_t elems, int64_t bucket_bytes,
                            int reps);

// Executes one real threaded bucketed ring all-reduce over `grads` (one
// equal-length flat tensor per lane) and returns the aggregated mean. This
// is the production reduction run by grads.size() actual threads -- the
// elastic property test compares it bitwise against the sequential
// ascending-lane mean for any lane count and bucket size, which is the
// "re-bucketing preserves the all-reduced sum" contract membership changes
// rely on.
Tensor ring_allreduce(const std::vector<Tensor>& grads, int64_t bucket_bytes);

// Which replica slots participate in one epoch (src/elastic membership).
// Defaults reproduce the static cluster: every slot active, slot 0
// canonical.
struct EpochParticipants {
  // Sorted, unique replica slots in [0, workers). Empty = all slots.
  std::vector<int> active;
  // Slot evaluated and reported for the epoch; -1 = lowest active slot.
  // Must be active.
  int canonical = -1;
  // Per-SLOT straggler delay injected once at the top of the epoch's first
  // step (round-boundary delays the wait-all strategy passes through).
  // Empty = none; otherwise sized `workers`.
  std::vector<double> delay_ms;
};

struct ShmClusterConfig {
  int workers = 4;
  // Ring-path bucket granularity in bytes (DDP-style gradient buckets).
  int64_t bucket_bytes = 256 << 10;
  dist::DistTrainConfig train;
  // Deterministic fault schedule (empty = no injection).
  fault::Plan fault;
  // When non-empty, train() snapshots after every `checkpoint_every`-th
  // epoch; with `resume` set it continues from the existing snapshot.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
};

class ShmDataParallelTrainer {
 public:
  // `make_model` is called once per worker with identically seeded Rngs, so
  // all replicas start with the same weights. A null `reducer` (or an
  // AllreduceReducer) selects the threaded ring path; any other reducer is
  // run centralized on worker 0 over the shared arena.
  ShmDataParallelTrainer(const core::VisionModelFactory& make_model,
                         std::unique_ptr<compress::Reducer> reducer,
                         const ShmClusterConfig& cfg);

  dist::DistEpochRecord train_epoch(const data::SyntheticImages& ds,
                                    int epoch);
  // Membership-aware epoch: only `parts.active` replica slots spawn worker
  // threads; the global batch is resharded over them (dist::shard_range,
  // every sample to exactly one active lane) and the ring reduce regroups
  // to |active| dense lanes -- bitwise identical to the sequential
  // ascending-lane mean at any active count. Inactive replicas are left
  // untouched (stale); src/elastic bootstraps them on re-join.
  dist::DistEpochRecord train_epoch(const data::SyntheticImages& ds,
                                    int epoch,
                                    const EpochParticipants& parts);
  std::vector<dist::DistEpochRecord> train(const data::SyntheticImages& ds);

  // Write an atomic snapshot (canonical-replica weights + TrainState with
  // every worker slot's Rng stream) into cfg.checkpoint_dir; `next_epoch`
  // is the epoch a resumed run should start from. `canonical` is the slot
  // whose weights and optimizer state stand in for the cluster (slot 0 for
  // the static cluster; the elastic trainer passes its current canonical).
  void save_snapshot(int next_epoch, int canonical = 0);
  // Restore replicas, optimizers, Rng streams, and step/time counters from
  // cfg.checkpoint_dir, broadcasting the snapshot state to every slot.
  // Returns the epoch to continue from. The resumed run is
  // bitwise-identical to an uninterrupted one. Throws when the snapshot's
  // worker-slot count differs from this cluster's: membership can change
  // *within* a fixed slot universe, but resuming under a different universe
  // is rejected loudly (tests/elastic_test.cc asserts both directions).
  int resume();

  // Swaps the model mid-run (Pufferfish's vanilla -> hybrid switch, and the
  // dense <-> low-rank moves of refresh rounds). Builds the new canonical
  // replica from `make`, runs `transfer(old_canonical, new_canonical)` once
  // (core::warm_start / defactorize / reproject: one SVD, not one per
  // worker), then gives the other replicas the canonical's low-rank ranks
  // and copies every nn::checkpoint_tensors entry (params and BN buffers)
  // into them, so all replicas start the next step bitwise equal. A null
  // `transfer` keeps the fresh, identically seeded replicas. The old
  // canonical is slot 0. Optimizers are rebuilt (velocity starts at zero). A
  // non-null `reducer` replaces the current one and re-selects the ring or
  // reducer path; null keeps the current reducer and its state.
  using ModelTransfer =
      std::function<void(nn::UnaryModule& from, nn::UnaryModule& to)>;
  void replace_model(const core::VisionModelFactory& make,
                     const ModelTransfer& transfer,
                     std::unique_ptr<compress::Reducer> reducer = nullptr);

  // The active reducer (null = plain ring path with none given). Lets
  // harnesses poke reducer-specific counters (e.g. VarianceGateReducer's
  // gate decisions).
  compress::Reducer* reducer() { return reducer_.get(); }
  // Total payload bytes one worker transmitted since construction, summed
  // over every step (breakdown.bytes_per_worker records only the LAST
  // step's payload, which misses step-to-step variation -- exactly what a
  // gating reducer produces). Survives replace_model; not part of a
  // snapshot, so a resumed run counts from its resume point.
  int64_t cumulative_bytes_per_worker() const { return cumulative_bytes_; }

  // Canonical replica (worker 0); evaluation runs against it.
  nn::UnaryModule& model() { return *replicas_[0]; }
  // Per-slot replica / optimizer access for the elastic membership layer
  // (bootstrap payload capture and joiner reincarnation). The replicas of
  // slots inactive in the current round are stale by contract.
  nn::UnaryModule& replica(int w) { return *replicas_[static_cast<size_t>(w)]; }
  optim::SGD& optimizer(int w) { return *opts_[static_cast<size_t>(w)]; }
  // Kills slot w's replica: counts the kill (fault::record_kill) and
  // NaN-poisons its params and optimizer slots, so a recovery that misses a
  // tensor cannot pass silently. Running BN buffers are replica-local
  // scratch (train mode uses batch stats) and are outside the recovery
  // contract.
  void kill(int w);
  int workers() const { return cfg_.workers; }
  double cumulative_seconds() const { return wall_seconds_; }
  int64_t global_step() const { return global_step_; }
  // Wall-clock spent inside injected faults and their recovery (summed over
  // workers); already included in the epoch records' measured time.
  double fault_seconds() const { return fault_seconds_; }

  // Per-worker RNG stream, derived from (train.seed, worker_id) via
  // splitmix so concurrent workers never share a stream (seed hygiene for
  // stochastic compressors and future per-worker augmentation).
  Rng& worker_rng(int w) { return worker_rngs_[static_cast<size_t>(w)]; }

  // Per-SLOT fwd+bwd seconds of the most recent epoch (0 for slots that sat
  // the epoch out). The elastic trainer folds these into measured relative
  // speeds (ElasticTrainer::measured_speeds) that feed
  // dist::HardwareProfile::worker_speeds for heterogeneous planning.
  const std::vector<double>& last_epoch_compute_seconds() const {
    return last_compute_s_;
  }

 private:
  ShmClusterConfig cfg_;
  std::unique_ptr<compress::Reducer> reducer_;
  bool ring_path_ = true;
  std::vector<std::unique_ptr<nn::UnaryModule>> replicas_;
  std::vector<std::unique_ptr<optim::SGD>> opts_;
  std::vector<Rng> worker_rngs_;
  std::vector<Shape> param_shapes_;
  double wall_seconds_ = 0;
  int64_t cumulative_bytes_ = 0;
  int64_t global_step_ = 0;
  double fault_seconds_ = 0;
  std::vector<double> last_compute_s_;
};

}  // namespace pf::runtime
