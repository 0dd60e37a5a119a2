// Full training-state snapshots: everything beyond the weights that a
// resumed run needs to continue bitwise-identically to an uninterrupted one.
// A run is deterministic given (seed, config), so a snapshot at an epoch
// boundary only captures the state that evolves across it (fields below).
//
// Payload (framing: io/artifact.h, magic "PUFFTST2"): next_epoch |
// global_step | low_rank_phase | svd_seconds | cumulative_seconds | 4 policy
// words | model_hash | rng | worker rngs | optimizer scalars | optimizer
// tensors | layer_ranks | reducer scalars | reducer tensors. A list is a u64
// count and its elements; an rng is its 4 state words, the has_cached flag
// and the cached double. The retired v1 format ("PUFFTST1") no longer
// loads.
#pragma once

#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/rank_policy.h"
#include "nn/module.h"
#include "optim/optim.h"
#include "tensor/rng.h"

namespace pf::core {

struct TrainState {
  int64_t next_epoch = 0;   // first epoch the resumed run must execute
  int64_t global_step = 0;  // mini-batches completed (shm cluster fault plans)
  bool low_rank_phase = false;  // vanilla (pre-SVD) vs hybrid (post-SVD)
  double svd_seconds = 0;       // one-time factorization cost already paid
  double cumulative_seconds = 0;  // wall/sim clock carried across the crash
  std::array<uint64_t, 4> policy = {0, 0, 0, 0};  // RankPolicy::encode()

  Rng::State rng{};  // the harness's primary stream at the epoch boundary
  std::vector<Rng::State> worker_rngs;  // per-worker streams (shm cluster)

  std::vector<int64_t> opt_scalars;  // optimizer integer state (Adam's t)
  std::vector<Tensor> opt_tensors;   // optimizer slot buffers, stable order

  // layer_ranks: each low-rank layer's rank in
  // core::collect_ranks order -- under kAbReproject the ranks move during
  // training, and a resumed run must re-shape its hybrid (core::apply_ranks)
  // before loading weights. reducer: a stateful gradient reducer's evolving
  // buffers (error-feedback residuals, sign momentum, variance-gate
  // moments); dropping them on resume would silently re-lose the deferred
  // gradient mass. Both empty when the run has neither.
  std::vector<int64_t> layer_ranks;
  compress::ReducerState reducer;

  // nn::checkpoint_hash of the model at snapshot time. Stamped by
  // save_snapshot, verified by load_snapshot: a crash between
  // the model write and the state write leaves a detectably "torn" pair
  // (new weights, old state) instead of a silently wrong resume.
  uint64_t model_hash = 0;
};

// Snapshot / restore the optimizer part of the state. restore throws when
// the snapshot's slot count or shapes do not match `opt` (resuming with a
// different optimizer configuration than the one that produced it).
void capture_optimizer(optim::Optimizer& opt, TrainState& st);
void restore_optimizer(optim::Optimizer& opt, const TrainState& st);

// Atomic, checksummed TrainState file in the v2 format ("PUFFTST2"); a v1
// file is rejected. load throws std::runtime_error on any I/O failure or
// corruption.
void save_train_state(const TrainState& st, const std::string& path);
TrainState load_train_state(const std::string& path);

// One training snapshot = weights + state under one directory.
struct SnapshotPaths {
  std::string model;  // <dir>/model.ckpt   (nn::save_checkpoint, PUFFCKP2)
  std::string state;  // <dir>/state.ckpt   (save_train_state)
};
SnapshotPaths snapshot_paths(const std::string& dir);
bool snapshot_exists(const std::string& dir);

// Writes both files (creating `dir` if needed), stamping st.model_hash so
// the pair is verifiable. Each file individually is crash-safe (atomic
// rename); a crash *between* the two writes is caught at load time by the
// hash check.
void save_snapshot(nn::Module& model, TrainState st, const std::string& dir);

// Loads the weights into `model` and returns the verified TrainState.
// Throws on any corruption, including a torn pair (model_hash mismatch),
// and leaves `model` untouched when it throws.
TrainState load_snapshot(nn::Module& model, const std::string& dir);

}  // namespace pf::core
