// Elastic heterogeneous cluster executor (DESIGN.md §16).
//
// ElasticTrainer drives runtime::ShmDataParallelTrainer one ROUND (epoch)
// at a time, applying a deterministic MembershipPlan and the round-boundary
// schedule of a fault::Plan between rounds:
//
//  * joins/leaves -- the active slot set changes at the round boundary; the
//    executor reshards the data and re-buckets the ring over the new dense
//    lane set (bitwise-deterministic for any worker count). Joiners are
//    brought up to date from a donor replica (BootstrapMode): the
//    factorized state, or a delta vs the shared base, never a full-rank
//    fp32 dump unless the model itself is full-rank.
//  * round kills -- the slot's state is lost (NaN-poisoned) at the
//    boundary; it recovers by the exact copy. The donor is chosen by
//    runtime::donor_slot, the rule step kills use: if every up-to-date slot
//    is scheduled to die at once, the lowest is spared.
//  * round stragglers (delay faults) -- mitigated per the configured
//    StragglerStrategy: wait out the delay, activate a spare backup slot,
//    or drop the straggler for up to `staleness_bound` consecutive rounds.
//
// Invariant: every ACTIVE replica holds the canonical state when a round
// starts (exactly for exact copies; up to the delta spec's discarded
// energy for kDelta joiners), so the round's trajectory is a pure function
// of (seeds, schedules) and chaos runs replay bitwise
// (tests/elastic_test.cc).
#pragma once

#include <memory>
#include <vector>

#include "dist/hardware.h"
#include "elastic/bootstrap.h"
#include "elastic/membership.h"
#include "runtime/shm_cluster.h"

namespace pf::elastic {

enum class StragglerStrategy {
  kWaitAll,           // absorb the delay behind the barriers (baseline)
  kBackupWorker,      // swap in the lowest inactive spare slot, if any
  kBoundedStaleness,  // exclude the straggler <= staleness_bound rounds
};

const char* to_string(StragglerStrategy s);

struct ElasticConfig {
  // cluster.workers is the SLOT UNIVERSE: the max concurrent replicas. The
  // membership plan (same universe) decides who is live each round.
  runtime::ShmClusterConfig cluster;
  MembershipPlan membership;  // default = static cluster
  StragglerStrategy straggler = StragglerStrategy::kWaitAll;
  int staleness_bound = 2;
  // How genuine JOINERS are brought up to date. Intra-cluster re-syncs
  // (kill recovery, backup activation, staleness catch-up) always take the
  // exact copy: they model cluster-internal copies, not wire joins.
  BootstrapMode bootstrap = BootstrapMode::kExact;
  quant::DeltaSpec delta;  // kDelta tuning
};

struct RoundReport {
  dist::DistEpochRecord record;
  std::vector<int> active;  // slots that actually trained this round
  int joins = 0, leaves = 0, kills = 0;
  int stragglers_waited = 0, stragglers_mitigated = 0;
  int64_t bootstrap_bytes = 0;  // join payloads (wire traffic)
  int64_t resync_bytes = 0;     // kill/backup/staleness exact re-syncs
  double recover_s = 0;  // time-to-recover: every re-sync of the boundary
};

struct ElasticStats {
  int joins = 0, leaves = 0, kills = 0;
  int stragglers_waited = 0, stragglers_mitigated = 0;
  int64_t bootstrap_bytes = 0, resync_bytes = 0;
  double recover_s = 0;
};

class ElasticTrainer {
 public:
  // Ring path only (elasticity is about re-bucketing the ring); the model
  // factory is the shm trainer's identically-seeded-replica contract.
  ElasticTrainer(const core::VisionModelFactory& make_model,
                 const ElasticConfig& cfg);

  RoundReport train_round(const data::SyntheticImages& ds, int round);
  // Runs cfg.cluster.train.epochs rounds, honoring
  // cfg.cluster.{checkpoint_dir, checkpoint_every, resume} exactly like
  // the static trainer -- snapshots may land on either side of a
  // membership change and resume stays bitwise (same slot universe only).
  std::vector<RoundReport> train(const data::SyntheticImages& ds);

  void save_snapshot(int next_round);
  int resume();  // returns the round to continue from

  // The canonical replica of the most recent round (lowest active slot).
  nn::UnaryModule& model() { return trainer_.replica(canonical_); }
  int canonical() const { return canonical_; }
  runtime::ShmDataParallelTrainer& cluster() { return trainer_; }
  const ElasticStats& stats() const { return stats_; }

  // Measured per-slot relative speeds (1.0 = fastest slot), from each
  // slot's mean fwd+bwd seconds over the rounds it participated in. Empty
  // until a round has run. speed_profile() stamps them into a
  // HardwareProfile so plan::make_plan prices this heterogeneous cluster.
  std::vector<double> measured_speeds() const;
  dist::HardwareProfile speed_profile(dist::HardwareProfile hw) const;

 private:
  ElasticConfig cfg_;
  runtime::ShmDataParallelTrainer trainer_;
  std::unique_ptr<nn::UnaryModule> base_;  // kDelta shared base (the init)
  // synced_[w]: replica w holds the canonical state of the last completed
  // round. All true at construction (identically seeded replicas) and
  // after resume (all copied); after a round, exactly the participants.
  std::vector<char> synced_;
  std::vector<int> stale_rounds_;  // consecutive staleness exclusions
  int canonical_ = 0;
  ElasticStats stats_;
  std::vector<double> speed_seconds_;  // per-slot summed fwd+bwd time
  std::vector<int> speed_rounds_;      // rounds the slot participated in
};

}  // namespace pf::elastic
