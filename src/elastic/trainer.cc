#include "elastic/trainer.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "metrics/metrics.h"

namespace pf::elastic {

namespace {

bool contains(const std::vector<int>& sorted, int w) {
  return std::binary_search(sorted.begin(), sorted.end(), w);
}

void insert_sorted(std::vector<int>& sorted, int w) {
  sorted.insert(std::lower_bound(sorted.begin(), sorted.end(), w), w);
}

void erase_sorted(std::vector<int>& sorted, int w) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), w);
  if (it != sorted.end() && *it == w) sorted.erase(it);
}

}  // namespace

const char* to_string(StragglerStrategy s) {
  switch (s) {
    case StragglerStrategy::kWaitAll: return "wait-all";
    case StragglerStrategy::kBackupWorker: return "backup-worker";
    case StragglerStrategy::kBoundedStaleness: return "bounded-staleness";
  }
  return "?";
}

ElasticTrainer::ElasticTrainer(const core::VisionModelFactory& make_model,
                               const ElasticConfig& cfg)
    : cfg_(cfg), trainer_(make_model, nullptr, cfg.cluster) {
  const int workers = trainer_.workers();
  if (cfg_.membership.max_workers() > 0 &&
      cfg_.membership.max_workers() != workers)
    throw std::runtime_error(
        "elastic: membership plan universe (" +
        std::to_string(cfg_.membership.max_workers()) +
        ") must match cluster.workers (" + std::to_string(workers) + ")");
  if (cfg_.staleness_bound < 0) cfg_.staleness_bound = 0;
  if (cfg_.bootstrap == BootstrapMode::kDelta) {
    // The shared base every joiner is assumed to hold: the common init,
    // rebuilt from the exact seeding discipline the cluster's replicas
    // used, so round-0 deltas are all-zero by construction.
    Rng rng(cfg_.cluster.train.seed * 0x9E3779B9u + 101);
    base_ = make_model(rng);
  }
  synced_.assign(static_cast<size_t>(workers), 1);
  stale_rounds_.assign(static_cast<size_t>(workers), 0);
  speed_seconds_.assign(static_cast<size_t>(workers), 0.0);
  speed_rounds_.assign(static_cast<size_t>(workers), 0);
}

RoundReport ElasticTrainer::train_round(const data::SyntheticImages& ds,
                                        int round) {
  const int workers = trainer_.workers();
  RoundReport rep;

  // 1. Membership entering this round.
  std::vector<int> active;
  std::vector<char> joined(static_cast<size_t>(workers), 0);
  if (cfg_.membership.max_workers() > 0) {
    active = cfg_.membership.active_at(round);
    for (const MembershipEvent& e : cfg_.membership.events_at(round)) {
      if (e.kind == MembershipEvent::Kind::kJoin) {
        joined[static_cast<size_t>(e.worker)] = 1;
        ++rep.joins;
      } else {
        ++rep.leaves;
      }
    }
  } else {
    active.resize(static_cast<size_t>(workers));
    std::iota(active.begin(), active.end(), 0);
  }

  // 2. Round-boundary faults against the ACTIVE slots.
  std::vector<double> delay_ms;  // wait-all injections, per slot
  std::vector<int> kills;
  struct Straggler {
    int worker;
    double delay_ms;
  };
  std::vector<Straggler> stragglers;
  const fault::Plan& fp = cfg_.cluster.fault;
  if (fp.any_round_fault()) {
    for (int w : active) {
      const fault::WorkerFault* f =
          fp.worker_round_fault(w, static_cast<int64_t>(round));
      if (!f) continue;
      if (f->kind == fault::WorkerFault::Kind::kKill)
        kills.push_back(w);
      else
        stragglers.push_back({w, f->delay_ms});
    }
  }

  auto wait_out = [&](const Straggler& s) {
    if (delay_ms.empty()) delay_ms.assign(static_cast<size_t>(workers), 0.0);
    delay_ms[static_cast<size_t>(s.worker)] = s.delay_ms;
    ++rep.stragglers_waited;
  };

  // 3. Straggler mitigation reshapes the active set BEFORE the round runs
  // (the schedule is deterministic, so "detecting" the straggler at the
  // boundary is free -- the same role the fault plan plays for kills).
  for (const Straggler& s : stragglers) {
    switch (cfg_.straggler) {
      case StragglerStrategy::kWaitAll:
        wait_out(s);
        break;
      case StragglerStrategy::kBackupWorker: {
        int spare = -1;
        for (int w = 0; w < workers; ++w)
          if (!contains(active, w)) {
            spare = w;
            break;
          }
        if (spare < 0) {
          wait_out(s);  // no spare capacity: degrade to wait-all
        } else {
          erase_sorted(active, s.worker);
          insert_sorted(active, spare);
          ++rep.stragglers_mitigated;
        }
        break;
      }
      case StragglerStrategy::kBoundedStaleness:
        // Drop the straggler while the bound allows; past it (or when it
        // is the whole cluster) the round must wait for it.
        if (stale_rounds_[static_cast<size_t>(s.worker)] <
                cfg_.staleness_bound &&
            active.size() > 1) {
          erase_sorted(active, s.worker);
          ++stale_rounds_[static_cast<size_t>(s.worker)];
          ++rep.stragglers_mitigated;
        } else {
          wait_out(s);
        }
        break;
    }
  }

  // 4. Round kills destroy replica state at the boundary. The donor is the
  // lowest up-to-date replica not scheduled to die (runtime::donor_slot);
  // if every up-to-date replica is, the lowest one is spared (recovery
  // needs one survivor, as with step kills). It may have just LEFT:
  // leaving abandons the slot but not the state it holds, exactly like a
  // real node draining out.
  std::vector<int> synced;
  for (int w = 0; w < workers; ++w)
    if (synced_[static_cast<size_t>(w)]) synced.push_back(w);
  if (synced.empty())
    throw std::runtime_error(
        "elastic: no up-to-date replica to bootstrap from");
  const int donor = runtime::donor_slot(synced, kills);
  for (int w : kills) {
    if (w == donor) continue;
    trainer_.kill(w);
    synced_[static_cast<size_t>(w)] = 0;
    ++rep.kills;
  }

  // 5. Bring every active slot that does not hold the canonical state up to
  // date: genuine joiners by the configured mode, kill recoveries and
  // returning stale slots by the exact copy (sync_replica).
  metrics::Timer t_recover;
  quant::DeltaModel delta;
  bool have_delta = false;
  for (int w : active) {
    if (synced_[static_cast<size_t>(w)]) continue;
    const bool is_join = joined[static_cast<size_t>(w)] != 0;
    int64_t bytes;
    if (is_join && cfg_.bootstrap == BootstrapMode::kDelta) {
      if (!have_delta) {
        delta = quant::compute_delta(*base_, trainer_.replica(donor),
                                     cfg_.delta);
        have_delta = true;
      }
      apply_bootstrap(trainer_.replica(w), trainer_.optimizer(w), delta,
                      *base_);
      bytes = delta.bytes();  // momentum restarts at zero: no opt payload
    } else {
      bytes = trainer_.sync_replica(donor, w);
    }
    if (std::find(kills.begin(), kills.end(), w) != kills.end())
      fault::record_recovery();
    synced_[static_cast<size_t>(w)] = 1;
    (is_join ? rep.bootstrap_bytes : rep.resync_bytes) += bytes;
  }
  rep.recover_s = t_recover.seconds();

  // 6. Run the round on the resolved membership.
  runtime::EpochParticipants parts;
  parts.active = active;
  parts.canonical = active.front();
  parts.delay_ms = delay_ms;
  rep.record = trainer_.train_epoch(ds, round, parts);
  rep.active = active;
  canonical_ = parts.canonical;

  // 7. Post-round bookkeeping: exactly the participants hold the new
  // canonical state; everyone who trained resets its staleness clock; the
  // per-slot compute times feed the measured speed profile.
  for (int w = 0; w < workers; ++w)
    synced_[static_cast<size_t>(w)] =
        contains(active, w) ? 1 : 0;
  const std::vector<double>& cs = trainer_.last_epoch_compute_seconds();
  for (int w : active) {
    stale_rounds_[static_cast<size_t>(w)] = 0;
    if (cs[static_cast<size_t>(w)] > 0) {
      speed_seconds_[static_cast<size_t>(w)] += cs[static_cast<size_t>(w)];
      ++speed_rounds_[static_cast<size_t>(w)];
    }
  }

  stats_.joins += rep.joins;
  stats_.leaves += rep.leaves;
  stats_.kills += rep.kills;
  stats_.stragglers_waited += rep.stragglers_waited;
  stats_.stragglers_mitigated += rep.stragglers_mitigated;
  stats_.bootstrap_bytes += rep.bootstrap_bytes;
  stats_.resync_bytes += rep.resync_bytes;
  stats_.recover_s += rep.recover_s;
  return rep;
}

std::vector<RoundReport> ElasticTrainer::train(
    const data::SyntheticImages& ds) {
  std::vector<RoundReport> out;
  int start = 0;
  if (cfg_.cluster.resume && !cfg_.cluster.checkpoint_dir.empty() &&
      core::snapshot_exists(cfg_.cluster.checkpoint_dir))
    start = resume();
  for (int r = start; r < cfg_.cluster.train.epochs; ++r) {
    out.push_back(train_round(ds, r));
    if (!cfg_.cluster.checkpoint_dir.empty() &&
        ((r + 1) % std::max(1, cfg_.cluster.checkpoint_every) == 0 ||
         r + 1 == cfg_.cluster.train.epochs))
      save_snapshot(r + 1);
  }
  return out;
}

void ElasticTrainer::save_snapshot(int next_round) {
  trainer_.save_snapshot(next_round, canonical_);
}

int ElasticTrainer::resume() {
  const int round = trainer_.resume();
  // resume() copied the canonical snapshot state into every slot, so the
  // whole universe is up to date -- donors and joiner bootstraps behave
  // bitwise-identically to the uninterrupted run (the copied state is the
  // canonical state either way; elastic_test asserts this).
  std::fill(synced_.begin(), synced_.end(), 1);
  std::fill(stale_rounds_.begin(), stale_rounds_.end(), 0);
  canonical_ = 0;
  return round;
}

std::vector<double> ElasticTrainer::measured_speeds() const {
  const int workers = trainer_.workers();
  std::vector<double> mean(static_cast<size_t>(workers), 0.0);
  double fastest = std::numeric_limits<double>::infinity();
  bool any = false;
  for (int w = 0; w < workers; ++w) {
    if (speed_rounds_[static_cast<size_t>(w)] == 0) continue;
    mean[static_cast<size_t>(w)] =
        speed_seconds_[static_cast<size_t>(w)] /
        static_cast<double>(speed_rounds_[static_cast<size_t>(w)]);
    fastest = std::min(fastest, mean[static_cast<size_t>(w)]);
    any = true;
  }
  if (!any) return {};
  std::vector<double> speeds(static_cast<size_t>(workers), 1.0);
  for (int w = 0; w < workers; ++w)
    if (mean[static_cast<size_t>(w)] > 0)
      speeds[static_cast<size_t>(w)] = fastest / mean[static_cast<size_t>(w)];
  return speeds;
}

dist::HardwareProfile ElasticTrainer::speed_profile(
    dist::HardwareProfile hw) const {
  hw.worker_speeds = measured_speeds();
  return hw;
}

}  // namespace pf::elastic
