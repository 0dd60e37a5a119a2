#include "elastic/membership.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "tensor/rng.h"

namespace pf::elastic {

namespace {

// Deterministic coin in [0, 1) from (seed, round, slot, salt), hashed with
// the same splitmix64 as fault::Plan and Rng, so one seed pins the whole
// chaos run.
double coin(uint64_t seed, int round, int slot, uint64_t salt) {
  uint64_t s = seed ^ salt;
  uint64_t t = splitmix64(s) ^
               (static_cast<uint64_t>(round) << 32 |
                static_cast<uint64_t>(static_cast<uint32_t>(slot)));
  const uint64_t h = splitmix64(t);
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

MembershipPlan::MembershipPlan(int max_workers, int initial_active) {
  if (max_workers < 1)
    throw std::runtime_error("elastic: max_workers must be >= 1");
  max_workers_ = max_workers;
  initial_active_ =
      initial_active <= 0 ? max_workers
                          : std::min(initial_active, max_workers);
}

MembershipPlan& MembershipPlan::join(int worker, int round) {
  events_.push_back({MembershipEvent::Kind::kJoin, worker, round});
  return *this;
}

MembershipPlan& MembershipPlan::leave(int worker, int round) {
  events_.push_back({MembershipEvent::Kind::kLeave, worker, round});
  return *this;
}

MembershipPlan MembershipPlan::random(uint64_t seed, int max_workers,
                                      int rounds, double p_join,
                                      double p_leave, int min_active,
                                      int initial_active) {
  MembershipPlan plan(max_workers, initial_active);
  plan.seed_ = seed;
  min_active = std::max(1, min_active);
  // Track the live set while generating so leave events can respect
  // min_active without ever needing runtime coordination.
  std::vector<char> live(static_cast<size_t>(max_workers), 0);
  for (int w = 0; w < plan.initial_active_; ++w) live[static_cast<size_t>(w)] = 1;
  int n_live = plan.initial_active_;
  for (int r = 1; r < rounds; ++r) {
    // Leaves first (lowest slot first), so a join in the same round can
    // backfill capacity the leave just freed.
    for (int w = 0; w < max_workers; ++w) {
      if (live[static_cast<size_t>(w)] && n_live > min_active &&
          coin(seed, r, w, 0x1EAFull) < p_leave) {
        plan.leave(w, r);
        live[static_cast<size_t>(w)] = 0;
        --n_live;
      }
    }
    for (int w = 0; w < max_workers; ++w) {
      if (!live[static_cast<size_t>(w)] &&
          coin(seed, r, w, 0x10Bull) < p_join) {
        plan.join(w, r);
        live[static_cast<size_t>(w)] = 1;
        ++n_live;
      }
    }
  }
  return plan;
}

std::vector<int> MembershipPlan::active_at(int round) const {
  if (max_workers_ < 1)
    throw std::runtime_error(
        "elastic: active_at on a default-constructed (universe-less) plan");
  std::vector<char> live(static_cast<size_t>(max_workers_), 0);
  for (int w = 0; w < initial_active_; ++w) live[static_cast<size_t>(w)] = 1;
  // Replay in round order regardless of insertion order (manual plans may
  // interleave builder calls); stable so same-round events keep call order.
  std::vector<MembershipEvent> ordered(events_);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.round < b.round;
                   });
  for (const MembershipEvent& e : ordered) {
    if (e.round > round) continue;
    if (e.worker < 0 || e.worker >= max_workers_)
      throw std::runtime_error("elastic: membership event slot " +
                               std::to_string(e.worker) +
                               " outside universe [0, " +
                               std::to_string(max_workers_) + ")");
    char& flag = live[static_cast<size_t>(e.worker)];
    const bool joining = e.kind == MembershipEvent::Kind::kJoin;
    if (joining == static_cast<bool>(flag))
      throw std::runtime_error(
          "elastic: contradictory membership event for slot " +
          std::to_string(e.worker) + " at round " + std::to_string(e.round) +
          (joining ? " (join while active)" : " (leave while inactive)"));
    flag = joining ? 1 : 0;
  }
  std::vector<int> active;
  for (int w = 0; w < max_workers_; ++w)
    if (live[static_cast<size_t>(w)]) active.push_back(w);
  if (active.empty())
    throw std::runtime_error("elastic: membership plan empties the cluster "
                             "at round " + std::to_string(round));
  return active;
}

std::vector<MembershipEvent> MembershipPlan::events_at(int round) const {
  std::vector<MembershipEvent> out;
  for (const MembershipEvent& e : events_)
    if (e.round == round) out.push_back(e);
  return out;
}

}  // namespace pf::elastic
