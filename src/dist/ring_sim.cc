#include "dist/ring_sim.h"

#include <algorithm>
#include <stdexcept>

namespace pf::dist {

namespace {

const RingLink& link_at(const std::vector<RingLink>& links, int i) {
  if (links.empty()) throw std::runtime_error("ring_sim: no links");
  return links[static_cast<size_t>(i) % links.size()];
}

double transfer_time(const RingLink& l, int64_t bytes) {
  return l.latency_s + static_cast<double>(bytes) / l.bandwidth_bytes_per_s;
}

}  // namespace

RingLink link_from(const HardwareProfile& hw) {
  return {hw.alpha_s, hw.bandwidth_bytes_per_s};
}

RingSimResult simulate_ring_allreduce(int64_t bytes, int p,
                                      const std::vector<RingLink>& links) {
  RingSimResult r;
  if (p <= 1) return r;
  const int64_t chunk = (bytes + p - 1) / p;
  // Bulk-synchronous: each of the 2(p-1) rounds lasts as long as the
  // slowest link's chunk transfer.
  const int rounds = 2 * (p - 1);
  for (int round = 0; round < rounds; ++round) {
    double slowest = 0;
    for (int i = 0; i < p; ++i)
      slowest = std::max(slowest, transfer_time(link_at(links, i), chunk));
    r.makespan_s += slowest;
  }
  r.steps = rounds;
  r.bytes_per_link = chunk * rounds;
  return r;
}

RingSimResult simulate_ring_allgather(int64_t bytes_per_node, int p,
                                      const std::vector<RingLink>& links) {
  RingSimResult r;
  if (p <= 1) return r;
  const int rounds = p - 1;
  for (int round = 0; round < rounds; ++round) {
    double slowest = 0;
    for (int i = 0; i < p; ++i)
      slowest = std::max(slowest,
                         transfer_time(link_at(links, i), bytes_per_node));
    r.makespan_s += slowest;
  }
  r.steps = rounds;
  r.bytes_per_link = bytes_per_node * rounds;
  return r;
}

RingSimResult simulate_ring_allreduce_pipelined(
    int64_t bytes, int p, const std::vector<RingLink>& links) {
  RingSimResult r;
  if (p <= 1) return r;
  const int64_t chunk = (bytes + p - 1) / p;
  const int rounds = 2 * (p - 1);

  // In round t, node i forwards the chunk it received in round t-1 to node
  // i+1. Its send can start once (a) that chunk has arrived -- avail[i]
  // for this round -- and (b) its NIC is free from its previous send.
  std::vector<double> send_free(static_cast<size_t>(p), 0.0);
  std::vector<double> avail(static_cast<size_t>(p), 0.0);  // for round t
  double makespan = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> next_avail(static_cast<size_t>(p), 0.0);
    for (int i = 0; i < p; ++i) {
      const int dst = (i + 1) % p;
      const double start = std::max(send_free[static_cast<size_t>(i)],
                                    avail[static_cast<size_t>(i)]);
      const double done = start + transfer_time(link_at(links, i), chunk);
      send_free[static_cast<size_t>(i)] = done;
      next_avail[static_cast<size_t>(dst)] = done;  // enables dst next round
      makespan = std::max(makespan, done);
    }
    avail = std::move(next_avail);
  }
  r.makespan_s = makespan;
  r.steps = rounds;
  r.bytes_per_link = chunk * rounds;
  return r;
}

}  // namespace pf::dist
