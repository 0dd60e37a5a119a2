// Discrete-event simulation of the ring collectives.
//
// The repo prices communication with the closed-form alpha-beta
// expressions in cost_model.h. This module validates those formulas from
// first principles: it simulates the actual ring schedule -- reduce-scatter
// then allgather, 2(p-1) steps of one chunk each over point-to-point links
// with latency alpha and bandwidth B, allowing heterogeneous (straggler)
// links -- and reports the makespan. bench_ablation_ring_sim checks the
// closed form against the event simulation and quantifies what stragglers
// do to it (something the closed form cannot express).
#pragma once

#include <cstdint>
#include <vector>

#include "dist/hardware.h"

namespace pf::dist {

// One point-to-point ring link. It has no defaults: take one from a profile
// with link_from, so the event simulation and cost_model.h price the same
// link.
struct RingLink {
  double latency_s;
  double bandwidth_bytes_per_s;
};

// Projects a HardwareProfile's inter-node link onto a ring link.
RingLink link_from(const HardwareProfile& hw);

struct RingSimResult {
  double makespan_s = 0;       // total collective time
  int steps = 0;               // point-to-point rounds executed
  int64_t bytes_per_link = 0;  // total bytes each link carried
};

// Simulates a ring allreduce of `bytes` over p nodes. links[i] is the link
// node i -> node (i+1) % p; pass a single-element vector for homogeneous
// links. Each of the 2(p-1) rounds moves one chunk (bytes/p) across every
// link; a round completes when the SLOWEST link finishes (bulk-synchronous,
// like NCCL's ring with a barrier per step).
RingSimResult simulate_ring_allreduce(int64_t bytes, int p,
                                      const std::vector<RingLink>& links);

// Simulates a ring allgather where each node contributes `bytes_per_node`:
// (p-1) rounds, each moving one node's full contribution per link.
RingSimResult simulate_ring_allgather(int64_t bytes_per_node, int p,
                                      const std::vector<RingLink>& links);

// Pipelined variant: rounds are NOT barrier-synchronized; each node
// forwards a chunk as soon as it has received and reduced it. With
// homogeneous links this matches the bulk-synchronous makespan; with one
// slow link it shows how the pipeline drains behind the straggler.
RingSimResult simulate_ring_allreduce_pipelined(
    int64_t bytes, int p, const std::vector<RingLink>& links);

}  // namespace pf::dist
