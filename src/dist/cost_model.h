// The one alpha-beta communication model (Thakur, Rabenseifner & Gropp
// 2005 -- the model the paper's Section 4.1 latency argument is built on).
// Every collective in the repo is priced here: the data-parallel
// executor's priced comm column, the Figure 4/6/7 benches and the planner
// (src/plan/planner.h) all call collective_seconds over a HardwareProfile.
//
// Flat (single-level) closed forms, p ranks on one link (alpha per message,
// bandwidth B), all byte counts n as seen by ONE rank:
//
//   allreduce(n)       ring reduce-scatter + allgather:
//                        2(p-1) alpha + 2 n (p-1)/p / B
//   reduce_scatter(n)  half a ring allreduce:
//                        (p-1) alpha + n (p-1)/p / B
//   allgather(n)       n contributed per rank, ring:
//                        (p-1) alpha + n (p-1) / B
//   broadcast(n)       binomial tree:
//                        ceil(log2 p) (alpha + n / B)
//   all_to_all(n)      n split evenly across peers, serialized on the NIC:
//                        (p-1) alpha + n (p-1)/p / B
//
// `messages` is the number of separate calls that together carry the n
// bytes: it multiplies the latency terms only. That is why the paper packs
// all gradients into ONE flat buffer per iteration instead of one allreduce
// per layer (bench_fig4_distributed's "per-layer calls" column ablates it).
// The flat forms are validated against the discrete-event ring simulation
// (ring_sim.h) to <1% in tests/plan_test.cc.
//
// Two-level topologies (hw.workers_per_node = m > 1, g = p/m nodes) use the
// standard hierarchical decompositions (intra-node phase on the fast link,
// inter-node phase on the slow link, m concurrent shard-rings sharing each
// node's one NIC); see the per-case comments in cost_model.cc and DESIGN.md
// section 12 for the exact terms.
#pragma once

#include <cstdint>

#include "dist/hardware.h"

namespace pf::dist {

enum class Coll {
  kAllreduce,
  kReduceScatter,
  kAllgather,
  kBroadcast,
  kAllToAll,
};

const char* coll_name(Coll c);

// Flat single-link closed form (p ranks, one alpha/B link).
double collective_seconds_flat(Coll c, int64_t bytes, int p, double alpha_s,
                               double bandwidth_bytes_per_s,
                               int messages = 1);

// Profile-aware cost: flat when the profile is single-level or the job fits
// inside one node (p <= workers_per_node, priced on the intra link);
// hierarchical two-level otherwise. `p` is the total rank count.
double collective_seconds(Coll c, int64_t bytes, int p,
                          const HardwareProfile& hw, int messages = 1);

// PyTorch-DDP-style bucketed overlap, the repo's one DDP epoch model:
// backward produces gradient buckets of `bucket_bytes` (ready uniformly
// across the backward 2/3 of compute) that are allreduced on one serial
// channel while later layers still compute. Each bucket is priced by
// collective_seconds(kAllreduce, ...), so hierarchical profiles work too.
// Returns the modeled epoch time given the per-epoch compute time
// (forward + backward) and the total gradient bytes.
double overlap_epoch_seconds(double compute_s, int64_t grad_bytes, int p,
                             const HardwareProfile& hw,
                             int64_t bucket_bytes = 25 << 20);

}  // namespace pf::dist
