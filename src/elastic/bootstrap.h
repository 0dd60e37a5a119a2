// Joiner bootstraps for elastic membership (DESIGN.md §16).
//
// When a slot (re)joins the cluster its replica is stale, so it must be
// brought up to the canonical state before it may touch the ring. Two
// modes:
//
//  * kExact -- the donor's full state (params AND buffers, plus the
//    optimizer slots) copied verbatim by runtime::ShmDataParallelTrainer::
//    sync_replica, the same copy every intra-cluster re-sync (backup-worker
//    activation, staleness catch-up, kill recovery) uses. Lossless: the
//    joiner is bitwise in sync, including BatchNorm running statistics. For
//    a hybrid (factorized) model this is already the paper's win: the
//    factors U, V ship instead of the full-rank W.
//  * kDelta -- a low-rank-factorized residual of the canonical weights vs
//    a shared base model every joiner already holds (quant::compute_delta,
//    the §14 machinery), with optimizer momentum restarted at zero. Far
//    fewer bytes than even the factorized state; approximate, bounded by
//    the delta spec's retained energy, and still seed-deterministic so
//    chaos runs replay bitwise.
//
// The shm cluster moves both by memcpy, but their byte counts are priced
// as wire traffic so bench_elastic can price joins on a real network.
#pragma once

#include "nn/module.h"
#include "optim/optim.h"
#include "quant/delta.h"

namespace pf::elastic {

enum class BootstrapMode {
  kExact,  // full state, lossless
  kDelta,  // low-rank residual vs shared base + momentum restart, lossy
};

const char* to_string(BootstrapMode mode);

// Installs a kDelta payload into joiner `dst` / its optimizer: resets dst
// to the shared `base` (params and buffers), reconstructs base + UV^T in
// place, and zeroes the optimizer slots. `delta` is
// quant::compute_delta(base, canonical); its wire size is delta.bytes().
// Checks every entry against `base` and `delta` before the first write, so
// a joiner whose module tree differs is left untouched when it throws.
void apply_bootstrap(nn::Module& dst, optim::Optimizer& opt,
                     const quant::DeltaModel& delta, nn::Module& base);

}  // namespace pf::elastic
