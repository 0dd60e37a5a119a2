// Delta-compressed model variants (DESIGN.md §14).
//
// A per-tenant fine-tune rarely moves far from its base model, so the
// residual R = W_ft - W_base is much lower rank than the weights themselves.
// compute_delta() factorizes each residual with the existing truncated-SVD
// path (core::factorize_matrix) at the rank the energy criterion picks
// (core::choose_rank_for_energy), falling back to a dense residual whenever
// the factors would not actually be smaller. apply_delta() reconstructs
// W_base + U V^T in place, so N variants ship as one shared base artifact
// plus N small deltas and are materialized lazily per serving engine.
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"

namespace pf::quant {

struct DeltaSpec {
  // Retained squared spectral mass of each residual (rank via
  // core::choose_rank_for_energy).
  double energy = 0.95;
  int64_t max_rank = 0;     // 0 = uncapped
  int64_t min_numel = 4096; // smaller tensors are stored dense
  uint64_t seed = 0x5EEDD17Aull;  // sign-disambiguation seed for the SVD
};

struct DeltaEntry {
  bool lowrank = false;
  Shape shape;   // fp32 shape of the target tensor
  Tensor dense;  // residual (dense mode)
  Tensor u, v;   // (rows, r), (cols, r) of the 2-D residual (lowrank mode)
};

struct DeltaModel {
  std::vector<DeltaEntry> entries;
  int64_t bytes() const;           // payload floats * sizeof(float)
  int64_t lowrank_entries() const;
};

// base and variant must be structurally identical module trees.
DeltaModel compute_delta(nn::Module& base, nn::Module& variant,
                         const DeltaSpec& spec = {});

// In place: m (holding base weights) += reconstructed residuals. Must run
// before quantization -- the masters have to be fp32.
void apply_delta(nn::Module& m, const DeltaModel& d);

}  // namespace pf::quant
