#include "quant/delta.h"

#include <algorithm>
#include <stdexcept>

#include "core/factorize.h"
#include "kernels/kernels.h"
#include "nn/serialize.h"

namespace pf::quant {

int64_t DeltaModel::bytes() const {
  int64_t floats = 0;
  for (const DeltaEntry& e : entries)
    floats += e.lowrank ? e.u.numel() + e.v.numel() : e.dense.numel();
  return floats * static_cast<int64_t>(sizeof(float));
}

int64_t DeltaModel::lowrank_entries() const {
  int64_t n = 0;
  for (const DeltaEntry& e : entries) n += e.lowrank ? 1 : 0;
  return n;
}

DeltaModel compute_delta(nn::Module& base, nn::Module& variant,
                         const DeltaSpec& spec) {
  const std::vector<Tensor*> be = nn::checkpoint_tensors(base);
  const std::vector<Tensor*> ve = nn::checkpoint_tensors(variant);
  if (be.size() != ve.size())
    throw std::runtime_error("compute_delta: module trees differ in size");

  Rng rng(spec.seed);
  DeltaModel out;
  out.entries.reserve(be.size());
  for (size_t i = 0; i < be.size(); ++i) {
    const Tensor& wb = *be[i];
    const Tensor& wv = *ve[i];
    if (wb.shape() != wv.shape())
      throw std::runtime_error("compute_delta: tensor shape mismatch at " +
                               std::to_string(i));
    DeltaEntry e;
    e.shape = wb.shape();
    Tensor r = sub(wv, wb);
    const int64_t n = r.numel();
    if (n >= spec.min_numel && r.dim() >= 2) {
      // Factorize the 2-D view (size0, numel/size0) -- the same convention
      // quantization and the conv unrolling use.
      const int64_t rows = r.size(0), cols = n / r.size(0);
      Tensor r2 = r.reshape(Shape{rows, cols});
      int64_t rank = core::choose_rank_for_energy(r2, spec.energy);
      if (spec.max_rank > 0) rank = std::min(rank, spec.max_rank);
      if (rank * (rows + cols) < rows * cols) {
        core::FactorPair f = core::factorize_matrix(r2, rank, rng);
        e.lowrank = true;
        e.u = std::move(f.u);
        e.v = std::move(f.v);
        out.entries.push_back(std::move(e));
        continue;
      }
    }
    e.dense = std::move(r);
    out.entries.push_back(std::move(e));
  }
  return out;
}

void apply_delta(nn::Module& m, const DeltaModel& d) {
  const std::vector<Tensor*> es = nn::checkpoint_tensors(m);
  if (es.size() != d.entries.size())
    throw std::runtime_error("apply_delta: entry count mismatch (delta " +
                             std::to_string(d.entries.size()) + ", model " +
                             std::to_string(es.size()) + ")");
  for (size_t i = 0; i < es.size(); ++i) {
    Tensor& w = *es[i];
    const DeltaEntry& e = d.entries[i];
    if (w.shape() != e.shape)
      throw std::runtime_error("apply_delta: shape mismatch at " +
                               std::to_string(i));
    if (w.empty())
      throw std::runtime_error(
          "apply_delta: target master is released (apply before quantizing)");
    if (!e.lowrank) {
      w.add_(e.dense);
      continue;
    }
    const int64_t rows = e.u.size(0), rank = e.u.size(1), cols = e.v.size(0);
    Tensor rec(Shape{rows, cols});  // zero-filled: gemm_nt contract
    kernels::active().gemm_nt(e.u.data(), e.v.data(), rec.data(), rows, rank,
                              cols);
    w.add_(rec.reshape(e.shape));
  }
}

}  // namespace pf::quant
