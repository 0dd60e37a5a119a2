// The heart of Pufferfish (paper Section 3, Algorithm 1): truncated-SVD
// factorization of trained full-rank weights into low-rank (U, V) pairs, and
// the transfer between a dense model and its structurally parallel hybrid.
//
// Splitting rule (Algorithm 1): W = U~ S V~^T  =>  U = U~ S^{1/2},
// V^T = S^{1/2} V~^T, truncated at the layer's rank. Convolutions are
// factorized through their unrolled (c_in k^2, c_out) matrix; BatchNorm
// weights *and running statistics* carry over unchanged, as do biases.
//
// Each decision is stated once here: the rank rule (ratio_rank), the conv
// layout (unroll_conv / roll_conv) and the tree walk that warm_start,
// reproject and defactorize share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rank_policy.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "tensor/rng.h"

namespace pf::core {

// The paper's rank rule for an (m, n) weight (convolutions pass their
// unrolled (c_in k^2, c_out)): max(1, floor(ratio * min(m, n))), clamped to
// [1, min(m, n)] so no ratio can request an over-complete factorization.
int64_t ratio_rank(int64_t m, int64_t n, double ratio);

// The conv layout (Section 2.2). unroll_conv turns a (c, c_in, k, k) filter
// bank into the (c_in k^2, c) matrix whose column j is filter j, vectorized;
// roll_conv is its inverse. The dense weight unrolls with c = c_out, and the
// SVD's (c_in k^2, r) left factor rolls into the thin conv U (r, c_in, k, k).
Tensor unroll_conv(const Tensor& w);
Tensor roll_conv(const Tensor& unrolled, int64_t c_in, int64_t k);

struct FactorPair {
  Tensor u;  // (out, r)
  Tensor v;  // (in, r)
};

// Factorize a dense (out, in) matrix at `rank` with the S^{1/2} split.
// Throws std::runtime_error for a rank outside [1, min(out, in)].
FactorPair factorize_matrix(const Tensor& w, int64_t rank, Rng& rng);

// Relative Frobenius reconstruction error |W - U V^T| / |W|.
float reconstruction_error(const Tensor& w, const FactorPair& f);

// Dense layer -> low-rank layer weight transfer at dst's rank (shapes must
// agree).
void factorize_linear(const nn::Linear& src, nn::LowRankLinear& dst, Rng& rng);
void factorize_conv(const nn::Conv2d& src, nn::LowRankConv2d& dst, Rng& rng);
void factorize_lstm(const nn::LSTMLayer& src, nn::LowRankLSTMLayer& dst,
                    Rng& rng);

// ---- The transfer between structurally parallel trees ----
//
// warm_start, reproject and defactorize are one walk: identical module types
// are copied (params and buffers, so BN running stats survive), and each
// (Conv2d, LowRankConv2d), (Linear, LowRankLinear) and
// (LSTMLayer, LowRankLSTMLayer) pair is converted -- SVD-factorized towards
// the hybrid, densified (W = U V^T) away from it. Each throws if the trees
// are not parallel.

// Initializes a hybrid model from a partially trained vanilla one, each
// low-rank layer at its own rank (Algorithm 1's warm-up -> SVD transfer).
void warm_start(nn::Module& vanilla, nn::Module& hybrid, Rng& rng);

// Wall-clock seconds spent in SVD during the last warm_start call
// (appendix G measures this; it is the one-time cost Pufferfish pays).
double last_warm_start_svd_seconds();

// AB-Training-style periodic re-projection (DESIGN.md §15). Pufferfish
// freezes each layer's rank at the warm-up -> SVD boundary; the kAbReproject
// policy instead runs a full-rank refresh round every
// `RankPolicy::reproject_every` epochs: defactorize, train the dense model
// for one epoch so the spectrum can move, then reproject, letting each
// layer's rank shrink or grow under the energy criterion. The optimizer
// re-derives its slots afterwards (SGD::rebind_slots).
struct ReprojectEntry {
  std::string layer;  // e.g. "LowRankConv2d 576x64"
  int64_t old_rank = 0;
  int64_t new_rank = 0;
};

struct ReprojectReport {
  std::vector<ReprojectEntry> entries;
  double svd_seconds = 0;  // wall-clock spent re-SVD-ing
  bool any_rank_changed() const {
    for (const ReprojectEntry& e : entries)
      if (e.old_rank != e.new_rank) return true;
    return false;
  }
};

// Re-initializes `hybrid` from the (refresh-trained) `vanilla` model: the
// warm_start walk, except that each conv / linear layer is re-SVD-ed at the
// rank `policy` assigns its *current* dense weight (RankPolicy::rank_for),
// resizing the layer's U/V. LSTM layers re-SVD at their existing rank
// (their per-gate factor arrays keep a single shared rank). Returns what
// moved.
ReprojectReport reproject(nn::Module& vanilla, nn::Module& hybrid,
                          const RankPolicy& policy, Rng& rng);

// Reconstructs the dense model from a hybrid one: the inverse direction of
// the same walk.
void defactorize(nn::Module& hybrid, nn::Module& vanilla);

// Per-layer ranks of every low-rank layer in visit order, the snapshot
// payload for TrainState: under kAbReproject the ranks move, and resume
// re-shapes a freshly built hybrid (apply_ranks) before loading the tensor
// payload, because nn::load_checkpoint verifies shapes.
std::vector<int64_t> collect_ranks(nn::Module& hybrid);

// Re-targets every low-rank layer to `ranks` (same visit order), resizing
// its U/V tensors to the new shapes WITHOUT meaningful contents -- callers
// must immediately load a checkpoint over them. Validates each rank
// against [1, min(m, n)] and throws on count or bound mismatches.
void apply_ranks(nn::Module& hybrid, const std::vector<int64_t>& ranks);

// Smallest rank whose leading singular values retain `energy` of the
// squared spectral mass of `w` (sum s_i^2). The paper fixes a global rank
// ratio of 0.25 and cites per-layer rank allocation (Idelbayev et al.) as
// future work; this utility implements the energy-based allocation so the
// rank-policy ablation bench can compare the two.
int64_t choose_rank_for_energy(const Tensor& w, double energy,
                               int64_t min_rank = 1);

// Fraction of squared spectral mass the top `rank` singular values of `w`
// retain (the inverse question: what does rank ratio 0.25 keep?).
double retained_energy(const Tensor& w, int64_t rank);

}  // namespace pf::core
