// Gradient reducers: the communication strategies the paper benchmarks
// Pufferfish against (Section 4, Figures 4/6/7).
//
// Every reducer consumes the per-worker flat gradients of one step and
// produces the aggregated gradient the optimizer applies, while reporting
// (a) the *real* bytes each worker would transmit, (b) which collective the
// encoding is compatible with (the paper leans on allreduce-vs-allgather:
// sign/sparse encodings do not sum, so they must be allgathered and decoded
// per peer), and (c) measured encode/decode wall-clock. The distributed
// simulator prices (a) and (b) with dist::collective_seconds to produce the
// per-epoch breakdowns of Fig. 4.
//
// Contract for the time fields: `encode_seconds` is the total across all
// workers (the cluster divides by the node count, since real workers encode
// in parallel); `decode_seconds` is the cost *one* worker pays to decode
// (for allgather this already includes decoding all peers' payloads, which
// is exactly the linear-in-workers effect of appendix F).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/cost_model.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace pf::compress {

struct ReduceStats {
  int64_t payload_bytes_per_worker = 0;
  dist::Coll collective = dist::Coll::kAllreduce;
  int n_messages = 1;  // collective invocations this step
  double encode_seconds = 0;
  double decode_seconds = 0;
};

// Snapshot of a stateful reducer (error-feedback residuals, sign momentum,
// variance-gate moments). Captured into TrainState by core/checkpoint so a
// resumed run replays bitwise -- dropping a residual buffer on resume would
// silently re-lose the gradient mass error feedback exists to preserve.
struct ReducerState {
  std::vector<int64_t> scalars;
  std::vector<Tensor> tensors;
  bool empty() const { return scalars.empty() && tensors.empty(); }
};

class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual std::string name() const = 0;
  // `grads[i]` is worker i's flat gradient; `shapes` is the per-parameter
  // layout of that flat buffer (matrix-aware reducers need it). Returns the
  // aggregated gradient (mean convention) and fills `stats`.
  virtual Tensor reduce(const std::vector<Tensor>& grads,
                        const std::vector<Shape>& shapes,
                        ReduceStats* stats) = 0;

  // Deep-copied evolving state for snapshots; empty for stateless reducers
  // (and for stateful ones before their lazily initialized first step).
  virtual ReducerState state() const { return {}; }
  // Restores a state() capture. The base implementation accepts only an
  // empty state: handing a stateful snapshot to a reducer that cannot
  // replay it must fail loudly, not resume with silently reset buffers.
  virtual void set_state(const ReducerState& st);
};

// Uncompressed flat-buffer allreduce (the paper's optimized vanilla
// baseline and what Pufferfish itself uses on the factorized model).
class AllreduceReducer : public Reducer {
 public:
  std::string name() const override { return "allreduce"; }
  Tensor reduce(const std::vector<Tensor>& grads,
                const std::vector<Shape>& shapes, ReduceStats* stats) override;
};

// PowerSGD (Vogels et al.): per-matrix rank-r factorization with warm-started
// Q, Gram-Schmidt orthogonalization, per-worker error feedback, and two
// allreduce rounds (P then Q). 1-D parameters ride along uncompressed.
class PowerSgdReducer : public Reducer {
 public:
  PowerSgdReducer(int64_t rank, uint64_t seed);
  std::string name() const override;
  Tensor reduce(const std::vector<Tensor>& grads,
                const std::vector<Shape>& shapes, ReduceStats* stats) override;

 private:
  int64_t rank_;
  Rng rng_;
  // Warm-started Q per matrix param (index = param position in `shapes`).
  std::vector<Tensor> q_;
  // Per-worker, per-param error memory (flat segments).
  std::vector<std::vector<Tensor>> error_;
  bool initialized_ = false;
};

// SIGNUM (Bernstein et al.): sign of the per-worker momentum, majority vote.
// Signs do not sum, so the encoding allgathers 1 bit/coordinate/worker.
//
// Plain SIGNUM drops all gradient *magnitude* on the floor each step. With
// `error_feedback` set it becomes EF-signSGD (Karimireddy et al.): each
// worker sends its sign bits plus one mean-|.| scale, keeps the residual
// c_w - scale * sign(c_w) in a per-worker buffer, and replays it next step
// -- the update is then a scaled mean of signs rather than a bare majority
// vote. The flag defaults off so seed behaviour stays bitwise-identical.
class SignumReducer : public Reducer {
 public:
  explicit SignumReducer(float beta = 0.9f, bool error_feedback = false)
      : beta_(beta), error_feedback_(error_feedback) {}
  std::string name() const override {
    return error_feedback_ ? "signum-ef" : "signum";
  }
  Tensor reduce(const std::vector<Tensor>& grads,
                const std::vector<Shape>& shapes, ReduceStats* stats) override;
  ReducerState state() const override;
  void set_state(const ReducerState& st) override;

 private:
  float beta_;
  bool error_feedback_;
  std::vector<Tensor> momentum_;  // per worker
  std::vector<Tensor> error_;     // per worker (error_feedback_ only)
};

// Top-k sparsification of the flat gradient; payload is (index, value)
// pairs, allgathered. `error_feedback` (default on, the seed behaviour)
// accumulates the un-sent coordinates into a per-worker residual replayed
// on later steps; turning it off drops that mass -- kept as a switch so the
// convergence regression test can measure exactly what the residual buys.
class TopKReducer : public Reducer {
 public:
  explicit TopKReducer(double keep_ratio, bool error_feedback = true)
      : keep_ratio_(keep_ratio), error_feedback_(error_feedback) {}
  std::string name() const override {
    return error_feedback_ ? "topk" : "topk-noef";
  }
  Tensor reduce(const std::vector<Tensor>& grads,
                const std::vector<Shape>& shapes, ReduceStats* stats) override;
  ReducerState state() const override;
  void set_state(const ReducerState& st) override;

 private:
  double keep_ratio_;
  bool error_feedback_;
  std::vector<Tensor> error_;  // per worker (error_feedback_ only)
};

// Stochastic binary quantization (Suresh et al., appendix F): each worker
// sends per-coordinate bits plus (min, max); every worker dequantizes and
// averages all peers' payloads -- the decode cost that kills it at scale.
class BinaryQuantReducer : public Reducer {
 public:
  explicit BinaryQuantReducer(uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "binary-quant"; }
  Tensor reduce(const std::vector<Tensor>& grads,
                const std::vector<Shape>& shapes, ReduceStats* stats) override;

 private:
  Rng rng_;
};

// ATOMO (Wang et al., spectral variant): per step, each worker SVDs every
// matrix-shaped gradient and transmits an UNBIASED random sample of the
// singular triplets (importance sampling with probabilities p_i ~ s_i,
// value scaled by 1/p_i). This is the paper's Section 1 example of a
// compressor whose ENCODE cost (an SVD per matrix per step!) dominates --
// the cost Pufferfish pays exactly once per training run instead.
class AtomoReducer : public Reducer {
 public:
  // `budget` = number of singular triplets kept per matrix.
  AtomoReducer(int64_t budget, uint64_t seed) : budget_(budget), rng_(seed) {}
  std::string name() const override;
  Tensor reduce(const std::vector<Tensor>& grads,
                const std::vector<Shape>& shapes, ReduceStats* stats) override;

 private:
  int64_t budget_;
  Rng rng_;
};

}  // namespace pf::compress
