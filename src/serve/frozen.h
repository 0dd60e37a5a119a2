// Immutable inference artifacts ("engines") for the serving subsystem.
//
// A FrozenModel is what Pufferfish actually ships: the factorized network is
// dense and *smaller*, so at inference time it is simply a cheaper model --
// no decompression, no sparse kernels, nothing to undo (unlike gradient
// compression, which vanishes at deploy time anyway). Freezing a trained
// module does three things:
//
//  1. PACKS the parameters: every parameter tensor is copied once into a
//     single contiguous arena and rebound as a zero-copy view into it, so
//     the whole artifact is one buffer (cache-friendly walks, one
//     allocation, trivially shareable across serving workers).
//     BatchNorm running statistics deliberately stay in their own unique
//     buffers: the eval kernel reads them through a mutable handle, and a
//     uniquely-owned tensor makes that access copy-free and race-free.
//  2. FREEZES the tape: eval mode forever, requires_grad dropped on every
//     parameter, and every forward runs under ag::NoGradGuard through the
//     same core::eval_forward path the trainer's eval loops use -- which is
//     why FrozenModel outputs are bitwise-identical to module eval outputs.
//  3. Reuses runtime::BufferPool for activations: after prime() (one warmup
//     forward per batch size), steady-state requests are served with ZERO
//     system allocations -- every activation buffer is recycled from the
//     pool's free lists.
//
// Engines are thread-safe for concurrent forward_batch calls once primed:
// the forward path takes only const reads of the shared weights.
#pragma once

#include <memory>
#include <string>

#include "core/eval.h"
#include "models/lstm_lm.h"
#include "nn/module.h"
#include "serve/request.h"

namespace pf::serve {

// What a fleet worker (serve/fleet.h) drives: anything that can forward a
// batch of requests. Implementations write reqs[i]->output, or throw to fail
// the whole batch; the worker fulfils the promises (after recording latency)
// so engines stay oblivious to queueing.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;
  virtual void forward_batch(const std::vector<RequestPtr>& reqs) = 0;
};

namespace detail {
// Packs all parameters of `m` into one contiguous arena (returned), rebinds
// them as views, drops requires_grad, and puts the tree in eval mode.
Tensor freeze_and_pack(nn::Module& m);
}  // namespace detail

// Frozen image-classification engine over any nn::UnaryModule (vanilla or
// hybrid low-rank ResNet/VGG).
class FrozenModel : public Engine {
 public:
  // Takes ownership. If `checkpoint` is non-empty the weights are loaded
  // via nn::load_checkpoint (v1 artifacts fail loudly when corrupt) before
  // freezing.
  FrozenModel(std::unique_ptr<nn::UnaryModule> m, std::string name,
              const std::string& checkpoint = "");

  // Tape-free batched forward: (N, C, H, W) -> logits (N, classes).
  Tensor forward(const Tensor& nchw) const;

  // Stacks request inputs (each one sample (C, H, W)) into a batch, runs one
  // forward, and hands each request a zero-copy view of its logits row.
  void forward_batch(const std::vector<RequestPtr>& reqs) override;

  // Runs warmup forwards at batch sizes 1..max_batch so every activation
  // bucket the serving path will ever need is already in the buffer pool
  // (and any one-time COW unshares happen here, single-threaded, instead of
  // racing under concurrent workers).
  void prime(const Shape& sample_shape, int64_t max_batch);

  std::string name() const override { return name_; }
  int64_t num_params() const { return params_; }
  int64_t packed_bytes() const {
    return arena_.numel() * static_cast<int64_t>(sizeof(float));
  }
  nn::UnaryModule& module() { return *model_; }

 private:
  std::unique_ptr<nn::UnaryModule> model_;
  std::string name_;
  Tensor arena_;  // the packed parameter block (params are views into it)
  int64_t params_ = 0;
};

// Frozen LSTM language-model engine: requests carry a fixed-length token
// prefix; the response is the next-token logits row (the last timestep of
// the tied decoder output).
class FrozenLstm : public Engine {
 public:
  FrozenLstm(std::unique_ptr<models::LstmLm> m, int64_t seq_len,
             std::string name, const std::string& checkpoint = "");

  // ids: (t_len * b) time-major -> full logits (t_len * b, vocab).
  Tensor forward(const std::vector<int64_t>& ids, int64_t t_len,
                 int64_t b) const;

  void forward_batch(const std::vector<RequestPtr>& reqs) override;
  void prime(int64_t max_batch);

  std::string name() const override { return name_; }
  int64_t num_params() const { return params_; }
  int64_t seq_len() const { return seq_len_; }
  models::LstmLm& module() { return *model_; }

 private:
  std::unique_ptr<models::LstmLm> model_;
  int64_t seq_len_;
  std::string name_;
  Tensor arena_;
  int64_t params_ = 0;
};

}  // namespace pf::serve
