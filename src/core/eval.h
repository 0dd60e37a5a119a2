// Tape-free batched forwards shared by the trainer evaluation loops and the
// serving engines (serve::FrozenModel / serve::FrozenLstm).
//
// Before this existed, evaluate_vision / evaluate_lm / the MT evaluation each
// open-coded the same NoGradGuard + train(false) + forward dance; a serving
// path that re-implemented it a fourth time could silently drift (e.g. one
// caller forgetting the guard and taping an eval forward). Everything that
// runs a model without a tape now goes through these three functions, so
// eval and serving are the same code path by construction -- which is also
// what makes the "FrozenModel forward is bitwise-identical to module eval
// forward" serving guarantee trivially true.
//
// Contract: the model must already be in eval mode (dropout off, BatchNorm
// reading running stats). These functions do NOT toggle train mode -- a
// frozen serving engine is permanently in eval mode and toggling it per
// batch would be a data race under concurrent serving workers. Training
//-loop callers use EvalModeGuard to flip and restore the mode around the
// whole eval sweep.
#pragma once

#include <vector>

#include "models/lstm_lm.h"
#include "models/transformer_mt.h"
#include "nn/module.h"

namespace pf::core {

// RAII: puts a module in eval mode, restores the previous mode on exit.
class EvalModeGuard {
 public:
  explicit EvalModeGuard(nn::Module& m) : m_(m), prev_(m.is_training()) {
    m_.train(false);
  }
  ~EvalModeGuard() { m_.train(prev_); }
  EvalModeGuard(const EvalModeGuard&) = delete;
  EvalModeGuard& operator=(const EvalModeGuard&) = delete;

 private:
  nn::Module& m_;
  bool prev_;
};

// One tape-free forward of an image batch (N, C, H, W) -> logits (N, classes).
Tensor eval_forward(nn::UnaryModule& model, const Tensor& nchw);

// One tape-free LM forward: time-major ids (T*B) -> logits (T*B, vocab).
// `state` (may be null) carries hidden state across truncated-BPTT segments;
// the caller detaches it between segments exactly as in training eval.
Tensor eval_forward_lm(models::LstmLm& model, const std::vector<int64_t>& ids,
                       int64_t t_len, int64_t b,
                       std::vector<nn::LstmState>* state);

// One tape-free translation forward -> logits (B*tgt_len, vocab).
Tensor eval_forward_mt(models::TransformerMT& model,
                       const std::vector<int64_t>& src, int64_t src_len,
                       const std::vector<int64_t>& tgt_in, int64_t tgt_len,
                       int64_t b);

}  // namespace pf::core
