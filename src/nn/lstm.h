// LSTM layers: vanilla and per-gate low-rank factorized (paper Section 2.3,
// appendix Table 12). Gate order follows PyTorch: input, forget, cell, output.
//
// The vanilla layer keeps the four gates fused in one (4h, d) / (4h, h)
// matrix pair; the factorized layer stores per-gate (U, V) pairs exactly as
// the paper's Table 12 lists them (lstm.weight.i{i,f,g,o}_u/v,
// lstm.weight.h{i,f,g,o}_u/v). A single combined bias of size 4h per layer
// matches the paper's parameter count.
//
// A forward call projects the whole input sequence at once (one GEMM over
// all T*B rows for W_ih, one lowrank_linear per gate for the factorized
// layer, bias folded in) and then runs the time loop as one tape node,
// ag::lstm_recurrence, whose backward is a hand-written BPTT. Every weight
// matrix is an nn::Weight read once per call, so a quantized layer (eval
// only) runs the same forward on its dequantized weights, bit for bit.
#pragma once

#include <array>

#include "nn/layers.h"

namespace pf::nn {

// Recurrent state carried across forward calls (both tensors are (B, h)).
struct LstmState {
  ag::Var h;
  ag::Var c;
};

// Common interface so models can hold either variant.
class LstmBase : public Module {
 public:
  // x: (T, B, input_dim) -> (T, B, hidden). `state` (if non-null) supplies
  // the initial state and receives the final one (truncated BPTT style:
  // callers detach by re-leafing the tensors).
  virtual ag::Var forward(const ag::Var& x, LstmState* state) = 0;
  virtual int64_t hidden() const = 0;
  virtual int64_t input_dim() const = 0;
};

class LSTMLayer : public LstmBase {
 public:
  LSTMLayer(int64_t input_dim, int64_t hidden, Rng& rng);
  std::string type_name() const override { return "LSTMLayer"; }
  ag::Var forward(const ag::Var& x, LstmState* state) override;
  int64_t hidden() const override { return h_; }
  int64_t input_dim() const override { return d_; }

  Weight w_ih;   // (4h, d)
  Weight w_hh;   // (4h, h)
  ag::Var bias;  // (4h)

 private:
  int64_t d_, h_;
};

class LowRankLSTMLayer : public LstmBase {
 public:
  LowRankLSTMLayer(int64_t input_dim, int64_t hidden, int64_t rank, Rng& rng);
  std::string type_name() const override { return "LowRankLSTMLayer"; }
  ag::Var forward(const ag::Var& x, LstmState* state) override;
  int64_t hidden() const override { return h_; }
  int64_t input_dim() const override { return d_; }
  int64_t rank() const { return r_; }

  // Index by gate: 0=i, 1=f, 2=g, 3=o.
  std::array<Weight, 4> u_ih, v_ih;  // (h, r), (d, r)
  std::array<Weight, 4> u_hh, v_hh;  // (h, r), (h, r)
  ag::Var bias;                      // (4h)

 private:
  int64_t d_, h_, r_;
};

}  // namespace pf::nn
