#include "nn/lstm.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/init.h"

namespace pf::nn {

namespace {

std::pair<ag::Var, ag::Var> initial_state(const LstmState* state, int64_t b,
                                          int64_t h) {
  auto zeros = [&] { return ag::leaf(Tensor::zeros(Shape{b, h})); };
  return {(state && state->h) ? state->h : zeros(),
          (state && state->c) ? state->c : zeros()};
}

// Splits lstm_recurrence's (T + 1, B, h) value into the (T, B, h) output and
// the final state.
ag::Var split_output(const ag::Var& hc, LstmState* state) {
  const int64_t t_len = hc->value.size(0) - 1;
  const Shape bh{hc->value.size(1), hc->value.size(2)};
  if (state) {
    state->h = ag::reshape(ag::slice(hc, 0, t_len - 1, 1), bh);
    state->c = ag::reshape(ag::slice(hc, 0, t_len, 1), bh);
  }
  return ag::slice(hc, 0, 0, t_len);
}

}  // namespace

LSTMLayer::LSTMLayer(int64_t input_dim, int64_t hidden, Rng& rng)
    : d_(input_dim), h_(hidden) {
  // PyTorch LSTM init: U(-1/sqrt(h), 1/sqrt(h)) on every weight.
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden));
  w_ih = add_weight("w_ih",
                    init::uniform(Shape{4 * hidden, input_dim}, bound, rng));
  w_hh = add_weight("w_hh",
                    init::uniform(Shape{4 * hidden, hidden}, bound, rng));
  bias = add_param("bias", init::uniform(Shape{4 * hidden}, bound, rng),
                   /*no_decay=*/true);
}

ag::Var LSTMLayer::forward(const ag::Var& x, LstmState* state) {
  const int64_t t_len = x->value.size(0), b = x->value.size(1);
  auto [h0, c0] = initial_state(state, b, h_);
  ag::Var xproj = ag::add(
      ag::matmul_nt(ag::reshape(x, Shape{t_len * b, d_}), w_ih.read()), bias);
  return split_output(
      ag::lstm_recurrence(ag::reshape(xproj, Shape{t_len, b, 4 * h_}), h0, c0,
                          w_hh.read()),
      state);
}

LowRankLSTMLayer::LowRankLSTMLayer(int64_t input_dim, int64_t hidden,
                                   int64_t rank, Rng& rng)
    : d_(input_dim), h_(hidden), r_(rank) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden));
  // Factor pairs get sqrt(bound)-scaled entries so the product U V^T has the
  // same scale as a vanilla weight.
  const float fb = std::sqrt(bound);
  static const char* kGate = "ifgo";
  for (int gate = 0; gate < 4; ++gate) {
    const std::string g(1, kGate[gate]);
    u_ih[static_cast<size_t>(gate)] = add_weight(
        "u_i" + g, init::uniform(Shape{hidden, rank}, fb, rng));
    v_ih[static_cast<size_t>(gate)] = add_weight(
        "v_i" + g, init::uniform(Shape{input_dim, rank}, fb, rng));
    u_hh[static_cast<size_t>(gate)] = add_weight(
        "u_h" + g, init::uniform(Shape{hidden, rank}, fb, rng));
    v_hh[static_cast<size_t>(gate)] = add_weight(
        "v_h" + g, init::uniform(Shape{hidden, rank}, fb, rng));
  }
  bias = add_param("bias", init::uniform(Shape{4 * hidden}, bound, rng),
                   /*no_decay=*/true);
}

ag::Var LowRankLSTMLayer::forward(const ag::Var& x, LstmState* state) {
  const int64_t t_len = x->value.size(0), b = x->value.size(1);
  auto [h0, c0] = initial_state(state, b, h_);
  std::array<ag::Var, 4> ui, vi, uh, vh;
  for (size_t g = 0; g < 4; ++g) {
    ui[g] = u_ih[g].read();
    vi[g] = v_ih[g].read();
    uh[g] = u_hh[g].read();
    vh[g] = v_hh[g].read();
  }
  const ag::Var x2 = ag::reshape(x, Shape{t_len * b, d_});
  std::vector<ag::Var> gates;
  gates.reserve(4);
  for (size_t g = 0; g < 4; ++g)
    gates.push_back(ag::lowrank_linear(x2, vi[g], ui[g]));
  ag::Var xproj = ag::add(ag::concat(gates, 1), bias);
  return split_output(
      ag::lstm_recurrence(ag::reshape(xproj, Shape{t_len, b, 4 * h_}), h0, c0,
                          vh, uh),
      state);
}

}  // namespace pf::nn
