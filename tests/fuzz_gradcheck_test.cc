// Randomized-graph gradient fuzzing: build random compositions of autograd
// ops and finite-difference-check every input. Catches interaction bugs the
// per-op checks cannot (broadcast-through-reshape, grad accumulation across
// shared subexpressions, deep mixed chains).
#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "tensor/rng.h"

namespace pf::ag {
namespace {

using pf::testing::gradcheck;

// Applies a random unary smooth op.
Var random_unary(Rng& rng, const Var& x) {
  switch (rng.uniform_int(5)) {
    case 0:
      return tanh(x);
    case 1:
      return sigmoid(x);
    case 2:
      return mul_scalar(x, static_cast<float>(rng.uniform(0.5, 2.0)));
    case 3:
      return add_scalar(x, static_cast<float>(rng.uniform(-1.0, 1.0)));
    default:
      return softmax(x);
  }
}

// Combines two same-shaped vars with a random smooth binary op.
Var random_binary(Rng& rng, const Var& a, const Var& b) {
  switch (rng.uniform_int(3)) {
    case 0:
      return add(a, b);
    case 1:
      return sub(a, b);
    default:
      return mul(a, b);
  }
}

class FuzzP : public ::testing::TestWithParam<int> {};

TEST_P(FuzzP, RandomElementwiseGraph) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const int64_t r = 2 + rng.uniform_int(3);
  const int64_t c = 2 + rng.uniform_int(4);
  Tensor x0 = rng.randn(Shape{r, c});
  Tensor x1 = rng.randn(Shape{r, c});
  const uint64_t graph_seed = rng.next_u64();

  gradcheck(
      [graph_seed](const std::vector<Var>& v) {
        Rng g(graph_seed);
        std::vector<Var> pool = {v[0], v[1]};
        for (int step = 0; step < 6; ++step) {
          const Var& a =
              pool[static_cast<size_t>(g.uniform_int(
                  static_cast<int64_t>(pool.size())))];
          if (g.bernoulli(0.5)) {
            pool.push_back(random_unary(g, a));
          } else {
            const Var& b = pool[static_cast<size_t>(g.uniform_int(
                static_cast<int64_t>(pool.size())))];
            pool.push_back(random_binary(g, a, b));
          }
        }
        // Mix both inputs into the output so every leaf receives a
        // gradient regardless of which pool entries the graph sampled.
        Var anchor = add(sum_all(v[0]), sum_all(v[1]));
        return add(mean_all(mul(pool.back(), pool.back())),
                   mul_scalar(anchor, 0.05f));
      },
      {x0, x1});
}

TEST_P(FuzzP, RandomMatmulChain) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  // x (a,b) @ w1 (b,c) -> unary -> @ w2 (c,d) -> reduce.
  const int64_t a = 2 + rng.uniform_int(2);
  const int64_t b = 2 + rng.uniform_int(3);
  const int64_t c = 2 + rng.uniform_int(3);
  const int64_t d = 1 + rng.uniform_int(3);
  const uint64_t graph_seed = rng.next_u64();
  gradcheck(
      [graph_seed](const std::vector<Var>& v) {
        Rng g(graph_seed);
        Var h = matmul(v[0], v[1]);
        h = random_unary(g, h);
        h = matmul(h, v[2]);
        // Reuse an input downstream to exercise grad accumulation.
        Var side = sum_all(mul(v[1], v[1]));
        return add(mean_all(mul(h, h)), mul_scalar(side, 0.1f));
      },
      {rng.randn(Shape{a, b}), rng.randn(Shape{b, c}),
       rng.randn(Shape{c, d})});
}

TEST_P(FuzzP, RandomShapeShuffleGraph) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 29);
  // 12 elements reshaped/transposed/sliced/concatenated at random, then a
  // smooth reduction.
  Tensor x = rng.randn(Shape{12});
  const uint64_t graph_seed = rng.next_u64();
  gradcheck(
      [graph_seed](const std::vector<Var>& v) {
        Rng g(graph_seed);
        Var h = reshape(v[0], g.bernoulli(0.5) ? Shape{3, 4} : Shape{4, 3});
        h = transpose(h, {1, 0});
        const int64_t len = h->value.size(0) / 2;
        Var s1 = slice(h, 0, 0, len);
        Var s2 = slice(h, 0, h->value.size(0) - len, len);
        Var joined = concat({s1, s2}, 1);
        joined = random_unary(g, joined);
        return mean_all(mul(joined, joined));
      },
      {x});
}

// Hybrid boundary layer: a dense conv feeding a factorized conv, the exact
// composition at the K-1 boundary of a Pufferfish hybrid network. The
// factorized side is the shipped nn::LowRankConv2d (one ag::lowrank_conv2d
// node) with its u and v params swapped for the checked leaves, so gradients are
// checked through the dense -> low-rank seam for stride-1 and stride-2
// factorized convs.
TEST_P(FuzzP, HybridBoundaryFactorizedConv) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 48611 + 17);
  const int64_t c = 2;                           // input channels
  const int64_t c1 = 2 + rng.uniform_int(2);     // dense conv out channels
  const int64_t r = 1 + rng.uniform_int(2);      // factorization rank
  const int64_t c2 = 2 + rng.uniform_int(2);     // factorized out channels
  const int64_t hw = 5 + rng.uniform_int(2);
  const int64_t stride = 1 + rng.uniform_int(2);
  nn::LowRankConv2d lr(c1, c2, /*kernel=*/3, stride, /*pad=*/1, r, rng);
  gradcheck(
      [&lr](const std::vector<Var>& v) {
        lr.u.param().var = v[2];
        lr.v.param().var = v[3];
        Var h = tanh(conv2d(v[0], v[1], 1, 1));
        h = lr.forward(h);
        return mean_all(mul(h, h));
      },
      {rng.randn(Shape{1, c, hw, hw}), rng.randn(Shape{c1, c, 3, 3}),
       rng.randn(lr.u->shape()), rng.randn(lr.v->shape())});
}

// The shipped LSTM layers (nn::LSTMLayer / nn::LowRankLSTMLayer, whose time
// loop is the hand-written BPTT of ag::lstm_recurrence) over T = 3 steps from
// a non-zero initial state. The loss reads the output and the final h and c,
// so every gradient path is checked: x, h0, c0, and every parameter. The
// leaves after x, h0, c0 are swapped into the layer's parameter Vars
// `slots`, which must cover all of its parameters.
void gradcheck_lstm_layer(nn::LstmBase& layer, const std::vector<Var*>& slots,
                          Rng& rng) {
  ASSERT_EQ(slots.size(), layer.parameters().size());
  const int64_t t_len = 3, b = 2, h = layer.hidden();
  std::vector<Tensor> inputs = {rng.randn(Shape{t_len, b, layer.input_dim()}),
                                rng.randn(Shape{b, h}), rng.randn(Shape{b, h})};
  for (Var* s : slots) inputs.push_back(rng.randn((*s)->shape()));
  const Tensor wy = rng.randn(Shape{t_len, b, h});
  gradcheck(
      [&](const std::vector<Var>& v) {
        for (size_t i = 0; i < slots.size(); ++i) *slots[i] = v[3 + i];
        nn::LstmState st{v[1], v[2]};
        Var y = layer.forward(v[0], &st);
        return add(add(mean_all(mul(y, leaf(wy))), mean_all(mul(st.h, st.c))),
                   mean_all(st.c));
      },
      inputs);
}

TEST_P(FuzzP, LowRankLstmGates) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 92821 + 41);
  const int64_t d = 2 + rng.uniform_int(2), h = 2 + rng.uniform_int(2);
  nn::LowRankLSTMLayer l(d, h, /*rank=*/1 + rng.uniform_int(2), rng);
  std::vector<Var*> slots;
  for (size_t g = 0; g < 4; ++g)
    for (nn::Weight* w : {&l.u_ih[g], &l.v_ih[g], &l.u_hh[g], &l.v_hh[g]})
      slots.push_back(&w->param().var);
  slots.push_back(&l.bias);
  gradcheck_lstm_layer(l, slots, rng);
}

TEST_P(FuzzP, LstmLayerGates) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7127 + 5);
  nn::LSTMLayer l(2 + rng.uniform_int(2), 2 + rng.uniform_int(2), rng);
  gradcheck_lstm_layer(
      l, {&l.w_ih.param().var, &l.w_hh.param().var, &l.bias}, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzP, ::testing::Range(0, 12));

}  // namespace
}  // namespace pf::ag
