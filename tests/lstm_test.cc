#include "nn/lstm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/factorize.h"
#include "kernels/kernels.h"
#include "runtime/thread_pool.h"
#include "tensor/matmul.h"

namespace pf::nn {
namespace {

TEST(LSTMLayer, OutputShape) {
  Rng rng(1);
  LSTMLayer lstm(6, 8, rng);
  ag::Var y = lstm.forward(ag::leaf(rng.randn(Shape{5, 3, 6})), nullptr);
  EXPECT_EQ(y->shape(), (Shape{5, 3, 8}));
}

TEST(LSTMLayer, ParamCountMatchesTable1) {
  Rng rng(2);
  const int64_t d = 10, h = 12;
  LSTMLayer lstm(d, h, rng);
  // 4(dh + h^2) weights + 4h combined bias.
  EXPECT_EQ(lstm.num_params(), 4 * (d * h + h * h) + 4 * h);
}

TEST(LSTMLayer, StateCarriesAcrossCalls) {
  Rng rng(3);
  LSTMLayer lstm(4, 5, rng);
  Tensor x = rng.randn(Shape{6, 2, 4});

  // One 6-step pass == two 3-step passes with carried state.
  ag::Var full = lstm.forward(ag::leaf(x), nullptr);

  LstmState st;
  ag::Var part1 =
      lstm.forward(ag::leaf(slice(x, 0, 0, 3)), &st);
  ag::Var part2 =
      lstm.forward(ag::leaf(slice(x, 0, 3, 3)), &st);
  Tensor joined = concat({part1->value, part2->value}, 0);
  EXPECT_TRUE(allclose(joined, full->value, 1e-4f, 1e-5f));
}

TEST(LSTMLayer, ZeroInputGivesBoundedOutput) {
  Rng rng(4);
  LSTMLayer lstm(4, 4, rng);
  ag::Var y = lstm.forward(ag::leaf(Tensor::zeros(Shape{3, 1, 4})), nullptr);
  // tanh(c) in (-1, 1) and output gate in (0, 1) => |h| < 1.
  EXPECT_LT(y->value.abs_max(), 1.0f);
}

TEST(LSTMLayer, GradientsFlowToAllParams) {
  Rng rng(5);
  LSTMLayer lstm(3, 4, rng);
  ag::Var y = lstm.forward(ag::leaf(rng.randn(Shape{4, 2, 3})), nullptr);
  ag::backward(ag::sum_all(ag::mul(y, y)));
  EXPECT_GT(lstm.w_ih->grad.norm(), 0.0f);
  EXPECT_GT(lstm.w_hh->grad.norm(), 0.0f);
  EXPECT_GT(lstm.bias->grad.norm(), 0.0f);
}

TEST(LowRankLSTM, ParamCountMatchesTable1) {
  Rng rng(6);
  const int64_t d = 10, h = 12, r = 3;
  LowRankLSTMLayer lstm(d, h, r, rng);
  // 4dr + 12hr (+ the 4h bias the paper's count keeps).
  EXPECT_EQ(lstm.num_params(), 4 * d * r + 12 * h * r + 4 * h);
}

TEST(LowRankLSTM, OutputShape) {
  Rng rng(7);
  LowRankLSTMLayer lstm(6, 8, 2, rng);
  ag::Var y = lstm.forward(ag::leaf(rng.randn(Shape{4, 3, 6})), nullptr);
  EXPECT_EQ(y->shape(), (Shape{4, 3, 8}));
}

TEST(LowRankLSTM, FullRankFactorizationReproducesVanilla) {
  // SVD at full rank is exact, so the factorized LSTM initialized from the
  // vanilla one must produce (numerically) identical outputs.
  Rng rng(8);
  const int64_t d = 6, h = 6;
  LSTMLayer vanilla(d, h, rng);
  LowRankLSTMLayer lowrank(d, h, /*rank=*/6, rng);
  Rng svd_rng(1);
  core::factorize_lstm(vanilla, lowrank, svd_rng);

  Tensor x = rng.randn(Shape{5, 2, d});
  ag::Var yv = vanilla.forward(ag::leaf(x), nullptr);
  ag::Var yl = lowrank.forward(ag::leaf(x), nullptr);
  EXPECT_TRUE(allclose(yl->value, yv->value, 1e-3f, 1e-3f));
}

TEST(LowRankLSTM, TruncatedFactorizationIsClose) {
  Rng rng(9);
  const int64_t d = 8, h = 8;
  LSTMLayer vanilla(d, h, rng);
  LowRankLSTMLayer lr6(d, h, 6, rng);
  LowRankLSTMLayer lr2(d, h, 2, rng);
  Rng r1(1), r2(2);
  core::factorize_lstm(vanilla, lr6, r1);
  core::factorize_lstm(vanilla, lr2, r2);

  Tensor x = rng.randn(Shape{4, 2, d});
  ag::Var yv = vanilla.forward(ag::leaf(x), nullptr);
  ag::Var y6 = lr6.forward(ag::leaf(x), nullptr);
  ag::Var y2 = lr2.forward(ag::leaf(x), nullptr);
  const float e6 = max_abs_diff(y6->value, yv->value);
  const float e2 = max_abs_diff(y2->value, yv->value);
  EXPECT_LE(e6, e2 + 1e-5f);  // more rank => closer
}

TEST(LowRankLSTM, GradientsFlowToAllFactors) {
  Rng rng(10);
  LowRankLSTMLayer lstm(3, 4, 2, rng);
  ag::Var y = lstm.forward(ag::leaf(rng.randn(Shape{3, 2, 3})), nullptr);
  ag::backward(ag::sum_all(ag::mul(y, y)));
  for (size_t g = 0; g < 4; ++g) {
    EXPECT_GT(lstm.u_ih[g]->grad.norm(), 0.0f) << "gate " << g;
    EXPECT_GT(lstm.v_ih[g]->grad.norm(), 0.0f) << "gate " << g;
    EXPECT_GT(lstm.u_hh[g]->grad.norm(), 0.0f) << "gate " << g;
    EXPECT_GT(lstm.v_hh[g]->grad.norm(), 0.0f) << "gate " << g;
  }
}

// ------------- Fused recurrence vs the per-step composition -------------

// Gate pre-activations (B, 4h) of one timestep from x_t and h_{t-1}.
using GateFn = std::function<ag::Var(const ag::Var& xt, const ag::Var& h)>;

// The per-step autograd composition the layers ran before the recurrence
// became one tape node (ag::lstm_recurrence): per timestep a slice of x, the
// gate pre-activations, and the cell built from elementwise ops.
ag::Var per_step_reference(const ag::Var& x, LstmState* st, int64_t hd,
                           const GateFn& gates_of) {
  const int64_t t_len = x->value.size(0), b = x->value.size(1),
                d = x->value.size(2);
  ag::Var h = st->h, c = st->c;
  std::vector<ag::Var> outputs;
  for (int64_t t = 0; t < t_len; ++t) {
    ag::Var xt = ag::reshape(ag::slice(x, 0, t, 1), Shape{b, d});
    ag::Var gates = gates_of(xt, h);
    ag::Var gi = ag::sigmoid(ag::slice(gates, 1, 0 * hd, hd));
    ag::Var gf = ag::sigmoid(ag::slice(gates, 1, 1 * hd, hd));
    ag::Var gg = ag::tanh(ag::slice(gates, 1, 2 * hd, hd));
    ag::Var go = ag::sigmoid(ag::slice(gates, 1, 3 * hd, hd));
    c = ag::add(ag::mul(gf, c), ag::mul(gi, gg));
    h = ag::mul(go, ag::tanh(c));
    outputs.push_back(ag::reshape(h, Shape{1, b, hd}));
  }
  st->h = h;
  st->c = c;
  return ag::concat(outputs, 0);
}

GateFn vanilla_gates(LSTMLayer& l) {
  return [&l](const ag::Var& xt, const ag::Var& h) {
    return ag::add(ag::add(ag::matmul_nt(xt, l.w_ih), ag::matmul_nt(h, l.w_hh)),
                   l.bias);
  };
}

GateFn lowrank_gates(LowRankLSTMLayer& l) {
  return [&l](const ag::Var& xt, const ag::Var& h) {
    std::vector<ag::Var> parts;
    for (size_t g = 0; g < 4; ++g)
      parts.push_back(ag::add(ag::lowrank_linear(xt, l.v_ih[g], l.u_ih[g]),
                              ag::lowrank_linear(h, l.v_hh[g], l.u_hh[g])));
    return ag::add(ag::concat(parts, 1), l.bias);
  };
}

// Output, final h and c, then the gradients of x, h0, c0 and every
// parameter, of one forward + backward. The loss reads the output and the
// final state through fixed random weights. `ref` selects the per-step
// composition instead of the layer's own forward.
std::vector<Tensor> forward_backward(LstmBase& layer, int64_t t_len, int64_t b,
                                     uint64_t seed,
                                     const GateFn* ref = nullptr) {
  Rng rng(seed);
  const int64_t hd = layer.hidden();
  ag::Var x = ag::leaf(rng.randn(Shape{t_len, b, layer.input_dim()}), true);
  LstmState st{ag::leaf(rng.randn(Shape{b, hd}), true),
               ag::leaf(rng.randn(Shape{b, hd}), true)};
  const ag::Var h0 = st.h, c0 = st.c;
  const ag::Var wy = ag::leaf(rng.randn(Shape{t_len, b, hd}));
  const ag::Var wh = ag::leaf(rng.randn(Shape{b, hd}));
  const ag::Var wc = ag::leaf(rng.randn(Shape{b, hd}));
  layer.zero_grad();
  ag::Var y =
      ref ? per_step_reference(x, &st, hd, *ref) : layer.forward(x, &st);
  ag::backward(ag::add(ag::add(ag::sum_all(ag::mul(y, wy)),
                               ag::sum_all(ag::mul(st.h, wh))),
                       ag::sum_all(ag::mul(st.c, wc))));
  std::vector<Tensor> out = {y->value, st.h->value, st.c->value,
                             x->grad,  h0->grad,    c0->grad};
  for (Param* p : layer.parameters()) out.push_back(p->var->grad);
  return out;
}

// The fused layers equal the per-step composition of the generic ops to
// 1e-5 relative: output, final state, and the gradients of the input, the
// initial state and every parameter. The two sum in different orders
// (hoisted input projection, one GEMM per weight gradient, the cell's own
// exp/tanh), so equality is not bitwise. "Relative" is to the tensor's
// largest entry, floored at 1% of the run's largest entry: a gradient whose
// terms cancel to a thousandth of their size (the rank-1 dV at B = 1: max
// 7.9e-4) keeps the absolute rounding of those terms (2.2e-8).
TEST(LstmFused, MatchesPerStepReference) {
  const int64_t d = 8, hd = 8;
  for (int64_t t_len : {1, 5}) {
    for (int64_t b : {1, 3}) {
      for (int64_t rank : {int64_t{0}, int64_t{1}, hd / 4, hd}) {
        Rng rng(static_cast<uint64_t>(100 + t_len * 10 + b + rank * 100));
        std::unique_ptr<LstmBase> layer;
        GateFn ref;
        if (rank == 0) {
          auto l = std::make_unique<LSTMLayer>(d, hd, rng);
          ref = vanilla_gates(*l);
          layer = std::move(l);
        } else {
          auto l = std::make_unique<LowRankLSTMLayer>(d, hd, rank, rng);
          ref = lowrank_gates(*l);
          layer = std::move(l);
        }
        const std::vector<Tensor> want =
            forward_backward(*layer, t_len, b, 7, &ref);
        const std::vector<Tensor> got = forward_backward(*layer, t_len, b, 7);
        ASSERT_EQ(got.size(), want.size());
        float run_max = 0.0f;
        for (const Tensor& w : want) run_max = std::max(run_max, w.abs_max());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].shape(), want[i].shape()) << "tensor " << i;
          const float scale = std::max(want[i].abs_max(), 0.01f * run_max);
          EXPECT_LE(max_abs_diff(got[i], want[i]), 1e-5f * scale)
              << "T " << t_len << " B " << b << " rank " << rank
              << " tensor " << i << " (0 y, 1 h_T, 2 c_T, 3 dx, 4 dh0, "
              << "5 dc0, then parameters)";
        }
      }
    }
  }
}

// Output and every gradient are bitwise identical at 1 and 4 kernel
// threads, per backend. The shapes are large enough that the post-loop
// weight-gradient GEMMs split into several row chunks.
TEST(LstmFused, BitwiseIdenticalAcrossThreadCounts) {
  const std::string prev = kernels::backend_name();
  auto check = [](const char* backend) {
    ASSERT_TRUE(kernels::set_backend(backend));
    const int64_t d = 64, hd = 64, t_len = 5, b = 16;
    for (int64_t rank : {int64_t{0}, int64_t{16}}) {
      Rng rng(21);
      std::unique_ptr<LstmBase> layer;
      if (rank == 0)
        layer = std::make_unique<LSTMLayer>(d, hd, rng);
      else
        layer = std::make_unique<LowRankLSTMLayer>(d, hd, rank, rng);
      runtime::set_threads(1);
      const std::vector<Tensor> one = forward_backward(*layer, t_len, b, 9);
      runtime::set_threads(4);
      const std::vector<Tensor> four = forward_backward(*layer, t_len, b, 9);
      runtime::set_threads(0);
      ASSERT_EQ(one.size(), four.size());
      for (size_t i = 0; i < one.size(); ++i)
        EXPECT_TRUE(one[i].shape() == four[i].shape() &&
                    std::memcmp(one[i].data(), four[i].data(),
                                static_cast<size_t>(one[i].numel()) *
                                    sizeof(float)) == 0)
            << backend << " rank " << rank << " tensor " << i;
    }
  };
  check("scalar");
  if (!kernels::avx2_supported()) {
    kernels::set_backend(prev.c_str());
    GTEST_SKIP() << "host CPU lacks AVX2/FMA; avx2 backend unavailable";
  }
  check("avx2");
  kernels::set_backend(prev.c_str());
}

}  // namespace
}  // namespace pf::nn
