// LSTM recurrence as one tape node per layer call.
//
// Composed from the generic ops, one LSTM step cost about 30 tape nodes and
// up to 16 small GEMMs per layer, which made the factorized LSTM slower than
// the vanilla one despite its fewer MACs. Here the forward runs the T steps
// with raw backend GEMMs and a fused elementwise cell, saving only what
// BPTT reads, and the backward is written out by hand.
//
// Forward, step t (a_t: the (B, 4h) gate pre-activations):
//   a_t = xproj_t + h_{t-1} W^T
//   i, f, o = sigmoid(a_i, a_f, a_o);  g = tanh(a_g)
//   c_t = f c_{t-1} + i g;             h_t = o tanh(c_t)
// Backward, step t, from dh (output grad plus recurrent carry) and dc:
//   dc  += dh o (1 - tanh(c_t)^2)
//   da_i = dc g i (1 - i)              da_f = dc c_{t-1} f (1 - f)
//   da_g = dc i (1 - g^2)              da_o = dh tanh(c_t) o (1 - o)
//   dc_{t-1} = dc f;                   dh_{t-1} = dy_{t-1} + da_t W
// dxproj is the stacked da_t, and dW = sum_t da_t^T h_{t-1} reads nothing
// else from the loop, so it runs after it as one GEMM over all T*B rows.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "autograd/ops.h"
#include "kernels/kernels.h"
#include "tensor/matmul.h"
#include "trace/trace.h"

namespace pf::ag {

namespace {

void check(bool cond, const char* msg) {
  if (!cond) throw std::runtime_error(msg);
}

struct Dims {
  int64_t t, b, h;  // timesteps, batch, hidden
  int64_t rows() const { return t * b; }
};

// exp, sigmoid and tanh for the cell, branch-free so the compiler
// vectorizes the cell loop. With libm's expf / tanhf (3-15 ns a call on
// this loop's data) the cell took about 300 us of a 12-step recurrence's
// 350 us forward at the LM benchmark's shape (B = 8, h = 48; 4-core x86 VM).
// Cephes single-precision kernels, within about 2 ulp of the correctly
// rounded values. Every multiply-add in the cell is an explicit fma, so
// vectorized and scalar iterations of a loop give the same bits.
float exp_cell(float x) {
  x = std::clamp(x, -88.0f, 88.0f);
  // n = round(x / ln 2) by the 1.5 * 2^23 shifter (std::floor / nearbyint
  // keep the loop from vectorizing).
  const float shifter = 12582912.0f;
  const float n = std::fma(x, 1.44269504088896341f, shifter) - shifter;
  float r = std::fma(n, -0.693359375f, x);
  r = std::fma(n, 2.12194440e-4f, r);
  float p = 1.9875691500e-4f;
  p = std::fma(p, r, 1.3981999507e-3f);
  p = std::fma(p, r, 8.3334519073e-3f);
  p = std::fma(p, r, 4.1665795894e-2f);
  p = std::fma(p, r, 1.6666665459e-1f);
  p = std::fma(p, r, 5.0000001201e-1f);
  p = std::fma(p, r * r, r + 1.0f);
  // 2^n for n in [-127, 127] (n = -127 gives 0, below every sigmoid's use).
  const int32_t bits = (static_cast<int32_t>(n) + 127) << 23;
  return p * std::bit_cast<float>(bits);
}

float sigmoid(float x) { return 1.0f / (1.0f + exp_cell(-x)); }

float tanh_cell(float x) {
  const float z = std::fabs(x);
  const float big = 1.0f - 2.0f / (exp_cell(2.0f * z) + 1.0f);
  const float s = x * x;
  float p = -5.70498872745e-3f;
  p = std::fma(p, s, 2.06390887954e-2f);
  p = std::fma(p, s, -5.37397155531e-2f);
  p = std::fma(p, s, 1.33314422036e-1f);
  p = std::fma(p, s, -3.33332819422e-1f);
  const float small = std::fma(p * s, x, x);
  return z > 0.625f ? std::copysign(big, x) : small;
}

// Overwrites the pre-activations `a` (B, 4h) with the gate activations and
// writes c_t, tanh(c_t) and h_t (each (B, h)).
void cell_forward(float* __restrict a, const float* __restrict c_prev,
                  float* __restrict c, float* __restrict tc,
                  float* __restrict h, const Dims& d) {
  const int64_t hd = d.h;
  for (int64_t i = 0; i < d.b; ++i) {
    float* ai = a + i * 4 * hd;
    const int64_t o = i * hd;
    for (int64_t j = 0; j < hd; ++j) {
      const float ig = sigmoid(ai[j]);
      const float fg = sigmoid(ai[hd + j]);
      const float gg = tanh_cell(ai[2 * hd + j]);
      const float og = sigmoid(ai[3 * hd + j]);
      ai[j] = ig;
      ai[hd + j] = fg;
      ai[2 * hd + j] = gg;
      ai[3 * hd + j] = og;
      const float cn = std::fma(fg, c_prev[o + j], ig * gg);
      const float tcn = tanh_cell(cn);
      c[o + j] = cn;
      tc[o + j] = tcn;
      h[o + j] = og * tcn;
    }
  }
}

// One step of BPTT through the cell: from dh and dc (dc updated in place to
// dc_{t-1}) and the step's saved activations, writes da (B, 4h).
void cell_backward(const float* __restrict act, const float* __restrict tc,
                   const float* __restrict c_prev, const float* __restrict dh,
                   float* __restrict dc, float* __restrict da, const Dims& d) {
  const int64_t hd = d.h;
  for (int64_t i = 0; i < d.b; ++i) {
    const float* ai = act + i * 4 * hd;
    float* dai = da + i * 4 * hd;
    const int64_t o = i * hd;
    for (int64_t j = 0; j < hd; ++j) {
      const float ig = ai[j], fg = ai[hd + j], gg = ai[2 * hd + j],
                  og = ai[3 * hd + j];
      const float dhv = dh[o + j], tcv = tc[o + j];
      const float dcv =
          std::fma(dhv * og, std::fma(-tcv, tcv, 1.0f), dc[o + j]);
      dai[j] = dcv * gg * ig * (1.0f - ig);
      dai[hd + j] = dcv * c_prev[o + j] * fg * (1.0f - fg);
      dai[2 * hd + j] = dcv * ig * std::fma(-gg, gg, 1.0f);
      dai[3 * hd + j] = dhv * tcv * og * (1.0f - og);
      dc[o + j] = dcv * fg;
    }
  }
}

// Dense recurrent weight w (4h, h): one (B, h) x (h, 4h) GEMM per step.
class DenseRecurrence {
 public:
  DenseRecurrence(const Var& w, const Dims& d)
      : w_(w), wt_(w->value.t()), d_(d) {}
  std::vector<Var> weights() const { return {w_}; }
  int64_t macs_per_row() const { return 4 * d_.h * d_.h; }

  // a (B, 4h) += hp (B, h) W^T.
  void step(int64_t, const float* hp, float* a) {
    kernels::active().gemm_nn(hp, std::as_const(wt_).data(), a, d_.b, d_.h,
                              4 * d_.h);
  }
  // dhp (B, h) += da (B, 4h) W.
  void step_back(int64_t, const float* da, float* dhp) {
    kernels::active().gemm_nn(da, std::as_const(w_->value).data(), dhp, d_.b,
                              4 * d_.h, d_.h);
  }
  // From h_0..h_{T-1} (T*B, h) and every step's da (T*B, 4h).
  void weight_grads(const Tensor& hprev, const Tensor& da) {
    if (w_->requires_grad) w_->accumulate(pf::matmul_tn(da, hprev));
  }

 private:
  Var w_;
  Tensor wt_;  // W^T (h, 4h), once per call
  Dims d_;
};

// Per-gate low-rank weights: gate g's block is u[g] v[g]^T. A step runs one
// (B, h) x (h, 4r) GEMM against the concatenated V and four (B, r) x (r, h)
// U products; the per-gate (B, r) operands are gathered into contiguous
// (4, T*B, r) storage that the backward reuses for dU.
class LowRankRecurrence {
 public:
  LowRankRecurrence(const std::array<Var, 4>& v, const std::array<Var, 4>& u,
                    const Dims& d)
      : v_(v), u_(u), d_(d), r_(v[0]->value.size(1)) {
    const int64_t h = d.h, r = r_, r4 = 4 * r;
    vcat_ = Tensor::uninit(Shape{h, r4});
    float* vc = vcat_.data();
    for (size_t g = 0; g < 4; ++g) {
      const float* vg = std::as_const(v[g]->value).data();
      for (int64_t k = 0; k < h; ++k)
        std::copy(vg + k * r, vg + (k + 1) * r,
                  vc + k * r4 + static_cast<int64_t>(g) * r);
      ut_[g] = u[g]->value.t();
    }
    vcat_t_ = vcat_.t();
    t_ = Tensor(Shape{d.b, r4});
    z_ = Tensor(Shape{d.b, h});
    dt_ = Tensor(Shape{d.b, r4});
    tg_ = Tensor::uninit(Shape{4, d.rows(), r});
  }
  std::vector<Var> weights() const {
    return {v_[0], v_[1], v_[2], v_[3], u_[0], u_[1], u_[2], u_[3]};
  }
  int64_t macs_per_row() const { return 4 * r_ * 2 * d_.h; }

  // a (B, 4h) += sum_g hp v_g u_g^T into gate g's columns.
  void step(int64_t t, const float* hp, float* a) {
    const kernels::Backend& be = kernels::active();
    const int64_t b = d_.b, h = d_.h, r = r_, r4 = 4 * r;
    float* tt = t_.data();
    std::fill(tt, tt + b * r4, 0.0f);
    be.gemm_nn(hp, std::as_const(vcat_).data(), tt, b, h, r4);
    float* z = z_.data();
    for (int64_t g = 0; g < 4; ++g) {
      float* tg = tg_.data() + (g * d_.rows() + t * b) * r;
      for (int64_t i = 0; i < b; ++i)
        std::copy(tt + i * r4 + g * r, tt + i * r4 + (g + 1) * r, tg + i * r);
      std::fill(z, z + b * h, 0.0f);
      be.gemm_nn(tg, std::as_const(ut_[static_cast<size_t>(g)]).data(), z, b,
                 r, h);
      for (int64_t i = 0; i < b; ++i) {
        float* ag = a + i * 4 * h + g * h;
        const float* zi = z + i * h;
        for (int64_t j = 0; j < h; ++j) ag[j] += zi[j];
      }
    }
  }
  // dhp (B, h) += sum_g (da_g u_g) v_g^T; keeps da_g and da_g u_g per gate.
  void step_back(int64_t t, const float* da, float* dhp) {
    const kernels::Backend& be = kernels::active();
    const int64_t b = d_.b, h = d_.h, r = r_, r4 = 4 * r;
    if (dag_.empty()) {  // first backward step; eval forwards never get here
      dag_ = Tensor::uninit(Shape{4, d_.rows(), h});
      dtg_ = Tensor::uninit(Shape{4, d_.rows(), r});
    }
    float* dt = dt_.data();
    for (int64_t g = 0; g < 4; ++g) {
      float* dag = dag_.data() + (g * d_.rows() + t * b) * h;
      float* dtg = dtg_.data() + (g * d_.rows() + t * b) * r;
      for (int64_t i = 0; i < b; ++i)
        std::copy(da + i * 4 * h + g * h, da + i * 4 * h + (g + 1) * h,
                  dag + i * h);
      std::fill(dtg, dtg + b * r, 0.0f);
      be.gemm_nn(dag, std::as_const(u_[static_cast<size_t>(g)]->value).data(),
                 dtg, b, h, r);
      for (int64_t i = 0; i < b; ++i)
        std::copy(dtg + i * r, dtg + (i + 1) * r, dt + i * r4 + g * r);
    }
    be.gemm_nn(dt, std::as_const(vcat_t_).data(), dhp, b, r4, h);
  }
  // dU_g = da_g^T (h_{t-1} v_g) and dV_g = h_{t-1}^T (da_g u_g) over all
  // T*B rows.
  void weight_grads(const Tensor& hprev, const Tensor&) {
    const Shape gate_h{d_.rows(), d_.h}, gate_r{d_.rows(), r_};
    for (size_t g = 0; g < 4; ++g) {
      const int64_t gi = static_cast<int64_t>(g);
      if (u_[g]->requires_grad)
        u_[g]->accumulate(pf::matmul_tn(dag_.narrow(gi, 1).reshape(gate_h),
                                        tg_.narrow(gi, 1).reshape(gate_r)));
      if (v_[g]->requires_grad)
        v_[g]->accumulate(
            pf::matmul_tn(hprev, dtg_.narrow(gi, 1).reshape(gate_r)));
    }
  }

 private:
  std::array<Var, 4> v_, u_;
  Dims d_;
  int64_t r_;
  Tensor vcat_, vcat_t_;    // [v_i | v_f | v_g | v_o] (h, 4r) and its (4r, h)
  std::array<Tensor, 4> ut_;  // u_g^T (r, h)
  Tensor t_, z_, dt_;         // per-step scratch: (B, 4r), (B, h), (B, 4r)
  Tensor tg_, dag_, dtg_;     // per gate, all steps: h v_g, da_g, da_g u_g
};

Dims check_dims(const Var& xproj, const Var& h0, const Var& c0) {
  check(xproj->value.dim() == 3, "lstm_recurrence: xproj must be (T, B, 4h)");
  check(h0->value.dim() == 2 && h0->shape() == c0->shape(),
        "lstm_recurrence: h0, c0 must both be (B, h)");
  const Dims d{xproj->value.size(0), h0->value.size(0), h0->value.size(1)};
  check(d.t >= 1, "lstm_recurrence: at least one timestep");
  check(xproj->value.size(1) == d.b && xproj->value.size(2) == 4 * d.h,
        "lstm_recurrence: xproj must be (T, B, 4h) for (B, h) state");
  return d;
}

template <class Rec>
Var recurrence(const Var& xproj, const Var& h0, const Var& c0,
               std::shared_ptr<Rec> rec, const Dims& d) {
  const int64_t bh = d.b * d.h, bg = 4 * bh;
  PF_TRACE_SCOPE_C("lstm_recurrence", d.rows() * rec->macs_per_row());
  // hs holds h_0..h_T and then c_T: the node's value is the view of rows
  // 1..T+1, and the weight-gradient operand h_0..h_{T-1} that of rows 0..T-1.
  Tensor hs = Tensor::uninit(Shape{d.t + 2, d.b, d.h});
  Tensor cs = Tensor::uninit(Shape{d.t + 1, d.b, d.h});  // c_0..c_T
  Tensor tcs = Tensor::uninit(Shape{d.t, d.b, d.h});     // tanh(c_1..c_T)
  Tensor acts = Tensor::uninit(Shape{d.t, d.b, 4 * d.h});  // i, f, g, o
  float* hp = hs.data();
  float* cp = cs.data();
  float* tcp = tcs.data();
  float* ap = acts.data();
  const float* xp = std::as_const(xproj->value).data();
  const float* h0p = std::as_const(h0->value).data();
  const float* c0p = std::as_const(c0->value).data();
  std::copy(h0p, h0p + bh, hp);
  std::copy(c0p, c0p + bh, cp);
  for (int64_t t = 0; t < d.t; ++t) {
    float* a = ap + t * bg;
    std::copy(xp + t * bg, xp + (t + 1) * bg, a);
    rec->step(t, hp + t * bh, a);
    cell_forward(a, cp + t * bh, cp + (t + 1) * bh, tcp + t * bh,
                 hp + (t + 1) * bh, d);
  }
  std::copy(cp + d.t * bh, cp + (d.t + 1) * bh, hp + (d.t + 1) * bh);

  std::vector<Var> inputs = {xproj, h0, c0};
  for (const Var& w : rec->weights()) inputs.push_back(w);
  Tensor out = hs.narrow(1, d.t + 1);
  return make_node(
      std::move(out), std::move(inputs),
      [rec, d, bh, bg, hs, cs, tcs, acts](Node& n) {
        PF_TRACE_SCOPE_C("lstm_bptt", 2 * d.rows() * rec->macs_per_row());
        const Tensor& gr = n.grad;  // const read: no COW unshare
        const float* gp = gr.data();
        const float* ap = acts.data();
        const float* tcp = tcs.data();
        const float* cp = cs.data();
        Tensor da = Tensor::uninit(Shape{d.t, d.b, 4 * d.h});
        Tensor dh = Tensor::uninit(Shape{d.b, d.h});
        Tensor dc = Tensor::uninit(Shape{d.b, d.h});
        float* dap = da.data();
        float* dhp = dh.data();
        float* dcp = dc.data();
        // Grad rows 0..T-1 are dL/dh_1..dL/dh_T, row T is dL/dc_T.
        std::copy(gp + (d.t - 1) * bh, gp + d.t * bh, dhp);
        std::copy(gp + d.t * bh, gp + (d.t + 1) * bh, dcp);
        for (int64_t t = d.t - 1; t >= 0; --t) {
          cell_backward(ap + t * bg, tcp + t * bh, cp + t * bh, dhp, dcp,
                        dap + t * bg, d);
          if (t > 0)
            std::copy(gp + (t - 1) * bh, gp + t * bh, dhp);
          else
            std::fill(dhp, dhp + bh, 0.0f);
          rec->step_back(t, dap + t * bg, dhp);
        }
        const Var& xproj = n.inputs[0];
        const Var& h0 = n.inputs[1];
        const Var& c0 = n.inputs[2];
        if (h0->requires_grad) h0->accumulate(dh);
        if (c0->requires_grad) c0->accumulate(dc);
        rec->weight_grads(hs.narrow(0, d.t).reshape(Shape{d.rows(), d.h}),
                          da.reshape(Shape{d.rows(), 4 * d.h}));
        if (xproj->requires_grad) xproj->accumulate(da);
      });
}

}  // namespace

Var lstm_recurrence(const Var& xproj, const Var& h0, const Var& c0,
                    const Var& w_hh) {
  const Dims d = check_dims(xproj, h0, c0);
  check(w_hh->shape() == Shape({4 * d.h, d.h}),
        "lstm_recurrence: w_hh must be (4h, h)");
  return recurrence(xproj, h0, c0, std::make_shared<DenseRecurrence>(w_hh, d),
                    d);
}

Var lstm_recurrence(const Var& xproj, const Var& h0, const Var& c0,
                    const std::array<Var, 4>& v_hh,
                    const std::array<Var, 4>& u_hh) {
  const Dims d = check_dims(xproj, h0, c0);
  const int64_t r = v_hh[0]->value.dim() == 2 ? v_hh[0]->value.size(1) : 0;
  for (size_t g = 0; g < 4; ++g)
    check(r >= 1 && v_hh[g]->shape() == Shape({d.h, r}) &&
              u_hh[g]->shape() == Shape({d.h, r}),
          "lstm_recurrence: v_hh[g] and u_hh[g] must all be (h, r)");
  return recurrence(xproj, h0, c0,
                    std::make_shared<LowRankRecurrence>(v_hh, u_hh, d), d);
}

}  // namespace pf::ag
