// Differentiable operations over `ag::Var`.
//
// Every op builds a tape node whose backward closure implements the exact
// adjoint; all of them are covered by finite-difference gradient checks in
// tests/autograd_test.cc (lstm_recurrence and lowrank_conv2d through the
// shipped layers, in tests/fuzz_gradcheck_test.cc). Broadcasting ops sum
// gradients to the operand shape: `reduce_to_shape`, broadcasting's adjoint.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"

namespace pf::ag {

// ---- Arithmetic (numpy-style broadcasting). ----
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);
Var neg(const Var& a);

// ---- Matrix products (2-D and batched 3-D). ----
Var matmul(const Var& a, const Var& b);     // (m,k)x(k,n)
Var matmul_nt(const Var& a, const Var& b);  // (m,k)x(n,k)^T
Var bmm(const Var& a, const Var& b);        // (b,m,k)x(b,k,n)
Var bmm_nt(const Var& a, const Var& b);     // (b,m,k)x(b,n,k)^T

// ---- Fused low-rank products (Pufferfish factorized layers). ----
// y = (x @ v) @ u^T for x (N, in), v (in, r), u (out, r): one kernel launch
// computing both factors in row blocks, so the (N, r) intermediate is only
// materialized when the node is taped (it is needed by the backward pass).
// Identical gradients -- and, on the scalar backend, identical bits -- to
// matmul(x, v) followed by matmul_nt(t, u).
Var lowrank_linear(const Var& x, const Var& v, const Var& u);

// Factorized convolution as one trainable node: x (N, C_in, H, W), u (r, C_in,
// k, k), v (C_out, r, 1, 1); y = 1x1 conv(conv(x, u), v), with V applied per
// chunk of samples to the chunk's rank-width GEMM output, never building the
// (N, r, oh, ow) intermediate. y, dX and dU match that two-conv composition
// bitwise per backend; dV sums per chunk of the k x k lowering.
Var lowrank_conv2d(const Var& x, const Var& u, const Var& v, int64_t stride,
                   int64_t pad);

// ---- Recurrence (LSTM, paper Section 2.3). ----
// One LSTM layer's whole time loop as a single tape node. `xproj` (T, B, 4h)
// is the input projection x W_ih^T + bias of every timestep, gate order
// i, f, g, o; h0 and c0 are (B, h). The recurrent weight is the dense
// w_hh (4h, h), or the four per-gate low-rank pairs v_hh[g] (h, r),
// u_hh[g] (h, r) with gate g's block of W_hh = u_hh[g] v_hh[g]^T (never
// densified: each step runs one (B, h) x (h, 4r) GEMM and four rank-width
// U products). Returns (T + 1, B, h): rows 0..T-1 are h_1..h_T and row T is
// c_T. The backward is a hand-written BPTT; the weight gradients are one
// GEMM per weight over all T*B rows after the loop.
Var lstm_recurrence(const Var& xproj, const Var& h0, const Var& c0,
                    const Var& w_hh);
Var lstm_recurrence(const Var& xproj, const Var& h0, const Var& c0,
                    const std::array<Var, 4>& v_hh,
                    const std::array<Var, 4>& u_hh);

// ---- Activations / elementwise. ----
Var relu(const Var& a);
Var sigmoid(const Var& a);
Var tanh(const Var& a);
Var exp(const Var& a);
Var log(const Var& a);

// ---- Shape. ----
Var reshape(const Var& a, Shape shape);
Var transpose(const Var& a, std::vector<int64_t> perm);
Var concat(const std::vector<Var>& parts, int64_t axis);
Var slice(const Var& a, int64_t axis, int64_t start, int64_t len);

// ---- Reductions. ----
Var sum_all(const Var& a);
Var mean_all(const Var& a);

// ---- Softmax / losses. ----
// Softmax over the last dimension.
Var softmax(const Var& a);
// Mean cross-entropy over rows of (N, C) logits. `targets` holds class ids;
// rows whose target equals `ignore_index` contribute nothing (used for
// padding in the translation task). `label_smoothing` implements the paper's
// ImageNet recipe (smoothing 0.1).
Var cross_entropy(const Var& logits, const std::vector<int64_t>& targets,
                  float label_smoothing = 0.0f, int64_t ignore_index = -100);

// ---- Convolution / pooling (NCHW). ----
// x: (N, C_in, H, W); w: (C_out, C_in, k, k). Bias-free (paper's conv nets
// use BatchNorm after every conv, so conv biases are omitted -- this is what
// makes the VGG-19 parameter count land exactly on 20,560,330).
Var conv2d(const Var& x, const Var& w, int64_t stride, int64_t pad);
Var maxpool2d(const Var& x, int64_t kernel, int64_t stride);
// Global average pooling: (N, C, H, W) -> (N, C).
Var global_avgpool(const Var& x);
// Average pooling with kernel/stride (used by ResNet variants on CIFAR).
Var avgpool2d(const Var& x, int64_t kernel, int64_t stride);

// ---- Normalization. ----
// 2-D batchnorm over (N, C, H, W); gamma/beta are (C). `running_*` are
// module-owned buffers updated in place during training.
Var batchnorm2d(const Var& x, const Var& gamma, const Var& beta,
                Tensor* running_mean, Tensor* running_var, bool training,
                float momentum = 0.1f, float eps = 1e-5f);
// Layer norm over the last dimension; gamma/beta are (last_dim).
Var layernorm(const Var& x, const Var& gamma, const Var& beta,
              float eps = 1e-6f);

// ---- Regularization / lookup. ----
// Inverted dropout; identity when !training or p == 0.
Var dropout(const Var& x, float p, bool training, Rng& rng);
// Embedding lookup: ids (flat, any length) into table (V, D) -> (len, D).
Var embedding(const std::vector<int64_t>& ids, const Var& table);
// x + mask where mask is a constant tensor broadcastable to x (attention
// masking: 0 for keep, -1e9 for masked positions).
Var add_constant(const Var& x, Tensor mask);

}  // namespace pf::ag
