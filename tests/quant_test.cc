// src/quant tests: post-training quantization (kernels, module lifecycle,
// accuracy gate), delta-compressed variants, and the v2 checkpoint format
// (round-trips, corruption, torn writes). The quantized
// forwards' thread-count determinism also runs under ctest pf_tests_threads4
// (PF_THREADS=4) via the Quant* filter entry.
#include "quant/quantize.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "kernels/kernels.h"
#include "kernels/qmat.h"
#include "models/resnet.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/serialize.h"
#include "quant/delta.h"
#include "quant/qcheckpoint.h"
#include "runtime/thread_pool.h"

namespace pf::quant {
namespace {

std::string tmp_path(const char* name) {
  // getpid(): the same test code runs concurrently in the plain binary and
  // the sanitizer ctest entries; a shared /tmp name lets one process
  // clobber the other's files mid-run.
  return std::string(::testing::TempDir()) + name + "." +
         std::to_string(::getpid());
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

std::unique_ptr<nn::UnaryModule> tiny_hybrid(uint64_t seed) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.125;  // big enough that conv layers clear min_numel
  cfg.first_lowrank_block = 2;
  cfg.rank_ratio = 0.25;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

struct ThreadGuard {
  ~ThreadGuard() { runtime::set_threads(0); }
};

// Every module of the tree, depth-first.
void for_each_module(nn::Module& m, const std::function<void(nn::Module&)>& f) {
  f(m);
  for (nn::Module* c : m.children()) for_each_module(*c, f);
}

// Quantizes every weight of `m` through quantize_module (no size gate) and
// makes each fp32 master the reference the quantized forward must equal:
// the dequantized slot, in the weight's own shape. The dequantized values
// equal dequant_at element for element. Returns the matrices quantized.
int64_t quantize_with_reference(nn::Module& m, kernels::QMode mode,
                                const std::string& where) {
  QuantSpec spec;
  spec.mode = mode;
  spec.min_numel = 0;
  const int64_t n = quantize_module(m, spec);
  for (nn::Param* p : m.parameters()) {
    if (!p->quant) continue;
    const kernels::QuantizedMat& q = *p->quant;
    const Tensor d = kernels::dequantize(q);
    EXPECT_EQ(d.shape(), p->var->value.shape()) << where << " " << p->name;
    for (int64_t r = 0; r < q.rows; ++r)
      for (int64_t c = 0; c < q.cols; ++c)
        EXPECT_EQ(std::as_const(d).data()[r * q.cols + c],
                  kernels::dequant_at(q, r, c))
            << where << " " << p->name;
    p->var->value = d;
  }
  return n;
}

// What `forward` returns with m's quant slots cleared (the fp32 layer on the
// reference weights), then with them set again.
template <typename F>
std::pair<std::vector<Tensor>, std::vector<Tensor>> fp32_and_quantized(
    nn::Module& m, const F& forward) {
  std::vector<std::shared_ptr<const kernels::QuantizedMat>> slots;
  for (nn::Param* p : m.parameters()) slots.push_back(p->quant);
  rollback(m);
  std::vector<Tensor> ref = forward();
  size_t i = 0;
  for (nn::Param* p : m.parameters()) p->quant = slots[i++];
  return {std::move(ref), forward()};
}

// ---------------- kernels ----------------

TEST(Quant, Int8PerRowScalesBoundElementError) {
  Rng rng(1);
  Tensor w = rng.randn(Shape{7, 33});
  kernels::QuantizedMat q =
      kernels::quantize_rows(std::as_const(w).data(), 7, 33,
                             kernels::QMode::kInt8);
  ASSERT_EQ(q.rows, 7);
  ASSERT_EQ(q.cols, 33);
  ASSERT_EQ(q.scales.size(), 7u);
  for (int64_t r = 0; r < 7; ++r) {
    float maxabs = 0;
    for (int64_t c = 0; c < 33; ++c)
      maxabs = std::max(maxabs, std::abs(std::as_const(w).data()[r * 33 + c]));
    EXPECT_NEAR(q.scales[static_cast<size_t>(r)], maxabs / 127.0f, 1e-6f);
    for (int64_t c = 0; c < 33; ++c) {
      const float orig = std::as_const(w).data()[r * 33 + c];
      // Symmetric rounding: off by at most half a step.
      EXPECT_NEAR(kernels::dequant_at(q, r, c), orig,
                  q.scales[static_cast<size_t>(r)] / 2 + 1e-7f);
    }
  }
}

TEST(Quant, Int8AllZeroRowQuantizesToZero) {
  std::vector<float> w(3 * 8, 0.0f);
  w[2 * 8 + 1] = 1.0f;  // only row 2 nonzero
  kernels::QuantizedMat q =
      kernels::quantize_rows(w.data(), 3, 8, kernels::QMode::kInt8);
  EXPECT_EQ(q.scales[0], 0.0f);
  EXPECT_EQ(kernels::dequant_at(q, 0, 0), 0.0f);
  EXPECT_EQ(kernels::dequant_at(q, 1, 5), 0.0f);
  EXPECT_EQ(kernels::dequant_at(q, 2, 1), 1.0f);
}

TEST(Quant, Bf16RoundTripIsRoundToNearestEven) {
  // Values exactly representable in bf16 survive; others land on the
  // nearest bf16 (1 + 2^-9 is a tie -> rounds to even mantissa = 1.0).
  EXPECT_EQ(kernels::bf16_to_float(kernels::bf16_from_float(1.0f)), 1.0f);
  EXPECT_EQ(kernels::bf16_to_float(kernels::bf16_from_float(-2.5f)), -2.5f);
  const float tie = 1.0f + 0.001953125f / 2;  // 1 + 2^-9
  EXPECT_EQ(kernels::bf16_to_float(kernels::bf16_from_float(tie)), 1.0f);
  Rng rng(2);
  Tensor w = rng.randn(Shape{5, 17});
  kernels::QuantizedMat q = kernels::quantize_tensor(w, kernels::QMode::kBf16);
  Tensor d = kernels::dequantize(q);
  for (int64_t i = 0; i < w.numel(); ++i) {
    const float f = std::as_const(w).data()[i];
    EXPECT_EQ(std::as_const(d).data()[i],
              kernels::bf16_to_float(kernels::bf16_from_float(f)));
  }
}

// A quantized Linear / LowRankLinear, quantized through quantize_module, is
// the fp32 layer on the dequantized weights: its forward equals, bitwise,
// the fp32 forward of the same layer with every weight replaced by
// dequantize(slot), per backend, at 1 and 4 threads, for int8 and bf16, at
// row counts from a single request to a wide batch. k and n are >= 512, so
// every product sits above the avx2 packed-tile cutoff.
TEST(Quant, QuantizedLinearForwardsEqualFp32OnDequantizedWeights) {
  const std::string prev = kernels::backend_name();
  ThreadGuard tg;
  ag::NoGradGuard ng;
  const int64_t in = 512, out = 576, rank = 128;
  auto check = [&](const char* backend) {
    ASSERT_TRUE(kernels::set_backend(backend));
    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      for (kernels::QMode mode :
           {kernels::QMode::kInt8, kernels::QMode::kBf16}) {
        const std::string where =
            std::string(backend) + " threads " + std::to_string(threads) +
            " mode " + std::to_string(static_cast<int>(mode));
        Rng lr(12);
        nn::Linear dense(in, out, lr);
        nn::LowRankLinear lowrank(in, out, rank, lr);
        ASSERT_EQ(quantize_with_reference(dense, mode, where), 1);
        ASSERT_EQ(quantize_with_reference(lowrank, mode, where), 2);
        for (int64_t m : {1, 8, 64}) {
          Rng xr(static_cast<uint64_t>(13 + m));
          const ag::Var x = ag::leaf(xr.randn(Shape{m, in}));
          for (nn::UnaryModule* layer :
               std::initializer_list<nn::UnaryModule*>{&dense, &lowrank}) {
            const auto [ref, q] = fp32_and_quantized(*layer, [&] {
              return std::vector<Tensor>{layer->forward(x)->value};
            });
            EXPECT_TRUE(bitwise_equal(q[0], ref[0]))
                << layer->type_name() << " " << where << " m " << m;
          }
        }
      }
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

// A quantized conv is the fp32 conv on the dequantized weight: the
// quantized Conv2d / LowRankConv2d forwards equal, bitwise, the fp32
// forwards of the same layers with weights dequantize(slot), per backend,
// per thread count, for int8 and bf16 and strides 1 and 2. The dequantized
// weights themselves equal dequant_at element for element.
TEST(Quant, QuantizedConvForwardsEqualFp32ConvOnDequantizedWeights) {
  const std::string prev = kernels::backend_name();
  ThreadGuard tg;
  ag::NoGradGuard ng;
  Rng rng(5);
  const Tensor x = rng.randn(Shape{5, 16, 8, 8});
  auto check = [&](const char* backend) {
    ASSERT_TRUE(kernels::set_backend(backend));
    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      for (kernels::QMode mode :
           {kernels::QMode::kInt8, kernels::QMode::kBf16}) {
        for (int64_t stride : {1, 2}) {
          const std::string where =
              std::string(backend) + " threads " + std::to_string(threads) +
              " mode " + std::to_string(static_cast<int>(mode)) + " stride " +
              std::to_string(stride);
          Rng lr(6);
          nn::Conv2d conv(16, 24, 3, stride, 1, lr);
          nn::LowRankConv2d lowrank(16, 24, 3, stride, 1, 6, lr);
          ASSERT_EQ(quantize_with_reference(conv, mode, where), 1);
          ASSERT_EQ(quantize_with_reference(lowrank, mode, where), 2);
          for (nn::UnaryModule* layer :
               std::initializer_list<nn::UnaryModule*>{&conv, &lowrank}) {
            const auto [ref, q] = fp32_and_quantized(*layer, [&] {
              return std::vector<Tensor>{layer->forward(ag::leaf(x))->value};
            });
            EXPECT_TRUE(bitwise_equal(q[0], ref[0]))
                << layer->type_name() << " " << where;
          }
        }
      }
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

// A quantized LSTM layer, quantized through quantize_module, dequantizes its
// weights once per forward call and runs the fp32 layer, so its output and
// final state equal -- memcmp, both sides run the same GEMM sequence -- the
// fp32 forward of the same layer with every weight replaced by
// dequantize(slot). Both layer kinds, int8 and bf16, per backend and at 1
// and 4 threads, from a non-zero initial state.
TEST(Quant, QuantizedLstmForwardsEqualFp32OnDequantizedWeights) {
  const std::string prev = kernels::backend_name();
  ThreadGuard tg;
  ag::NoGradGuard ng;
  Rng rng(9);
  const int64_t t_len = 5, b = 3, d = 12, h = 16;
  const Tensor x = rng.randn(Shape{t_len, b, d});
  const Tensor h0 = rng.randn(Shape{b, h});
  const Tensor c0 = rng.randn(Shape{b, h});
  auto check = [&](const char* backend) {
    ASSERT_TRUE(kernels::set_backend(backend));
    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      for (kernels::QMode mode :
           {kernels::QMode::kInt8, kernels::QMode::kBf16}) {
        const std::string where =
            std::string(backend) + " threads " + std::to_string(threads) +
            " mode " + std::to_string(static_cast<int>(mode));
        Rng lr(10);
        nn::LSTMLayer vanilla(d, h, lr);
        nn::LowRankLSTMLayer lowrank(d, h, /*rank=*/4, lr);
        ASSERT_EQ(quantize_with_reference(vanilla, mode, where), 2);
        ASSERT_EQ(quantize_with_reference(lowrank, mode, where), 16);
        for (nn::LstmBase* layer :
             std::initializer_list<nn::LstmBase*>{&vanilla, &lowrank}) {
          const auto [ref, q] = fp32_and_quantized(*layer, [&] {
            nn::LstmState st{ag::leaf(h0), ag::leaf(c0)};
            const Tensor y = layer->forward(ag::leaf(x), &st)->value;
            return std::vector<Tensor>{y, st.h->value, st.c->value};
          });
          for (size_t i = 0; i < 3; ++i)
            EXPECT_TRUE(bitwise_equal(q[i], ref[i]))
                << layer->type_name() << " " << where << " tensor " << i;
        }
      }
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

TEST(Quant, ScalarAndAvx2QuantizedForwardsAgree) {
  if (!kernels::avx2_supported())
    GTEST_SKIP() << "host CPU lacks AVX2/FMA; avx2 backend unavailable";
  const std::string prev = kernels::backend_name();
  ag::NoGradGuard ng;
  Rng rng(4);
  const ag::Var x = ag::leaf(rng.randn(Shape{5, 48}));
  nn::Linear layer(48, 24, rng);
  ASSERT_EQ(quantize_module(layer, QuantSpec{}), 1);
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Tensor ys = layer.forward(x)->value;
  ASSERT_TRUE(kernels::set_backend("avx2"));
  Tensor yv = layer.forward(x)->value;
  kernels::set_backend(prev.c_str());
  // Different backends reassociate; equality is numeric, not bitwise.
  EXPECT_TRUE(allclose(ys, yv, 1e-4f, 1e-5f));
}

// ---------------- module lifecycle ----------------

TEST(Quant, QuantizeCommitRollbackLifecycle) {
  auto m = tiny_hybrid(10);
  m->train(false);
  Rng xr(11);
  Tensor x = xr.randn(Shape{2, 3, 16, 16});
  ag::NoGradGuard ng;
  const Tensor y_fp32 = m->forward(ag::leaf(x))->value;

  QuantSpec spec;
  const int64_t n_q = quantize_module(*m, spec);
  ASSERT_GT(n_q, 0);
  EXPECT_GT(quantized_bytes(*m), 0);
  const Tensor y_q = m->forward(ag::leaf(x))->value;
  // int8 moves the logits a little but not far (normwise, since a random-
  // init net has no margin to speak of).
  double num = 0, den = 0;
  for (int64_t i = 0; i < y_fp32.numel(); ++i) {
    const double d = std::as_const(y_q).data()[i] -
                     std::as_const(y_fp32).data()[i];
    num += d * d;
    den += std::as_const(y_fp32).data()[i] * std::as_const(y_fp32).data()[i];
  }
  EXPECT_LT(std::sqrt(num), 0.1 * std::sqrt(den) + 1e-6);

  // Rollback restores the exact fp32 path.
  rollback(*m);
  EXPECT_EQ(quantized_bytes(*m), 0);
  EXPECT_TRUE(bitwise_equal(m->forward(ag::leaf(x))->value, y_fp32));

  // Re-quantize + commit: masters released, footprint shrinks, forward
  // still runs and matches the pre-commit quantized forward bitwise.
  quantize_module(*m, spec);
  const int64_t before = serving_bytes(*m);
  commit(*m);
  EXPECT_LT(serving_bytes(*m), before);
  EXPECT_TRUE(bitwise_equal(m->forward(ag::leaf(x))->value, y_q));

  // After commit the fp32 masters are gone: no rollback, no re-quantize.
  EXPECT_THROW(rollback(*m), std::runtime_error);
  EXPECT_THROW(quantize_module(*m, spec), std::runtime_error);
}

TEST(Quant, LayerGroupsQuantizeAtomically) {
  // Regression: low-rank layers have one big factor (U) and one small (V).
  // A per-tensor min_numel threshold used to quantize U but skip V. The
  // threshold must gate whole layers: a layer's quantizable weights are all
  // quantized or none is.
  auto m = tiny_hybrid(12);
  m->train(false);
  QuantSpec spec;
  spec.min_numel = 1024;  // sits between the factor sizes of several layers
  ASSERT_GT(quantize_module(*m, spec), 0);
  int mixed_sizes = 0;
  for_each_module(*m, [&](nn::Module& layer) {
    int64_t quantized = 0, weights = 0, smallest = -1;
    for (nn::Param& p : layer.local_params()) {
      if (!p.quantizable) {
        EXPECT_FALSE(p.quant) << p.name;
        continue;
      }
      ++weights;
      quantized += p.quant ? 1 : 0;
      const int64_t n = p.var->value.numel();
      smallest = smallest < 0 ? n : std::min(smallest, n);
    }
    EXPECT_TRUE(quantized == 0 || quantized == weights) << layer.type_name();
    if (quantized > 0 && smallest < spec.min_numel) ++mixed_sizes;
  });
  EXPECT_GT(mixed_sizes, 0) << "no layer straddles min_numel";
  Rng xr(13);
  ag::NoGradGuard ng;
  m->forward(ag::leaf(xr.randn(Shape{2, 3, 16, 16})));  // must not crash
}

TEST(Quant, QuantizedForwardIsEvalOnly) {
  auto m = tiny_hybrid(14);
  m->train(false);
  quantize_module(*m, QuantSpec{});
  Rng xr(15);
  Tensor x = xr.randn(Shape{1, 3, 16, 16});
  // Under an active tape the quantized fast path must refuse, loudly.
  EXPECT_THROW(m->forward(ag::leaf(x)), std::runtime_error);
  ag::NoGradGuard ng;
  EXPECT_NO_THROW(m->forward(ag::leaf(x)));
}

TEST(Quant, QuantizedForwardIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto m = tiny_hybrid(16);
  m->train(false);
  quantize_module(*m, QuantSpec{});
  commit(*m);
  Rng xr(17);
  Tensor x = xr.randn(Shape{4, 3, 16, 16});
  ag::NoGradGuard ng;
  runtime::set_threads(1);
  const Tensor y1 = m->forward(ag::leaf(x))->value;
  runtime::set_threads(4);
  const Tensor y4 = m->forward(ag::leaf(x))->value;
  EXPECT_TRUE(bitwise_equal(y1, y4));
}

TEST(Quant, GateAcceptsWithinEpsilon) {
  auto m = tiny_hybrid(18);
  m->train(false);
  // Metric insensitive to quantization: must accept, slots stay set.
  GateResult r = quantize_if(*m, QuantSpec{}, /*eps=*/0.005,
                             [](nn::Module&) { return 0.5; });
  EXPECT_TRUE(r.accepted);
  EXPECT_GT(r.quantized, 0);
  EXPECT_GT(quantized_bytes(*m), 0);
  EXPECT_LT(r.bytes_quant, r.bytes_fp32);
}

TEST(Quant, GateRejectsAndRollsBackOnAccuracyDrop) {
  auto m = tiny_hybrid(19);
  m->train(false);
  Rng xr(20);
  Tensor x = xr.randn(Shape{2, 3, 16, 16});
  ag::NoGradGuard ng;
  const Tensor y_fp32 = m->forward(ag::leaf(x))->value;
  // Eval that "measures" a big drop on the quantized pass.
  int calls = 0;
  GateResult r = quantize_if(*m, QuantSpec{}, /*eps=*/0.005,
                             [&calls](nn::Module&) {
                               return ++calls == 1 ? 0.9 : 0.7;
                             });
  EXPECT_FALSE(r.accepted);
  EXPECT_DOUBLE_EQ(r.fp32_metric, 0.9);
  EXPECT_DOUBLE_EQ(r.quant_metric, 0.7);
  // Rejected = full fp32 fallback, bitwise.
  EXPECT_EQ(quantized_bytes(*m), 0);
  EXPECT_TRUE(bitwise_equal(m->forward(ag::leaf(x))->value, y_fp32));
}

// ---------------- delta variants ----------------

TEST(Quant, DeltaRecoversLowRankFineTune) {
  // variant = base + (exactly rank-2 residual) on every big conv/linear.
  auto base = tiny_hybrid(21);
  auto variant = tiny_hybrid(22);
  const std::string path = tmp_path("delta_base.ckpt");
  nn::save_checkpoint(*base, path);
  nn::load_checkpoint(*variant, path);
  std::remove(path.c_str());
  Rng pr(23);
  for (nn::Param* p : variant->parameters()) {
    Tensor& w = p->var->value;
    if (w.numel() < 4096 || w.dim() < 2) continue;
    const int64_t rows = w.size(0), cols = w.numel() / rows;
    Tensor u = pr.randn(Shape{rows, 2}), v = pr.randn(Shape{2, cols});
    Tensor r2(Shape{rows, cols});
    kernels::active().gemm_nn(std::as_const(u).data(), std::as_const(v).data(),
                              r2.data(), rows, 2, cols);
    r2.mul_(0.01f);
    w.add_(r2.reshape(w.shape()));
  }

  DeltaSpec spec;
  spec.energy = 0.999;
  DeltaModel d = compute_delta(*base, *variant, spec);
  ASSERT_GT(d.lowrank_entries(), 0);
  for (const DeltaEntry& e : d.entries)
    if (e.lowrank) {
      EXPECT_LE(e.u.size(1), 3);  // rank-2 residual found
    }

  auto rebuilt = tiny_hybrid(24);
  nn::save_checkpoint(*base, path);
  nn::load_checkpoint(*rebuilt, path);
  std::remove(path.c_str());
  apply_delta(*rebuilt, d);
  EXPECT_TRUE(allclose(variant->flat_params(), rebuilt->flat_params(), 1e-4f,
                       1e-5f));
  // And the delta is clearly smaller than the weights it reconstructs (the
  // big tensors ship as rank-2 factors; small ones stay dense).
  EXPECT_LT(d.bytes(), fp32_bytes(*variant) / 2);
}

TEST(Quant, DeltaFallsBackToDenseWhenFactorsDoNotPay) {
  // A full-rank residual on a small square matrix: rank * (rows + cols)
  // >= rows * cols, so the dense form must be chosen.
  Rng rng(25);
  nn::Linear base(32, 32, rng);
  Rng rng2(26);
  nn::Linear variant(32, 32, rng2);  // unrelated weights: full-rank residual
  DeltaSpec spec;
  spec.min_numel = 16;
  spec.energy = 0.9999;
  DeltaModel d = compute_delta(base, variant, spec);
  bool saw_weight = false;
  for (const DeltaEntry& e : d.entries)
    if (e.shape.size() == 2 && e.shape[0] == 32) {
      saw_weight = true;
      EXPECT_FALSE(e.lowrank);
      EXPECT_EQ(e.dense.numel(), 32 * 32);
    }
  EXPECT_TRUE(saw_weight);
}

TEST(Quant, DeltaRejectsMismatchedTrees) {
  auto a = tiny_hybrid(27);
  Rng rng(28);
  nn::Linear b(8, 8, rng);
  EXPECT_THROW(compute_delta(*a, b, DeltaSpec{}), std::runtime_error);
}

// ---------------- checkpoint v2 ----------------

TEST(Quant, CheckpointV2QuantizedRoundTrip) {
  for (kernels::QMode mode : {kernels::QMode::kInt8, kernels::QMode::kBf16}) {
    auto a = tiny_hybrid(30);
    a->train(false);
    QuantSpec spec;
    spec.mode = mode;
    quantize_module(*a, spec);
    Rng xr(31);
    Tensor x = xr.randn(Shape{2, 3, 16, 16});
    ag::NoGradGuard ng;
    const Tensor y_a = a->forward(ag::leaf(x))->value;

    const std::string path = tmp_path("qckpt_roundtrip.bin");
    save_quantized(*a, path);

    auto b = tiny_hybrid(32);  // different init
    b->train(false);
    load_quantized(*b, path);
    std::remove(path.c_str());
    // The loaded module is serving-only (masters released, like commit)...
    EXPECT_THROW(quantize_module(*b, spec), std::runtime_error);
    // ...and bitwise identical to the saved quantized forward.
    EXPECT_TRUE(bitwise_equal(b->forward(ag::leaf(x))->value, y_a));

    // An all-fp32 artifact loaded over a quantized module clears its slots:
    // the module is then the fp32 one the file holds.
    auto c = tiny_hybrid(30);
    c->train(false);
    save_quantized(*c, path);
    load_quantized(*a, path);
    std::remove(path.c_str());
    EXPECT_EQ(quantized_bytes(*a), 0);
    EXPECT_TRUE(bitwise_equal(a->forward(ag::leaf(x))->value,
                              c->forward(ag::leaf(x))->value));
  }
}

TEST(Quant, CheckpointV2RoundTripAfterCommit) {
  // Saving must also work when the fp32 masters are already gone.
  auto a = tiny_hybrid(33);
  a->train(false);
  quantize_module(*a, QuantSpec{});
  commit(*a);
  const std::string path = tmp_path("qckpt_committed.bin");
  save_quantized(*a, path);
  auto b = tiny_hybrid(34);
  b->train(false);
  load_quantized(*b, path);
  std::remove(path.c_str());
  Rng xr(35);
  Tensor x = xr.randn(Shape{1, 3, 16, 16});
  ag::NoGradGuard ng;
  EXPECT_TRUE(bitwise_equal(a->forward(ag::leaf(x))->value,
                            b->forward(ag::leaf(x))->value));
}

TEST(Quant, CheckpointV2DeltaRoundTrip) {
  auto base = tiny_hybrid(36);
  auto variant = tiny_hybrid(37);
  DeltaSpec spec;
  spec.min_numel = 256;
  spec.max_rank = 2;
  DeltaModel d = compute_delta(*base, *variant, spec);
  const std::string path = tmp_path("delta_roundtrip.bin");
  save_delta(d, path);
  DeltaModel d2 = load_delta(path);
  std::remove(path.c_str());
  ASSERT_EQ(d2.entries.size(), d.entries.size());
  EXPECT_EQ(d2.lowrank_entries(), d.lowrank_entries());
  EXPECT_EQ(d2.bytes(), d.bytes());
  // Applying the reloaded delta reproduces the variant exactly as the
  // original delta does.
  auto x1 = tiny_hybrid(38);
  auto x2 = tiny_hybrid(38);
  const std::string ck = tmp_path("delta_roundtrip_base.ckpt");
  nn::save_checkpoint(*base, ck);
  nn::load_checkpoint(*x1, ck);
  nn::load_checkpoint(*x2, ck);
  std::remove(ck.c_str());
  apply_delta(*x1, d);
  apply_delta(*x2, d2);
  EXPECT_TRUE(bitwise_equal(x1->flat_params(), x2->flat_params()));
}

TEST(Quant, CheckpointV2RejectsCorruption) {
  auto a = tiny_hybrid(39);
  quantize_module(*a, QuantSpec{});
  const std::string path = tmp_path("qckpt_corrupt.bin");
  save_quantized(*a, path);

  // Bit-flip deep in the payload: checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(256, std::ios::beg);
    char byte = 0;
    f.seekg(256, std::ios::beg);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(256, std::ios::beg);
    f.write(&byte, 1);
  }
  auto b = tiny_hybrid(40);
  EXPECT_THROW(load_quantized(*b, path), std::runtime_error);

  // Truncation (torn tail) must be detected before the checksum even runs.
  save_quantized(*a, path);
  const int64_t full = file_bytes(path);
  std::filesystem::resize_file(path, static_cast<uintmax_t>(full / 2));
  EXPECT_THROW(load_quantized(*b, path), std::runtime_error);

  // Wrong artifact kind: a quantized-model file is not a delta.
  save_quantized(*a, path);
  EXPECT_THROW(load_delta(path), std::runtime_error);

  // Garbage and missing files fail loudly.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "not a checkpoint";
  }
  EXPECT_THROW(load_quantized(*b, path), std::runtime_error);
  EXPECT_THROW(load_quantized(*b, tmp_path("qckpt_missing.bin")),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Quant, CheckpointV2TornWriteLeavesOldArtifactIntact) {
  auto a = tiny_hybrid(41);
  a->train(false);
  quantize_module(*a, QuantSpec{});
  const std::string path = tmp_path("qckpt_torn.bin");
  save_quantized(*a, path);
  const int64_t good_bytes = file_bytes(path);

  auto newer = tiny_hybrid(42);
  newer->train(false);
  quantize_module(*newer, QuantSpec{});
  {
    fault::ScopedWriteCrash crash(64);  // "kill -9" a few writes in
    EXPECT_THROW(save_quantized(*newer, path), fault::InjectedCrash);
  }
  // Old artifact survives the crash, byte-for-byte loadable.
  EXPECT_EQ(file_bytes(path), good_bytes);
  auto b = tiny_hybrid(43);
  b->train(false);
  EXPECT_NO_THROW(load_quantized(*b, path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Disarmed: the retried save succeeds.
  save_quantized(*newer, path);
  auto c = tiny_hybrid(44);
  c->train(false);
  load_quantized(*c, path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pf::quant
