// src/quant tests: post-training quantization (kernels, module lifecycle,
// accuracy gate), delta-compressed variants, and the v2 checkpoint format
// (round-trips, corruption, torn writes, v0/v1 coexistence). The quantized
// forwards' thread-count determinism also runs under ctest pf_tests_threads4
// (PF_THREADS=4) via the Quant* filter entry.
#include "quant/quantize.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "kernels/qmat.h"
#include "models/resnet.h"
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

// The fused/backend quantized GEMMs must be bitwise identical to
// dequantize-then-float-GEMM on the SAME backend -- that is the documented
// contract, and it makes quantized serving exactly as deterministic as
// fp32 serving.
TEST(Quant, QuantizedGemmsMatchDequantReferencePerBackend) {
  const std::string prev = kernels::backend_name();
  for (const char* name : {"scalar", "avx2"}) {
    if (!kernels::set_backend(name)) continue;  // host lacks avx2
    Rng rng(3);
    const int64_t m = 9, k = 65, n = 33;  // off the packed-panel boundaries
    Tensor x = rng.randn(Shape{m, k});
    Tensor w = rng.randn(Shape{n, k});
    for (kernels::QMode mode :
         {kernels::QMode::kInt8, kernels::QMode::kBf16}) {
      kernels::QuantizedMat q = kernels::quantize_tensor(w, mode);
      Tensor wd = kernels::dequantize(q);
      Tensor ref(Shape{m, n});
      kernels::active().gemm_nt(std::as_const(x).data(),
                                std::as_const(wd).data(), ref.data(), m, k, n);
      Tensor y = kernels::qmatmul_nt(x, q);
      EXPECT_TRUE(bitwise_equal(y, ref))
          << name << " mode " << static_cast<int>(mode);
    }
  }
  kernels::set_backend(prev.c_str());
}

TEST(Quant, ScalarAndAvx2QuantizedForwardsAgree) {
  if (!kernels::avx2_supported())
    GTEST_SKIP() << "host CPU lacks AVX2/FMA; avx2 backend unavailable";
  const std::string prev = kernels::backend_name();
  Rng rng(4);
  Tensor x = rng.randn(Shape{5, 48});
  Tensor w = rng.randn(Shape{24, 48});
  kernels::QuantizedMat q = kernels::quantize_tensor(w, kernels::QMode::kInt8);
  ASSERT_TRUE(kernels::set_backend("scalar"));
  Tensor ys = kernels::qmatmul_nt(x, q);
  ASSERT_TRUE(kernels::set_backend("avx2"));
  Tensor yv = kernels::qmatmul_nt(x, q);
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
  // A per-tensor min_numel threshold used to quantize U but skip V, and the
  // forward fast path -- which checks a single slot per layer -- then
  // dereferenced the unset one. The threshold must gate whole layers.
  auto m = tiny_hybrid(12);
  m->train(false);
  QuantSpec spec;
  spec.min_numel = 1024;  // sits between the factor sizes of several layers
  quantize_module(*m, spec);
  for (const detail::Entry& e : detail::collect_entries(*m)) {
    if (!e.slot) continue;
    // Every slot of an owner group is set, or none is.
    for (const detail::Entry& o : detail::collect_entries(*m))
      if (o.slot && o.owner == e.owner) {
        EXPECT_EQ(static_cast<bool>(*o.slot), static_cast<bool>(*e.slot));
      }
  }
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
  for (detail::Entry& e : detail::collect_entries(*variant)) {
    if (!e.param || e.tensor->numel() < 4096 || e.tensor->dim() < 2) continue;
    const int64_t rows = e.tensor->size(0), cols = e.tensor->numel() / rows;
    Tensor u = pr.randn(Shape{rows, 2}), v = pr.randn(Shape{2, cols});
    Tensor r2(Shape{rows, cols});
    kernels::active().gemm_nn(std::as_const(u).data(), std::as_const(v).data(),
                              r2.data(), rows, 2, cols);
    r2.mul_(0.01f);
    e.tensor->add_(r2.reshape(e.tensor->shape()));
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

TEST(Quant, LegacyV0V1CheckpointsStillLoadAndQuantize) {
  // v2 rides alongside v0/v1: a module restored from either legacy format
  // quantizes exactly like a freshly trained one.
  for (int version : {0, 1}) {
    auto a = tiny_hybrid(45);
    const std::string path = tmp_path("qckpt_legacy.bin");
    nn::save_checkpoint(*a, path, version);
    auto b = tiny_hybrid(46);
    nn::load_checkpoint(*b, path);
    std::remove(path.c_str());
    EXPECT_TRUE(bitwise_equal(a->flat_params(), b->flat_params()));
    EXPECT_GT(quantize_module(*b, QuantSpec{}), 0);
  }
}

}  // namespace
}  // namespace pf::quant
