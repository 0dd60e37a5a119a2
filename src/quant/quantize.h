// Post-training weights-only quantization of module trees (DESIGN.md §14).
//
// quantize_module() walks the tree and fills the quant slot of every
// eligible quantizable nn::Param (a layer's weight matrices) with per-row
// (dim 0) int8 symmetric codes or bf16, computed from the trained fp32
// weights. The fp32 masters are kept, so eval runs the quantized forwards
// (a set slot takes priority in tape-free forwards) while rollback() can
// restore the fp32 path bit-for-bit. commit() releases the fp32 masters entirely: the
// serving footprint becomes the quantized codes plus whatever stayed fp32
// (biases, norms, embeddings).
//
// quantize_if() is the accuracy-drop gate from the issue: quantize, re-run
// the caller's eval metric, and roll back (fp32 fallback) when the metric
// drops by more than eps.
#pragma once

#include <functional>

#include "nn/module.h"

namespace pf::quant {

struct QuantSpec {
  kernels::QMode mode = kernels::QMode::kInt8;
  // Layers whose quantizable weights total fewer elements than this stay
  // fp32: the scale/metadata overhead and accuracy risk are not worth the
  // few bytes saved. The threshold is per LAYER: a low-rank layer's big U
  // and small V quantize together or not at all, so a layer is either the
  // fp32 layer or the layer on fully dequantized weights.
  int64_t min_numel = 1024;
};

// Fills the quantized slot of every eligible weight matrix. Returns the
// number of matrices quantized. Idempotent (re-quantizes from the fp32
// masters); throws if a master was already released by commit().
int64_t quantize_module(nn::Module& m, const QuantSpec& spec = {});

// Releases the fp32 master of every quantized weight (value becomes an
// empty tensor). The module is serving-only afterwards: taped forwards
// throw, serve::detail::freeze_and_pack skips the empty params.
void commit(nn::Module& m);

// Clears every quantized slot so forwards use the fp32 masters again.
// Throws if commit() already released a master the slot was covering.
void rollback(nn::Module& m);

// Bytes held by quantized slots (codes + scales).
int64_t quantized_bytes(nn::Module& m);
// Bytes held by fp32 params and buffers (4 * numel; released masters are 0).
int64_t fp32_bytes(nn::Module& m);
// Total resident serving footprint: quantized_bytes + fp32_bytes.
int64_t serving_bytes(nn::Module& m);
// The serving footprint once commit() runs: serving_bytes minus the fp32
// masters the set slots would release.
int64_t committed_bytes(nn::Module& m);

struct GateResult {
  bool accepted = false;
  double fp32_metric = 0.0;   // eval() before quantization
  double quant_metric = 0.0;  // eval() with quantized slots active
  int64_t quantized = 0;      // matrices quantized (kept even on reject)
  int64_t bytes_fp32 = 0;     // serving bytes before quantization
  int64_t bytes_quant = 0;    // serving bytes if committed
};

// Accuracy gate: evaluates `eval` (higher is better, e.g. top-1 accuracy in
// [0,1]) on the fp32 module, quantizes, evaluates again, and rolls back if
// the metric dropped by more than `eps`. On accept the slots stay set and
// the caller decides whether to commit(). The module must be in eval mode.
GateResult quantize_if(nn::Module& m, const QuantSpec& spec, double eps,
                       const std::function<double(nn::Module&)>& eval);

}  // namespace pf::quant
