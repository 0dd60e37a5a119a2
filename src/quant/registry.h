// Internal slot registry shared by quantize.cc, delta.cc and qcheckpoint.cc.
//
// Walks a module tree in the exact order nn::checkpoint_tensors() uses
// (per module: params, then buffers, then children, depth-first) and
// annotates each tensor with the owning layer's quantized-weight slot when
// the tensor is a quantizable weight matrix. Keeping one registry guarantees
// that quantization, delta compression and the v2 checkpoint format all
// agree on which tensor maps to which slot.
#pragma once

#include <vector>

#include "nn/lstm.h"

namespace pf::quant::detail {

// One serializable tensor in checkpoint order.
struct Entry {
  Tensor* tensor = nullptr;     // fp32 master (param value or buffer)
  nn::Param* param = nullptr;   // null for buffers
  nn::QWeight* slot = nullptr;  // layer slot; null = never quantized
  const void* owner = nullptr;  // owning layer, when slot != null. The
                                // forward fast paths check ONE slot per
                                // layer, so quantization must be
                                // all-or-nothing per owner group.
  int64_t qrows = 0;            // quantized storage shape (scales per qrow)
  int64_t qcols = 0;
  bool transpose = false;  // stored transposed vs the fp32 master (V factors)
};

std::vector<Entry> collect_entries(nn::Module& m);

// The fp32 master materialized in the (qrows, qcols) quantized storage
// layout (2-D reshape, transposed for V factors).
Tensor storage_view(const Entry& e);

}  // namespace pf::quant::detail
