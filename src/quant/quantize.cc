#include "quant/quantize.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/serialize.h"

namespace pf::quant {

namespace {

int64_t fp32_bytes_of(const Tensor& t) {
  return t.numel() * static_cast<int64_t>(sizeof(float));
}

}  // namespace

int64_t quantize_module(nn::Module& m, const QuantSpec& spec) {
  // One layer's quantizable weights form one group, gated on their summed
  // numel (QuantSpec::min_numel).
  std::vector<nn::Param*> group;
  int64_t numel = 0;
  for (nn::Param& p : m.local_params()) {
    if (!p.quantizable) continue;
    // An empty master = commit() (or load_quantized) already released the
    // fp32 weights; the gate must not mask that.
    if (p.var->value.empty())
      throw std::runtime_error(
          "quantize_module: fp32 master already released (commit ran); "
          "cannot re-quantize");
    group.push_back(&p);
    numel += p.var->value.numel();
  }
  int64_t count = 0;
  if (numel >= spec.min_numel)
    for (nn::Param* p : group) {
      p->quant = std::make_shared<const kernels::QuantizedMat>(
          kernels::quantize_tensor(p->var->value, spec.mode));
      ++count;
    }
  for (nn::Module* c : m.children()) count += quantize_module(*c, spec);
  return count;
}

void commit(nn::Module& m) {
  for (nn::Param* p : m.parameters()) {
    if (!p->quant) continue;
    p->var->value = Tensor();
    p->var->requires_grad = false;
  }
}

void rollback(nn::Module& m) {
  for (nn::Param* p : m.parameters()) {
    if (!p->quant) continue;
    if (p->var->value.empty())
      throw std::runtime_error(
          "rollback: fp32 master already released (commit ran)");
    p->quant.reset();
  }
}

int64_t quantized_bytes(nn::Module& m) {
  int64_t bytes = 0;
  for (const nn::Param* p : m.parameters())
    if (p->quant) bytes += p->quant->bytes();
  return bytes;
}

int64_t fp32_bytes(nn::Module& m) {
  int64_t bytes = 0;
  for (const Tensor* t : nn::checkpoint_tensors(m)) bytes += fp32_bytes_of(*t);
  return bytes;
}

int64_t serving_bytes(nn::Module& m) {
  return quantized_bytes(m) + fp32_bytes(m);
}

int64_t committed_bytes(nn::Module& m) {
  int64_t bytes = serving_bytes(m);
  for (const nn::Param* p : m.parameters())
    if (p->quant) bytes -= fp32_bytes_of(p->var->value);
  return bytes;
}

GateResult quantize_if(nn::Module& m, const QuantSpec& spec, double eps,
                       const std::function<double(nn::Module&)>& eval) {
  GateResult r;
  r.bytes_fp32 = serving_bytes(m);
  r.fp32_metric = eval(m);
  r.quantized = quantize_module(m, spec);
  r.quant_metric = eval(m);
  r.bytes_quant = committed_bytes(m);
  r.accepted = (r.fp32_metric - r.quant_metric) <= eps;
  if (!r.accepted) rollback(m);
  return r;
}

}  // namespace pf::quant
