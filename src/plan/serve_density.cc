#include "plan/serve_density.h"

#include <sstream>

#include "metrics/metrics.h"
#include "quant/quantize.h"
#include "tensor/rng.h"

namespace pf::plan {

namespace {

int64_t quantized_footprint(nn::Module& m, kernels::QMode mode) {
  quant::QuantSpec spec;
  spec.mode = mode;
  quant::quantize_module(m, spec);
  const int64_t bytes = quant::committed_bytes(m);
  quant::rollback(m);
  return bytes;
}

double per_gb(int64_t bytes) {
  return bytes > 0 ? static_cast<double>(1ll << 30) /
                         static_cast<double>(bytes)
                   : 0;
}

}  // namespace

ServeDensity serve_density(const std::string& model, double width,
                           int64_t classes, double rank_ratio, int hybrid_k,
                           const dist::HardwareProfile& hw) {
  Rng rng(0xDE5517ull);
  std::unique_ptr<nn::UnaryModule> m =
      vision_factory(model, width, classes, rank_ratio, hybrid_k)(rng);

  ServeDensity d;
  d.model = model;
  d.rank_ratio = rank_ratio;
  d.hybrid_k = hybrid_k;
  d.fp32_bytes = quant::serving_bytes(*m);
  d.int8_bytes = quantized_footprint(*m, kernels::QMode::kInt8);
  d.bf16_bytes = quantized_footprint(*m, kernels::QMode::kBf16);
  d.fp32_per_gb = per_gb(d.fp32_bytes);
  d.int8_per_gb = per_gb(d.int8_bytes);
  d.bf16_per_gb = per_gb(d.bf16_bytes);
  if (hw.serve_mem_bytes > 0) {
    d.fp32_models = d.fp32_bytes > 0 ? hw.serve_mem_bytes / d.fp32_bytes : 0;
    d.int8_models = d.int8_bytes > 0 ? hw.serve_mem_bytes / d.int8_bytes : 0;
    d.bf16_models = d.bf16_bytes > 0 ? hw.serve_mem_bytes / d.bf16_bytes : 0;
  }
  return d;
}

std::string ServeDensity::summary() const {
  const double mb = 1.0 / (1 << 20);
  std::ostringstream os;
  os << "fp32 " << metrics::fmt(static_cast<double>(fp32_bytes) * mb, 1)
     << " MB (" << metrics::fmt(fp32_per_gb, 1) << "/GB, " << fp32_models
     << " fit) | int8 "
     << metrics::fmt(static_cast<double>(int8_bytes) * mb, 1) << " MB ("
     << metrics::fmt(int8_per_gb, 1) << "/GB, " << int8_models
     << " fit) | bf16 "
     << metrics::fmt(static_cast<double>(bf16_bytes) * mb, 1) << " MB ("
     << metrics::fmt(bf16_per_gb, 1) << "/GB, " << bf16_models << " fit)";
  return os.str();
}

}  // namespace pf::plan
