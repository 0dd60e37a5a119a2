// Alpha-beta communication cost model for ring allreduce and allgather
// (Thakur, Rabenseifner & Gropp 2005 -- the model the paper's Section 4.1
// latency argument is built on).
//
//   ring allreduce of n bytes over p nodes:
//       t = 2 (p-1) alpha_step + 2 n (p-1)/p / B
//   allgather where each node contributes n bytes:
//       t = (p-1) alpha_step + n (p-1) / B
//
// The per-call latency term scales with p, which is why the paper packs all
// gradients into ONE flat buffer per iteration instead of one allreduce per
// layer -- `packed` toggles that optimization so benches can ablate it.
#pragma once

#include <cstdint>

#include "dist/hardware.h"

namespace pf::dist {

struct CostModel {
  int nodes = 16;
  // Defaults derive from the shared HardwareProfile constants (hardware.h),
  // so calibration updates one place instead of every model independently.
  double bandwidth_bytes_per_s = kDefaultLinkBandwidthBytesPerS;
  double latency_s = kDefaultLinkLatencyS;  // per ring step

  double allreduce_seconds(int64_t bytes, int n_calls = 1) const {
    const double p = nodes;
    const double alpha = 2.0 * (p - 1) * latency_s;
    const double beta =
        2.0 * static_cast<double>(bytes) * (p - 1) / p / bandwidth_bytes_per_s;
    return n_calls * alpha + beta;
  }

  double allgather_seconds(int64_t bytes_per_node, int n_calls = 1) const {
    const double p = nodes;
    const double alpha = (p - 1) * latency_s;
    const double beta = static_cast<double>(bytes_per_node) * (p - 1) /
                        bandwidth_bytes_per_s;
    return n_calls * alpha + beta;
  }
};

// Projects a HardwareProfile's inter-node link onto the closed-form model.
CostModel cost_model_from(const HardwareProfile& hw, int nodes);

}  // namespace pf::dist
