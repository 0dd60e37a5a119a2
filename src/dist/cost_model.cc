#include "dist/cost_model.h"

namespace pf::dist {

CostModel cost_model_from(const HardwareProfile& hw, int nodes) {
  CostModel cm;
  cm.nodes = nodes;
  cm.bandwidth_bytes_per_s = hw.bandwidth_bytes_per_s;
  cm.latency_s = hw.alpha_s;
  return cm;
}

}  // namespace pf::dist
