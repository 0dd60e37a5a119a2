#include "dist/cluster.h"

#include <algorithm>

#include "optim/optim.h"

namespace pf::dist {

float lr_at_epoch(const DistTrainConfig& cfg, int epoch) {
  if (epoch < cfg.lr_warmup_epochs) {
    const float frac = static_cast<float>(epoch + 1) / cfg.lr_warmup_epochs;
    return cfg.lr_warmup_start + (cfg.lr - cfg.lr_warmup_start) * frac;
  }
  return optim::StepDecay(cfg.lr, cfg.lr_milestones, cfg.lr_factor)
      .at_epoch(epoch);
}

ShardRange shard_range(int64_t batch, int lanes, int lane) {
  ShardRange r;
  if (batch <= 0 || lanes <= 0 || lane < 0 || lane >= lanes) return r;
  const int64_t base = batch / lanes;
  const int64_t rem = batch % lanes;
  r.start = lane * base + std::min<int64_t>(lane, rem);
  r.count = base + (lane < rem ? 1 : 0);
  return r;
}

}  // namespace pf::dist
