#include "core/rank_policy.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/factorize.h"

namespace pf::core {

std::array<uint64_t, 4> RankPolicy::encode() const {
  switch (kind) {
    case Kind::kFixedRatio:
      return {0, std::bit_cast<uint64_t>(ratio),
              static_cast<uint64_t>(min_rank), 0};
    case Kind::kEnergy:
      return {1, std::bit_cast<uint64_t>(energy),
              static_cast<uint64_t>(min_rank), 0};
    case Kind::kVarianceGated:
      return {2, std::bit_cast<uint64_t>(vg_threshold),
              static_cast<uint64_t>(vg_warmup_steps),
              std::bit_cast<uint64_t>(ratio)};
    case Kind::kAbReproject:
      return {3, std::bit_cast<uint64_t>(energy),
              static_cast<uint64_t>(min_rank),
              static_cast<uint64_t>(reproject_every)};
  }
  throw std::runtime_error("rank policy: unencodable kind");
}

RankPolicy RankPolicy::decode(const std::array<uint64_t, 4>& words) {
  RankPolicy p;
  switch (words[0]) {
    case 0:
      p.kind = Kind::kFixedRatio;
      p.ratio = std::bit_cast<double>(words[1]);
      p.min_rank = static_cast<int64_t>(words[2]);
      break;
    case 1:
      p.kind = Kind::kEnergy;
      p.energy = std::bit_cast<double>(words[1]);
      p.min_rank = static_cast<int64_t>(words[2]);
      break;
    case 2:
      p.kind = Kind::kVarianceGated;
      p.vg_threshold = std::bit_cast<double>(words[1]);
      p.vg_warmup_steps = static_cast<int64_t>(words[2]);
      p.ratio = std::bit_cast<double>(words[3]);
      break;
    case 3:
      p.kind = Kind::kAbReproject;
      p.energy = std::bit_cast<double>(words[1]);
      p.min_rank = static_cast<int64_t>(words[2]);
      p.reproject_every = static_cast<int64_t>(words[3]);
      break;
    default:
      throw std::runtime_error(
          "rank policy: unknown kind word " + std::to_string(words[0]) +
          " (snapshot from a newer build, or corrupt); refusing to treat "
          "it as fixed-ratio");
  }
  return p;
}

bool operator==(const RankPolicy& a, const RankPolicy& b) {
  // The encoding carries exactly the knobs active for the kind: fixed(0.25)
  // with a stale energy field is still fixed(0.25).
  return a.encode() == b.encode();
}

int64_t RankPolicy::rank_for(const Tensor& unrolled_weight) const {
  const int64_t m = unrolled_weight.size(0), n = unrolled_weight.size(1);
  const int64_t r =
      kind == Kind::kFixedRatio || kind == Kind::kVarianceGated
          ? std::max(min_rank, ratio_rank(m, n, ratio))
          : choose_rank_for_energy(unrolled_weight, energy, min_rank);
  // A min_rank above min(m, n) cannot request an over-complete
  // factorization.
  return std::clamp<int64_t>(r, 1, std::max<int64_t>(1, std::min(m, n)));
}

namespace {

void visit(nn::Module& m, const RankPolicy& policy, RankPlan& plan) {
  const std::string t = m.type_name();
  Tensor w;  // the layer's (unrolled) weight
  if (t == "Conv2d")
    w = unroll_conv(static_cast<nn::Conv2d&>(m).weight->value);
  else if (t == "Linear")
    w = static_cast<nn::Linear&>(m).weight->value;  // (out, in)
  if (!w.empty()) {
    RankPlanEntry e;
    e.layer = t + " " + std::to_string(w.size(0)) + "x" +
              std::to_string(w.size(1));
    e.full_rank = std::min(w.size(0), w.size(1));
    e.rank = policy.rank_for(w);
    e.dense_params = w.numel();
    e.factored_params = e.rank * (w.size(0) + w.size(1));
    e.retained_energy = retained_energy(w, e.rank);
    plan.entries.push_back(std::move(e));
  }
  for (nn::Module* c : m.children()) visit(*c, policy, plan);
}

}  // namespace

RankPlan plan_ranks(nn::Module& model, const RankPolicy& policy) {
  RankPlan plan;
  visit(model, policy, plan);
  for (const RankPlanEntry& e : plan.entries) {
    plan.dense_params_total += e.dense_params;
    plan.factored_params_total += e.factored_params;
  }
  return plan;
}

}  // namespace pf::core
