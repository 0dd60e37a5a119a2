#include "elastic/bootstrap.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "nn/serialize.h"

namespace pf::elastic {

const char* to_string(BootstrapMode mode) {
  switch (mode) {
    case BootstrapMode::kExact: return "exact";
    case BootstrapMode::kDelta: return "delta";
  }
  return "?";
}

void apply_bootstrap(nn::Module& dst, optim::Optimizer& opt,
                     const quant::DeltaModel& delta, nn::Module& base) {
  // Reset to the shared base (params AND buffers, so BN statistics come
  // from the base too), reconstruct base + UV^T in place, restart
  // momentum. The joiner matches the canonical replica up to the delta
  // spec's discarded spectral mass.
  const std::vector<Tensor*> entries = nn::checkpoint_tensors(dst);
  const std::vector<Tensor*> base_entries = nn::checkpoint_tensors(base);
  if (entries.size() != base_entries.size() ||
      entries.size() != delta.entries.size())
    throw std::runtime_error(
        "elastic: joiner, shared base and delta module trees differ");
  for (size_t i = 0; i < entries.size(); ++i)
    if (entries[i]->shape() != base_entries[i]->shape() ||
        entries[i]->shape() != delta.entries[i].shape)
      throw std::runtime_error(
          "elastic: joiner, shared base and delta tensor shapes differ");
  for (size_t i = 0; i < entries.size(); ++i)
    std::memcpy(entries[i]->data(), std::as_const(*base_entries[i]).data(),
                static_cast<size_t>(entries[i]->numel()) * sizeof(float));
  quant::apply_delta(dst, delta);
  for (Tensor* t : opt.state_tensors())
    std::memset(t->data(), 0,
                static_cast<size_t>(t->numel()) * sizeof(float));
}

}  // namespace pf::elastic
