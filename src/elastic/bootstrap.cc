#include "elastic/bootstrap.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "nn/serialize.h"

namespace pf::elastic {

namespace {

Tensor clone_tensor(const Tensor& t) {
  Tensor out = Tensor::uninit(t.shape());
  std::memcpy(out.data(), t.data(),
              static_cast<size_t>(t.numel()) * sizeof(float));
  return out;
}

}  // namespace

const char* to_string(BootstrapMode mode) {
  switch (mode) {
    case BootstrapMode::kExact: return "exact";
    case BootstrapMode::kDelta: return "delta";
  }
  return "?";
}

BootstrapPayload make_bootstrap(nn::Module& src, optim::Optimizer& opt,
                                BootstrapMode mode, nn::Module* base,
                                const quant::DeltaSpec& spec) {
  BootstrapPayload p;
  p.mode = mode;
  if (mode == BootstrapMode::kExact) {
    for (const Tensor* t : nn::checkpoint_tensors(src)) {
      p.state.push_back(clone_tensor(*t));
      p.bytes += t->numel() * static_cast<int64_t>(sizeof(float));
    }
    for (Tensor* t : opt.state_tensors()) {
      p.opt_state.push_back(clone_tensor(*t));
      p.bytes += t->numel() * static_cast<int64_t>(sizeof(float));
    }
    return p;
  }
  if (base == nullptr)
    throw std::runtime_error(
        "elastic: delta bootstrap needs the shared base model");
  p.delta = quant::compute_delta(*base, src, spec);
  p.bytes = p.delta.bytes();  // momentum restarts at zero: no opt payload
  return p;
}

void apply_bootstrap(nn::Module& dst, optim::Optimizer& opt,
                     const BootstrapPayload& payload, nn::Module* base) {
  const std::vector<Tensor*> entries = nn::checkpoint_tensors(dst);
  if (payload.mode == BootstrapMode::kExact) {
    if (entries.size() != payload.state.size())
      throw std::runtime_error(
          "elastic: bootstrap payload does not match the joiner's module "
          "tree (entry count mismatch)");
    for (size_t i = 0; i < entries.size(); ++i) {
      Tensor* t = entries[i];
      if (t->numel() != payload.state[i].numel())
        throw std::runtime_error(
            "elastic: bootstrap payload tensor shape mismatch");
      std::memcpy(t->data(), payload.state[i].data(),
                  static_cast<size_t>(t->numel()) * sizeof(float));
    }
    std::vector<Tensor*> slots = opt.state_tensors();
    if (slots.size() != payload.opt_state.size())
      throw std::runtime_error(
          "elastic: bootstrap optimizer state count mismatch");
    for (size_t i = 0; i < slots.size(); ++i)
      std::memcpy(slots[i]->data(), payload.opt_state[i].data(),
                  static_cast<size_t>(slots[i]->numel()) * sizeof(float));
    return;
  }
  // kDelta: reset to the shared base (params AND buffers, so BN statistics
  // come from the base too), reconstruct base + UV^T in place, restart
  // momentum. The joiner matches the canonical replica up to the delta
  // spec's discarded spectral mass.
  if (base == nullptr)
    throw std::runtime_error(
        "elastic: delta bootstrap needs the shared base model");
  const std::vector<Tensor*> base_entries = nn::checkpoint_tensors(*base);
  if (entries.size() != base_entries.size())
    throw std::runtime_error(
        "elastic: joiner and shared base module trees differ");
  for (size_t i = 0; i < entries.size(); ++i) {
    Tensor* t = entries[i];
    const Tensor* b = base_entries[i];
    if (t->numel() != b->numel())
      throw std::runtime_error(
          "elastic: joiner and shared base tensor shapes differ");
    std::memcpy(t->data(), b->data(),
                static_cast<size_t>(t->numel()) * sizeof(float));
  }
  quant::apply_delta(dst, payload.delta);
  for (Tensor* t : opt.state_tensors())
    std::memset(t->data(), 0,
                static_cast<size_t>(t->numel()) * sizeof(float));
}

}  // namespace pf::elastic
