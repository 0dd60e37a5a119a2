#include "nn/module.h"

#include <stdexcept>

namespace pf::nn {

std::vector<Param*> Module::parameters() {
  std::vector<Param*> out;
  for (Param& p : params_) out.push_back(&p);
  for (Module* c : children_) {
    auto sub = c->parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

int64_t Module::num_params() {
  int64_t n = 0;
  for (Param* p : parameters()) n += p->var->numel();
  return n;
}

void Module::train(bool mode) {
  training_ = mode;
  for (Module* c : children_) c->train(mode);
}

void Module::zero_grad() {
  for (Param* p : parameters()) p->var->zero_grad();
}

Tensor Module::flat_params() {
  Tensor flat = Tensor::uninit(Shape{num_params()});
  float* fp = flat.data();
  int64_t off = 0;
  for (Param* p : parameters()) {
    const Tensor& v = p->var->value;
    std::copy(v.data(), v.data() + v.numel(), fp + off);
    off += v.numel();
  }
  return flat;
}

Tensor Module::flat_grads() {
  Tensor flat(Shape{num_params()});  // zero-filled: grad-less params stay 0
  float* fp = flat.data();
  int64_t off = 0;
  for (Param* p : parameters()) {
    if (p->var->has_grad()) {
      const Tensor& g = p->var->grad;
      std::copy(g.data(), g.data() + g.numel(), fp + off);
    }
    off += p->var->numel();
  }
  return flat;
}

void Module::set_flat_grads(const Tensor& flat) {
  if (flat.numel() != num_params())
    throw std::runtime_error("set_flat_grads: size mismatch");
  int64_t off = 0;
  for (Param* p : parameters()) {
    const int64_t n = p->var->numel();
    // Zero-copy window into `flat`; set_grad_from copies it into the node's
    // existing grad buffer (never aliasing `flat`, which the shm ring path
    // mutates concurrently across workers).
    p->var->set_grad_from(flat.narrow(off, n).reshape(p->var->value.shape()));
    off += n;
  }
}

ag::Var Module::add_param(std::string name, Tensor init, bool no_decay) {
  ag::Var v = ag::leaf(std::move(init), /*requires_grad=*/true);
  params_.push_back(Param{std::move(name), v, no_decay, false, nullptr});
  return v;
}

Weight Module::add_weight(std::string name, Tensor init) {
  add_param(std::move(name), std::move(init));
  params_.back().quantizable = true;
  return Weight(&params_.back());
}

ag::Var Weight::read() const {
  if (!p_->quant) return p_->var;
  if (ag::grad_enabled())
    throw std::runtime_error("quantized weight '" + p_->name +
                             "' is eval-only (tape-free forwards); "
                             "dequantize before training");
  return ag::leaf(kernels::dequantize(*p_->quant));
}

Tensor* Module::add_buffer(std::string name, Tensor init) {
  buffers_.push_back(Buffer{std::move(name), std::move(init)});
  return &buffers_.back().value;
}

}  // namespace pf::nn
