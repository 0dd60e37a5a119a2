// Module hierarchy: parameter registration, train/eval mode, and a
// structural tree walk used by the Pufferfish warm-start (core/factorize)
// to pair vanilla layers with their low-rank counterparts.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "kernels/qmat.h"
#include "tensor/rng.h"

namespace pf::nn {

// A learnable parameter. `no_decay` marks parameters excluded from L2
// weight decay (BatchNorm/LayerNorm weights and all biases -- the paper
// follows Goyal et al. and regularizes "model weights instead of the
// BatchNorm layers").
//
// `quantizable` marks a layer's weight matrices (Module::add_weight): the
// tensors quant::quantize_module may store quantized (DESIGN.md §14). A set
// `quant` slot holds the weight in its own shape; tape-free forwards then
// read the dequantized slot (Weight::read), and quant::commit may release
// the fp32 value.
struct Param {
  std::string name;
  ag::Var var;
  bool no_decay = false;
  bool quantizable = false;
  std::shared_ptr<const kernels::QuantizedMat> quant;
};

// A layer's handle to one of its quantizable weights. It reads like the
// param's ag::Var (`w->value`, or passed to an op); forwards read it through
// read(), which returns the Var, or, when the param's quant slot is set, the
// dequantized weight as a constant leaf -- so a quantized layer is the fp32
// layer on the dequantized weights, bit for bit. read() throws under an
// active tape while the slot is set: quantized weights are eval-only.
class Weight {
 public:
  Weight() = default;
  explicit Weight(Param* p) : p_(p) {}
  operator const ag::Var&() const { return p_->var; }
  ag::Node* operator->() const { return p_->var.get(); }
  Param& param() const { return *p_; }
  ag::Var read() const;

 private:
  Param* p_ = nullptr;
};

// A non-learnable persistent tensor (BN running statistics).
struct Buffer {
  std::string name;
  Tensor value;
};

class Module {
 public:
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Short structural type tag ("Conv2d", "LowRankLinear", ...) used by the
  // warm-start pairing walk and debug dumps.
  virtual std::string type_name() const = 0;

  // Direct children in construction order. The vanilla and hybrid variants
  // of a model produce structurally parallel trees.
  const std::vector<Module*>& children() const { return children_; }

  // Parameters registered directly on this module (not children's).
  std::deque<Param>& local_params() { return params_; }
  // Params and buffers live in deques so the handles handed out by
  // add_weight and add_buffer stay valid as more are registered.
  std::deque<Buffer>& local_buffers() { return buffers_; }

  // All parameters in the subtree, depth-first.
  std::vector<Param*> parameters();
  // Total learnable scalar count in the subtree.
  int64_t num_params();

  // Recursively set training mode (affects dropout, batchnorm).
  void train(bool mode = true);
  bool is_training() const { return training_; }

  // Zero all gradients in the subtree.
  void zero_grad();

  // Gather all parameter *values* as one flat vector (tests compare
  // replicas with it), and gather/scatter all *gradients* (the flat
  // allreduce buffer, the paper's packing trick).
  Tensor flat_params();
  Tensor flat_grads();
  void set_flat_grads(const Tensor& flat);

 protected:
  Module() = default;
  // Registers and returns a learnable parameter.
  ag::Var add_param(std::string name, Tensor init, bool no_decay = false);
  // Registers a quantizable weight matrix (decayed; rows = dim 0 carry the
  // int8 scales).
  Weight add_weight(std::string name, Tensor init);
  Tensor* add_buffer(std::string name, Tensor init);
  void register_child(Module* child) { children_.push_back(child); }

  bool training_ = true;

 private:
  std::vector<Module*> children_;
  std::deque<Param> params_;
  std::deque<Buffer> buffers_;
};

// A module with the common unary Var -> Var forward (conv/linear layers,
// activations, containers); sequence models define their own entry points.
class UnaryModule : public Module {
 public:
  virtual ag::Var forward(const ag::Var& x) = 0;
};

}  // namespace pf::nn
