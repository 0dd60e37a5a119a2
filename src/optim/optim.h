// Optimizers and learning-rate schedules used across the paper's recipes:
// SGD with momentum + L2 (excluded on BN/bias, per Goyal et al.), plain SGD
// with gradient-norm clipping (LSTM recipe), Adam (Transformer recipe), step
// decay, linear warm-up, and decay-on-plateau.
#pragma once

#include <limits>
#include <vector>

#include "nn/module.h"

namespace pf::optim {

class Optimizer {
 public:
  explicit Optimizer(std::vector<nn::Param*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void step() = 0;
  void zero_grad();
  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  // The optimizer's slot buffers (SGD velocity, Adam moments) in a stable
  // order, and its integer state (Adam's step count). core/checkpoint
  // snapshots these so a resumed run steps bitwise-identically to an
  // uninterrupted one; a stateless optimizer returns empty vectors.
  virtual std::vector<Tensor*> state_tensors() { return {}; }
  virtual std::vector<int64_t> state_scalars() const { return {}; }
  virtual void set_state_scalars(const std::vector<int64_t>&) {}

 protected:
  std::vector<nn::Param*> params_;
  float lr_ = 0.1f;
};

class SGD : public Optimizer {
 public:
  // momentum 0 disables the velocity buffer; weight_decay is applied as L2
  // on parameters not marked no_decay.
  SGD(std::vector<nn::Param*> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);
  void step() override;
  std::vector<Tensor*> state_tensors() override;

  // Re-derives the velocity slots after a re-projection changed some
  // parameter shapes (core::reproject): slots whose shape still matches
  // their param keep their contents; changed ones restart from zero (the
  // re-SVD re-based those factors, so old momentum no longer applies).
  void rebind_slots();

 private:
  float momentum_, weight_decay_;
  std::vector<Tensor> velocity_;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<nn::Param*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);
  void step() override;
  std::vector<Tensor*> state_tensors() override;      // m then v, per param
  std::vector<int64_t> state_scalars() const override;  // {t}
  void set_state_scalars(const std::vector<int64_t>& s) override;

 private:
  float beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

// Clips the global gradient norm across all params to max_norm; returns the
// pre-clip norm (the LSTM recipe clips at 0.25).
float clip_grad_norm(const std::vector<nn::Param*>& params, float max_norm);

// ---- Schedules. All return the lr for a given epoch. ----

// Step decay: lr0 * factor^(#milestones passed).
class StepDecay {
 public:
  StepDecay(float lr0, std::vector<int> milestones, float factor = 0.1f)
      : lr0_(lr0), milestones_(std::move(milestones)), factor_(factor) {}
  float at_epoch(int epoch) const;

 private:
  float lr0_;
  std::vector<int> milestones_;
  float factor_;
};

// Linear warm-up from `start` to `peak` over `warmup_epochs`, then delegate
// to a StepDecay on the peak lr (the large-batch recipe of Goyal et al.).
class WarmupThenStep {
 public:
  WarmupThenStep(float start, float peak, int warmup_epochs,
                 std::vector<int> milestones, float factor = 0.1f)
      : start_(start),
        peak_(peak),
        warmup_(warmup_epochs),
        step_(peak, std::move(milestones), factor) {}
  float at_epoch(int epoch) const;

 private:
  float start_, peak_;
  int warmup_;
  StepDecay step_;
};

// Decay-on-plateau: multiply lr by `factor` whenever the monitored value
// fails to improve (the WikiText-2 recipe: lr 20, factor 0.25).
class ReduceOnPlateau {
 public:
  ReduceOnPlateau(float lr0, float factor) : lr_(lr0), factor_(factor) {}
  // Report a new validation metric (lower is better); returns current lr.
  float observe(float metric);
  float lr() const { return lr_; }

 private:
  float lr_, factor_;
  float best_ = std::numeric_limits<float>::infinity();
};

}  // namespace pf::optim
