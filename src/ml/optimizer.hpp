// Optimizers — the "optimizer" hyperparameter of the paper's Listing 1
// config file: {"optimizer": ["Adam", "SGD", "RMSprop"]}.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hpp"

namespace chpo::ml {

/// Opaque optimizer state (momentum / moment slots plus the step counter)
/// for checkpoint/resume: capture with snapshot_state(), feed back through
/// restore_state() and the update sequence continues bit-exactly.
struct OptimizerState {
  std::vector<Tensor> slots;
  long steps = 0;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;

  /// Apply one update step: params[i] -= f(grads[i]). The param/grad lists
  /// must be identical (same tensors, same order) on every call.
  virtual void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads) = 0;

  virtual OptimizerState snapshot_state() const { return {}; }
  virtual void restore_state(OptimizerState state) { (void)state; }

  /// Multiplier applied to the base learning rate (LR schedules).
  void set_lr_scale(float scale) { lr_scale_ = scale; }

 protected:
  float lr_scale_ = 1.0f;
};

class Sgd : public Optimizer {
 public:
  explicit Sgd(float lr = 0.01f, float momentum = 0.9f) : lr_(lr), momentum_(momentum) {}
  std::string name() const override { return "SGD"; }
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads) override;
  OptimizerState snapshot_state() const override { return {velocity_, 0}; }
  void restore_state(OptimizerState state) override { velocity_ = std::move(state.slots); }

 private:
  float lr_, momentum_;
  std::vector<Tensor> velocity_;
};

class Adam : public Optimizer {
 public:
  explicit Adam(float lr = 0.001f, float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  std::string name() const override { return "Adam"; }
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads) override;
  OptimizerState snapshot_state() const override;
  void restore_state(OptimizerState state) override;

 private:
  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<Tensor> m_, v_;
};

class RmsProp : public Optimizer {
 public:
  explicit RmsProp(float lr = 0.001f, float decay = 0.9f, float eps = 1e-8f)
      : lr_(lr), decay_(decay), eps_(eps) {}
  std::string name() const override { return "RMSprop"; }
  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads) override;
  OptimizerState snapshot_state() const override { return {cache_, 0}; }
  void restore_state(OptimizerState state) override { cache_ = std::move(state.slots); }

 private:
  float lr_, decay_, eps_;
  std::vector<Tensor> cache_;
};

/// Factory for config strings "SGD" | "Adam" | "RMSprop" (case-sensitive,
/// matching the paper's JSON). lr <= 0 selects each optimizer's default.
std::unique_ptr<Optimizer> make_optimizer(const std::string& name, float lr = -1.0f);

}  // namespace chpo::ml
