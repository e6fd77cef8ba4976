// Neural-network layers with forward/backward passes.
//
// Activations flow as rank-2 tensors [batch, features]; convolutional
// layers interpret the feature axis as C*H*W planes. Each layer keeps what
// its backward pass needs (Dense, ReLU and Conv2D keep a reference to their
// input rather than a copy), so a Layer instance serves one training stream
// at a time (each HPO experiment builds its own model — exactly the paper's
// create_model(config) per task).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hpp"
#include "support/rng.hpp"

namespace chpo::ml {

/// Non-trainable per-layer state that a checkpoint must carry beyond the
/// params() tensors: BatchNorm running statistics, Dropout's RNG stream.
/// `tensors` and `words` are layer-defined; layers without such state leave
/// both empty.
struct LayerState {
  std::vector<Tensor> tensors;
  std::vector<std::uint64_t> words;
};

class Layer {
 public:
  virtual ~Layer() = default;
  virtual std::string name() const = 0;

  /// y = f(x). `threads` caps internal parallelism (the task's CPU budget).
  /// A layer may keep a reference to `x`: it must stay alive and unchanged
  /// until the matching backward call (Model keeps every activation until
  /// the next forward).
  virtual Tensor forward(const Tensor& x, bool training, unsigned threads) = 0;

  /// dx = df/dx(dy); accumulates parameter gradients internally. When the
  /// caller discards dx (`need_input_grad` false: the model's first layer),
  /// a layer may skip computing it and return an empty tensor.
  virtual Tensor backward(const Tensor& dy, unsigned threads, bool need_input_grad = true) = 0;

  /// Trainable parameters and their gradients, index-aligned.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Checkpointable non-parameter state (see LayerState). Restore expects
  /// exactly what snapshot produced for the same architecture.
  virtual LayerState snapshot_state() const { return {}; }
  virtual void restore_state(const LayerState& state) { (void)state; }

  /// Approximate multiply-accumulate count per sample (for cost reporting).
  virtual std::size_t flops_per_sample() const { return 0; }
};

/// Fully connected: y = x W + b. W is [in, out].
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Rng& rng);
  std::string name() const override { return "dense"; }
  Tensor forward(const Tensor& x, bool training, unsigned threads) override;
  Tensor backward(const Tensor& dy, unsigned threads, bool need_input_grad = true) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::size_t flops_per_sample() const override { return in_ * out_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_, dw_, db_;
  const Tensor* x_ = nullptr;  ///< forward input, read by backward
};

class ReLU : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& x, bool training, unsigned threads) override;
  Tensor backward(const Tensor& dy, unsigned threads, bool need_input_grad = true) override;

 private:
  const Tensor* x_ = nullptr;  ///< forward input, read by backward
};

/// 2-D convolution, stride 1, valid padding. Input rows are C*H*W planes.
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_c, std::size_t h, std::size_t w, std::size_t out_c, std::size_t ksize,
         Rng& rng);
  std::string name() const override { return "conv2d"; }
  Tensor forward(const Tensor& x, bool training, unsigned threads) override;
  Tensor backward(const Tensor& dy, unsigned threads, bool need_input_grad = true) override;
  std::vector<Tensor*> params() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweights_, &dbias_}; }
  std::size_t flops_per_sample() const override {
    return out_c_ * out_h_ * out_w_ * in_c_ * k_ * k_;
  }

  std::size_t out_height() const { return out_h_; }
  std::size_t out_width() const { return out_w_; }

 private:
  std::size_t in_c_, h_, w_, out_c_, k_, out_h_, out_w_;
  Tensor weights_;  ///< [out_c, in_c*k*k]
  Tensor bias_;     ///< [out_c]
  Tensor dweights_, dbias_;
  const Tensor* x_ = nullptr;  ///< forward input, read by backward
};

/// 2x2 max pooling, stride 2. Input rows are C*H*W planes.
class MaxPool2D : public Layer {
 public:
  MaxPool2D(std::size_t c, std::size_t h, std::size_t w);
  std::string name() const override { return "maxpool2d"; }
  Tensor forward(const Tensor& x, bool training, unsigned threads) override;
  Tensor backward(const Tensor& dy, unsigned threads, bool need_input_grad = true) override;

  std::size_t out_height() const { return out_h_; }
  std::size_t out_width() const { return out_w_; }

 private:
  std::size_t c_, h_, w_, out_h_, out_w_;
  std::vector<std::size_t> argmax_;  ///< winning input index per output
  std::vector<std::size_t> in_shape_;
};

/// Batch normalisation over the feature axis of [batch, features]
/// activations: training uses batch statistics and updates running
/// estimates; evaluation uses the running estimates. Learnable per-feature
/// scale (gamma) and shift (beta).
class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t features, float momentum = 0.9f, float eps = 1e-5f);
  std::string name() const override { return "batchnorm"; }
  Tensor forward(const Tensor& x, bool training, unsigned threads) override;
  Tensor backward(const Tensor& dy, unsigned threads, bool need_input_grad = true) override;
  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&dgamma_, &dbeta_}; }
  LayerState snapshot_state() const override { return {{running_mean_, running_var_}, {}}; }
  void restore_state(const LayerState& state) override;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::size_t features_;
  float momentum_, eps_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor running_mean_, running_var_;
  // Backward-pass caches (training batches only).
  Tensor x_hat_;         ///< normalised activations
  Tensor batch_mean_, batch_inv_std_;
};

/// Inverted dropout; identity at evaluation time.
class Dropout : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed);
  std::string name() const override { return "dropout"; }
  Tensor forward(const Tensor& x, bool training, unsigned threads) override;
  Tensor backward(const Tensor& dy, unsigned threads, bool need_input_grad = true) override;
  LayerState snapshot_state() const override;
  void restore_state(const LayerState& state) override;

 private:
  double rate_;
  Rng rng_;
  std::vector<float> mask_;
};

}  // namespace chpo::ml
