// Sequential model container and the two reference architectures the
// experiments use: an MLP for MNIST-scale inputs and a small CNN for
// CIFAR-scale inputs (the paper's create_model(config)).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/layers.hpp"
#include "ml/tensor.hpp"

namespace chpo::ml {

class Model {
 public:
  Model() = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  std::size_t layer_count() const { return layers_.size(); }

  /// Forward through every layer. Layers read their inputs again in
  /// backward, so `x` must stay alive and unchanged until then; the
  /// intermediate activations are kept here until the next forward.
  Tensor forward(const Tensor& x, bool training, unsigned threads = 1);

  /// Backward from dLoss/dLogits; fills every layer's gradients. The input
  /// gradient of the first layer is never computed (nothing reads it).
  void backward(const Tensor& dlogits, unsigned threads = 1);

  /// Flattened parameter / gradient lists across layers.
  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();

  std::size_t parameter_count();
  /// Approximate MACs per sample for one forward pass.
  std::size_t flops_per_sample() const;

  /// Non-parameter layer state (BatchNorm running stats, Dropout RNG),
  /// one LayerState per layer. Restore requires the same architecture.
  std::vector<LayerState> snapshot_layer_states() const;
  void restore_layer_states(const std::vector<LayerState>& states);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  /// Output of every layer but the last (which forward moves out): the
  /// inputs layers 1..n-1 refer back to in backward.
  std::vector<Tensor> activations_;
};

/// input -> Dense(hidden) [-> BatchNorm] -> ReLU [-> Dropout] -> ... ->
/// Dense(classes)
struct MlpOptions {
  bool batch_norm = false;
  double dropout = 0.0;  ///< rate after each hidden activation; 0 = none
  std::uint64_t dropout_seed = 11;
};
Model make_mlp(std::size_t input, const std::vector<std::size_t>& hidden, std::size_t classes,
               Rng& rng, bool batch_norm = false);
Model make_mlp(std::size_t input, const std::vector<std::size_t>& hidden, std::size_t classes,
               Rng& rng, const MlpOptions& options);

/// Conv(k3,c8) -> ReLU -> MaxPool -> Conv(k3,c16) -> ReLU -> MaxPool ->
/// Dense(classes). Input rows are c*h*w planes.
Model make_cnn(std::size_t c, std::size_t h, std::size_t w, std::size_t classes, Rng& rng);

/// Copy all trainable parameters out of / into a model. Snapshots travel
/// through the task runtime's data registry for distributed training.
std::vector<Tensor> snapshot_weights(Model& model);
void load_weights(Model& model, const std::vector<Tensor>& weights);

/// Element-wise average of parameter snapshots (all same shapes).
std::vector<Tensor> average_weights(const std::vector<std::vector<Tensor>>& snapshots);

}  // namespace chpo::ml
