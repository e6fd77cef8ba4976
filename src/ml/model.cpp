#include "ml/model.hpp"

#include <stdexcept>
#include <utility>

namespace chpo::ml {

Tensor Model::forward(const Tensor& x, bool training, unsigned threads) {
  if (layers_.empty()) return x;
  activations_.resize(layers_.size());
  const Tensor* in = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    activations_[i] = layers_[i]->forward(*in, training, threads);
    in = &activations_[i];
  }
  return std::move(activations_.back());
}

void Model::backward(const Tensor& dlogits, unsigned threads) {
  Tensor grad;
  const Tensor* dy = &dlogits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grad = layers_[i]->backward(*dy, threads, /*need_input_grad=*/i > 0);
    dy = &grad;
  }
}

std::vector<Tensor*> Model::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* p : layer->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Model::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* g : layer->grads()) out.push_back(g);
  return out;
}

std::size_t Model::parameter_count() {
  std::size_t n = 0;
  for (Tensor* p : params()) n += p->size();
  return n;
}

std::size_t Model::flops_per_sample() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->flops_per_sample();
  return n;
}

std::vector<LayerState> Model::snapshot_layer_states() const {
  std::vector<LayerState> out;
  out.reserve(layers_.size());
  for (const auto& layer : layers_) out.push_back(layer->snapshot_state());
  return out;
}

void Model::restore_layer_states(const std::vector<LayerState>& states) {
  if (states.size() != layers_.size())
    throw std::invalid_argument("restore_layer_states: layer count mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) layers_[i]->restore_state(states[i]);
}

Model make_mlp(std::size_t input, const std::vector<std::size_t>& hidden, std::size_t classes,
               Rng& rng, bool batch_norm) {
  return make_mlp(input, hidden, classes, rng, MlpOptions{.batch_norm = batch_norm});
}

Model make_mlp(std::size_t input, const std::vector<std::size_t>& hidden, std::size_t classes,
               Rng& rng, const MlpOptions& options) {
  Model model;
  std::size_t prev = input;
  std::uint64_t dropout_seed = options.dropout_seed;
  for (std::size_t h : hidden) {
    model.add(std::make_unique<Dense>(prev, h, rng));
    if (options.batch_norm) model.add(std::make_unique<BatchNorm>(h));
    model.add(std::make_unique<ReLU>());
    if (options.dropout > 0.0) model.add(std::make_unique<Dropout>(options.dropout, dropout_seed++));
    prev = h;
  }
  model.add(std::make_unique<Dense>(prev, classes, rng));
  return model;
}

std::vector<Tensor> snapshot_weights(Model& model) {
  std::vector<Tensor> out;
  for (Tensor* p : model.params()) out.push_back(*p);
  return out;
}

void load_weights(Model& model, const std::vector<Tensor>& weights) {
  const std::vector<Tensor*> params = model.params();
  if (params.size() != weights.size())
    throw std::invalid_argument("load_weights: parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->size() != weights[i].size())
      throw std::invalid_argument("load_weights: tensor shape mismatch");
    *params[i] = weights[i];
  }
}

std::vector<Tensor> average_weights(const std::vector<std::vector<Tensor>>& snapshots) {
  if (snapshots.empty()) throw std::invalid_argument("average_weights: no snapshots");
  std::vector<Tensor> out = snapshots.front();
  for (std::size_t s = 1; s < snapshots.size(); ++s) {
    if (snapshots[s].size() != out.size())
      throw std::invalid_argument("average_weights: snapshot arity mismatch");
    for (std::size_t t = 0; t < out.size(); ++t) {
      if (snapshots[s][t].size() != out[t].size())
        throw std::invalid_argument("average_weights: tensor shape mismatch");
      for (std::size_t j = 0; j < out[t].size(); ++j) out[t][j] += snapshots[s][t][j];
    }
  }
  const float inv = 1.0f / static_cast<float>(snapshots.size());
  for (Tensor& t : out)
    for (std::size_t j = 0; j < t.size(); ++j) t[j] *= inv;
  return out;
}

Model make_cnn(std::size_t c, std::size_t h, std::size_t w, std::size_t classes, Rng& rng) {
  Model model;
  auto conv1 = std::make_unique<Conv2D>(c, h, w, 8, 3, rng);
  const std::size_t h1 = conv1->out_height(), w1 = conv1->out_width();
  model.add(std::move(conv1));
  model.add(std::make_unique<ReLU>());
  auto pool1 = std::make_unique<MaxPool2D>(8, h1, w1);
  const std::size_t h2 = pool1->out_height(), w2 = pool1->out_width();
  model.add(std::move(pool1));

  auto conv2 = std::make_unique<Conv2D>(8, h2, w2, 16, 3, rng);
  const std::size_t h3 = conv2->out_height(), w3 = conv2->out_width();
  model.add(std::move(conv2));
  model.add(std::make_unique<ReLU>());
  auto pool2 = std::make_unique<MaxPool2D>(16, h3, w3);
  const std::size_t h4 = pool2->out_height(), w4 = pool2->out_width();
  model.add(std::move(pool2));

  model.add(std::make_unique<Dense>(16 * h4 * w4, classes, rng));
  return model;
}

}  // namespace chpo::ml
