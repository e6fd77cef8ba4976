#include "ml/layers.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "support/parallel_for.hpp"

namespace chpo::ml {

// ---------------------------------------------------------------- Dense

Dense::Dense(std::size_t in, std::size_t out, Rng& rng)
    : in_(in),
      out_(out),
      w_(Tensor::randn({in, out}, rng, std::sqrt(2.0f / static_cast<float>(in)))),  // He init
      b_(Tensor::zeros({out})),
      dw_(Tensor::zeros({in, out})),
      db_(Tensor::zeros({out})) {}

Tensor Dense::forward(const Tensor& x, bool /*training*/, unsigned threads) {
  x_ = &x;
  Tensor y;
  matmul(x, w_, y, threads);
  add_row_bias(y, b_);
  return y;
}

Tensor Dense::backward(const Tensor& dy, unsigned threads, bool need_input_grad) {
  if (x_ == nullptr) throw std::logic_error("Dense: backward without a forward");
  // dW = x^T dy ; db = colsum(dy) ; dx = dy W^T
  matmul_at(*x_, dy, dw_, threads);
  db_.fill(0.0f);
  for (std::size_t r = 0; r < dy.dim(0); ++r)
    for (std::size_t j = 0; j < out_; ++j) db_[j] += dy.at2(r, j);
  Tensor dx;
  if (need_input_grad) matmul_bt(dy, w_, dx, threads);
  return dx;
}

// ---------------------------------------------------------------- ReLU

Tensor ReLU::forward(const Tensor& x, bool /*training*/, unsigned /*threads*/) {
  x_ = &x;
  Tensor y;
  relu_forward(x, y);
  return y;
}

Tensor ReLU::backward(const Tensor& dy, unsigned /*threads*/, bool /*need_input_grad*/) {
  if (x_ == nullptr) throw std::logic_error("ReLU: backward without a forward");
  Tensor dx;
  relu_backward(*x_, dy, dx);
  return dx;
}

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_c, std::size_t h, std::size_t w, std::size_t out_c, std::size_t ksize,
               Rng& rng)
    : in_c_(in_c), h_(h), w_(w), out_c_(out_c), k_(ksize) {
  if (h_ < k_ || w_ < k_) throw std::invalid_argument("Conv2D: kernel larger than input");
  out_h_ = h_ - k_ + 1;
  out_w_ = w_ - k_ + 1;
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_c_ * k_ * k_));
  weights_ = Tensor::randn({out_c_, in_c_ * k_ * k_}, rng, stddev);
  bias_ = Tensor::zeros({out_c_});
  dweights_ = Tensor::zeros({out_c_, in_c_ * k_ * k_});
  dbias_ = Tensor::zeros({out_c_});
}

Tensor Conv2D::forward(const Tensor& x, bool /*training*/, unsigned threads) {
  if (x.dim(1) != in_c_ * h_ * w_) throw std::invalid_argument("Conv2D: input plane size mismatch");
  x_ = &x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_c_ * out_h_ * out_w_});
  parallel_for(n, threads, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      const float* xs = x.data() + s * in_c_ * h_ * w_;
      float* ys = y.data() + s * out_c_ * out_h_ * out_w_;
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float* wk = weights_.data() + oc * in_c_ * k_ * k_;
        for (std::size_t oy = 0; oy < out_h_; ++oy) {
          for (std::size_t ox = 0; ox < out_w_; ++ox) {
            float sum = bias_[oc];
            for (std::size_t ic = 0; ic < in_c_; ++ic) {
              const float* plane = xs + ic * h_ * w_;
              const float* wik = wk + ic * k_ * k_;
              for (std::size_t ky = 0; ky < k_; ++ky) {
                const float* row = plane + (oy + ky) * w_ + ox;
                const float* wrow = wik + ky * k_;
                for (std::size_t kx = 0; kx < k_; ++kx) sum += row[kx] * wrow[kx];
              }
            }
            ys[oc * out_h_ * out_w_ + oy * out_w_ + ox] = sum;
          }
        }
      }
    }
  });
  return y;
}

Tensor Conv2D::backward(const Tensor& dy, unsigned threads, bool need_input_grad) {
  if (x_ == nullptr) throw std::logic_error("Conv2D: backward without a forward");
  const std::size_t n = dy.dim(0);
  dweights_.fill(0.0f);
  dbias_.fill(0.0f);
  // Parameter gradients are accumulated serially (shared across samples);
  // dx is sample-independent and parallelises cleanly.
  for (std::size_t s = 0; s < n; ++s) {
    const float* xs = x_->data() + s * in_c_ * h_ * w_;
    const float* dys = dy.data() + s * out_c_ * out_h_ * out_w_;
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      float* dwk = dweights_.data() + oc * in_c_ * k_ * k_;
      for (std::size_t oy = 0; oy < out_h_; ++oy) {
        for (std::size_t ox = 0; ox < out_w_; ++ox) {
          const float g = dys[oc * out_h_ * out_w_ + oy * out_w_ + ox];
          dbias_[oc] += g;
          for (std::size_t ic = 0; ic < in_c_; ++ic) {
            const float* plane = xs + ic * h_ * w_;
            float* dwik = dwk + ic * k_ * k_;
            for (std::size_t ky = 0; ky < k_; ++ky) {
              const float* row = plane + (oy + ky) * w_ + ox;
              float* dwrow = dwik + ky * k_;
              for (std::size_t kx = 0; kx < k_; ++kx) dwrow[kx] += g * row[kx];
            }
          }
        }
      }
    }
  }
  if (!need_input_grad) return {};
  Tensor dx({n, in_c_ * h_ * w_});
  parallel_for(n, threads, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      const float* dys = dy.data() + s * out_c_ * out_h_ * out_w_;
      float* dxs = dx.data() + s * in_c_ * h_ * w_;
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float* wk = weights_.data() + oc * in_c_ * k_ * k_;
        for (std::size_t oy = 0; oy < out_h_; ++oy) {
          for (std::size_t ox = 0; ox < out_w_; ++ox) {
            const float g = dys[oc * out_h_ * out_w_ + oy * out_w_ + ox];
            for (std::size_t ic = 0; ic < in_c_; ++ic) {
              float* plane = dxs + ic * h_ * w_;
              const float* wik = wk + ic * k_ * k_;
              for (std::size_t ky = 0; ky < k_; ++ky) {
                float* row = plane + (oy + ky) * w_ + ox;
                const float* wrow = wik + ky * k_;
                for (std::size_t kx = 0; kx < k_; ++kx) row[kx] += g * wrow[kx];
              }
            }
          }
        }
      }
    }
  });
  return dx;
}

// ------------------------------------------------------------- MaxPool2D

MaxPool2D::MaxPool2D(std::size_t c, std::size_t h, std::size_t w)
    : c_(c), h_(h), w_(w), out_h_(h / 2), out_w_(w / 2) {
  if (out_h_ == 0 || out_w_ == 0) throw std::invalid_argument("MaxPool2D: input too small");
}

Tensor MaxPool2D::forward(const Tensor& x, bool /*training*/, unsigned threads) {
  if (x.dim(1) != c_ * h_ * w_) throw std::invalid_argument("MaxPool2D: input plane size mismatch");
  const std::size_t n = x.dim(0);
  in_shape_ = x.shape();
  Tensor y({n, c_ * out_h_ * out_w_});
  argmax_.assign(y.size(), 0);
  parallel_for(n, threads, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      const float* xs = x.data() + s * c_ * h_ * w_;
      float* ys = y.data() + s * c_ * out_h_ * out_w_;
      std::size_t* am = argmax_.data() + s * c_ * out_h_ * out_w_;
      for (std::size_t ch = 0; ch < c_; ++ch) {
        const float* plane = xs + ch * h_ * w_;
        for (std::size_t oy = 0; oy < out_h_; ++oy) {
          for (std::size_t ox = 0; ox < out_w_; ++ox) {
            std::size_t best_index = (2 * oy) * w_ + 2 * ox;
            float best = plane[best_index];
            for (std::size_t dy2 = 0; dy2 < 2; ++dy2) {
              for (std::size_t dx2 = 0; dx2 < 2; ++dx2) {
                const std::size_t index = (2 * oy + dy2) * w_ + (2 * ox + dx2);
                if (plane[index] > best) {
                  best = plane[index];
                  best_index = index;
                }
              }
            }
            const std::size_t out_index = ch * out_h_ * out_w_ + oy * out_w_ + ox;
            ys[out_index] = best;
            am[out_index] = ch * h_ * w_ + best_index;
          }
        }
      }
    }
  });
  return y;
}

Tensor MaxPool2D::backward(const Tensor& dy, unsigned /*threads*/, bool /*need_input_grad*/) {
  Tensor dx(in_shape_);
  const std::size_t out_plane = c_ * out_h_ * out_w_;
  for (std::size_t s = 0; s < dy.dim(0); ++s) {
    const float* dys = dy.data() + s * out_plane;
    float* dxs = dx.data() + s * c_ * h_ * w_;
    const std::size_t* am = argmax_.data() + s * out_plane;
    for (std::size_t i = 0; i < out_plane; ++i) dxs[am[i]] += dys[i];
  }
  return dx;
}

// ------------------------------------------------------------- BatchNorm

BatchNorm::BatchNorm(std::size_t features, float momentum, float eps)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor({features}, 1.0f)),
      beta_(Tensor::zeros({features})),
      dgamma_(Tensor::zeros({features})),
      dbeta_(Tensor::zeros({features})),
      running_mean_(Tensor::zeros({features})),
      running_var_(Tensor({features}, 1.0f)) {
  if (features_ == 0) throw std::invalid_argument("BatchNorm: zero features");
}

Tensor BatchNorm::forward(const Tensor& x, bool training, unsigned /*threads*/) {
  if (x.rank() != 2 || x.dim(1) != features_)
    throw std::invalid_argument("BatchNorm: expected [batch, " + std::to_string(features_) + "]");
  const std::size_t n = x.dim(0);
  Tensor y(x.shape());

  if (training) {
    batch_mean_ = Tensor::zeros({features_});
    Tensor batch_var = Tensor::zeros({features_});
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t f = 0; f < features_; ++f) batch_mean_[f] += x.at2(r, f);
    for (std::size_t f = 0; f < features_; ++f) batch_mean_[f] /= static_cast<float>(n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t f = 0; f < features_; ++f) {
        const float d = x.at2(r, f) - batch_mean_[f];
        batch_var[f] += d * d;
      }
    for (std::size_t f = 0; f < features_; ++f) batch_var[f] /= static_cast<float>(n);

    batch_inv_std_ = Tensor({features_});
    for (std::size_t f = 0; f < features_; ++f)
      batch_inv_std_[f] = 1.0f / std::sqrt(batch_var[f] + eps_);

    x_hat_ = Tensor(x.shape());
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t f = 0; f < features_; ++f) {
        x_hat_.at2(r, f) = (x.at2(r, f) - batch_mean_[f]) * batch_inv_std_[f];
        y.at2(r, f) = gamma_[f] * x_hat_.at2(r, f) + beta_[f];
      }
    for (std::size_t f = 0; f < features_; ++f) {
      running_mean_[f] = momentum_ * running_mean_[f] + (1.0f - momentum_) * batch_mean_[f];
      running_var_[f] = momentum_ * running_var_[f] + (1.0f - momentum_) * batch_var[f];
    }
  } else {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t f = 0; f < features_; ++f) {
        const float inv = 1.0f / std::sqrt(running_var_[f] + eps_);
        y.at2(r, f) = gamma_[f] * (x.at2(r, f) - running_mean_[f]) * inv + beta_[f];
      }
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& dy, unsigned /*threads*/, bool /*need_input_grad*/) {
  const std::size_t n = dy.dim(0);
  if (x_hat_.size() != dy.size())
    throw std::logic_error("BatchNorm: backward without a training forward");
  dgamma_.fill(0.0f);
  dbeta_.fill(0.0f);
  // Standard batch-norm backward in terms of x_hat:
  // dx = (gamma * inv_std / n) * (n*dy - sum(dy) - x_hat * sum(dy*x_hat))
  Tensor sum_dy = Tensor::zeros({features_});
  Tensor sum_dy_xhat = Tensor::zeros({features_});
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t f = 0; f < features_; ++f) {
      const float g = dy.at2(r, f);
      sum_dy[f] += g;
      sum_dy_xhat[f] += g * x_hat_.at2(r, f);
      dgamma_[f] += g * x_hat_.at2(r, f);
      dbeta_[f] += g;
    }
  Tensor dx(dy.shape());
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t f = 0; f < features_; ++f) {
      dx.at2(r, f) = gamma_[f] * batch_inv_std_[f] * inv_n *
                     (static_cast<float>(n) * dy.at2(r, f) - sum_dy[f] -
                      x_hat_.at2(r, f) * sum_dy_xhat[f]);
    }
  return dx;
}

void BatchNorm::restore_state(const LayerState& state) {
  if (state.tensors.size() != 2 || state.tensors[0].size() != features_ ||
      state.tensors[1].size() != features_)
    throw std::invalid_argument("BatchNorm::restore_state: shape mismatch");
  running_mean_ = state.tensors[0];
  running_var_ = state.tensors[1];
}

// --------------------------------------------------------------- Dropout

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate_ < 0.0 || rate_ >= 1.0) throw std::invalid_argument("Dropout: rate must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& x, bool training, unsigned /*threads*/) {
  if (!training || rate_ == 0.0) {
    mask_.clear();
    return x;
  }
  Tensor y(x.shape());
  mask_.resize(x.size());
  const float scale = 1.0f / static_cast<float>(1.0 - rate_);
  for (std::size_t i = 0; i < x.size(); ++i) {
    mask_[i] = rng_.next_bool(rate_) ? 0.0f : scale;
    y[i] = x[i] * mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& dy, unsigned /*threads*/, bool /*need_input_grad*/) {
  if (mask_.empty()) return dy;
  Tensor dx(dy.shape());
  for (std::size_t i = 0; i < dy.size(); ++i) dx[i] = dy[i] * mask_[i];
  return dx;
}

LayerState Dropout::snapshot_state() const {
  const RngState rng = rng_.state();
  LayerState state;
  state.words = {rng.s[0], rng.s[1], rng.s[2], rng.s[3],
                 std::bit_cast<std::uint64_t>(rng.spare_gaussian),
                 rng.has_spare ? 1ULL : 0ULL};
  return state;
}

void Dropout::restore_state(const LayerState& state) {
  if (state.words.size() != 6)
    throw std::invalid_argument("Dropout::restore_state: expected 6 state words");
  RngState rng;
  for (std::size_t i = 0; i < 4; ++i) rng.s[i] = state.words[i];
  rng.spare_gaussian = std::bit_cast<double>(state.words[4]);
  rng.has_spare = state.words[5] != 0;
  rng_.set_state(rng);
}

}  // namespace chpo::ml
