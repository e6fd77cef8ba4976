// Dense float tensor and the kernels the NN layers need.
//
// The TensorFlow substitute's bottom layer: a contiguous row-major float
// buffer with a shape, plus the handful of BLAS-like kernels used by the
// layers. matmul honours a thread budget via parallel_for — this is the
// "internal parallelism" that a task's @constraint caps (paper §3:
// "if a task has built-in parallelism, PyCOMPSs will not interfere").
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace chpo::ml {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::vector<std::size_t> shape, float fill);

  static Tensor zeros(std::vector<std::size_t> shape) { return Tensor(std::move(shape), 0.0f); }
  /// Gaussian init with given stddev (He/Glorot handled by callers).
  static Tensor randn(std::vector<std::size_t> shape, Rng& rng, float stddev = 1.0f);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (row-major); undefined unless rank()==2.
  float& at2(std::size_t r, std::size_t c) { return data_[r * shape_[1] + c]; }
  float at2(std::size_t r, std::size_t c) const { return data_[r * shape_[1] + c]; }

  void fill(float v);
  /// Reinterpret the buffer with a new shape of identical element count.
  Tensor reshaped(std::vector<std::size_t> shape) const;

  std::string shape_str() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

// Summation order: every output element of matmul, matmul_bt and
// matmul_at is out[i][j] = ((0.0f + x(i,0)*y(0,j)) + x(i,1)*y(1,j)) + ...,
// summed over the inner index p = 0..k-1 in order, one rounding per
// multiply and per add, whatever the thread budget or blocking. Results are
// therefore bit-identical to the naive triple loops, and seeded training
// runs reproduce exactly. A kernel change that reorders the p sum (pairwise
// or split accumulators, vectorising over p) breaks that contract.

/// c = a @ b. a is [m,k], b is [k,n], out [m,n]. Rows are split across up to
/// `threads` workers.
void matmul(const Tensor& a, const Tensor& b, Tensor& out, unsigned threads = 1);

/// c = a @ b^T. a [m,k], b [n,k], out [m,n].
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out, unsigned threads = 1);

/// c = a^T @ b. a [k,m], b [k,n], out [m,n].
void matmul_at(const Tensor& a, const Tensor& b, Tensor& out, unsigned threads = 1);

/// out[r,:] += bias for every row.
void add_row_bias(Tensor& out, const Tensor& bias);

/// Elementwise y = max(x, 0); dx = dy * (x > 0).
void relu_forward(const Tensor& x, Tensor& y);
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

/// Row-wise softmax of logits [n, classes].
void softmax_rows(const Tensor& logits, Tensor& probs);

/// Mean cross-entropy of probs [n,classes] against integer labels; also
/// writes dlogits = (probs - onehot)/n for the fused softmax+CE backward.
float cross_entropy(const Tensor& probs, const std::vector<int>& labels, Tensor& dlogits);

/// argmax per row.
std::vector<int> argmax_rows(const Tensor& t);

}  // namespace chpo::ml
