#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "support/parallel_for.hpp"

namespace chpo::ml {

namespace {

std::size_t element_count(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(element_count(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(element_count(shape_), fill) {}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.next_gaussian(0.0, stddev));
  return t;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const {
  if (element_count(shape) != data_.size())
    throw std::invalid_argument("Tensor::reshaped: element count mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

std::string Tensor::shape_str() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) out << (i ? "," : "") << shape_[i];
  out << "]";
  return out.str();
}

namespace {

void check2(const Tensor& t, const char* name) {
  if (t.rank() != 2) throw std::invalid_argument(std::string(name) + ": rank-2 tensor required");
}

// Register-blocked kernel shared by matmul, matmul_at and matmul_bt:
// out = A·B with B row-major [k,n] and A read through strides, so one
// kernel serves A and A^T. kRows rows of `out` by one kPanel-column panel
// accumulate in locals while p walks 0..k-1; the fixed panel width lets
// the compiler vectorise across columns at -O2. Each element is still
// summed over p in order starting from 0.0f, exactly as the naive loops do.
constexpr std::size_t kRows = 4;
constexpr std::size_t kPanel = 16;

struct Gemm {
  const float* a;
  std::size_t a_row, a_col;  ///< A(i,p) = a[i*a_row + p*a_col]
  const float* b;            ///< [k,n] row-major
  float* out;                ///< [m,n] row-major
  std::size_t k, n;
};

template <bool kFullPanel>
void gemm_block(const Gemm& g, std::size_t i, std::size_t rows, std::size_t j0,
                std::size_t width) {
  // Rows past the end re-read row i; their sums are computed and dropped.
  std::size_t row[kRows];
  for (std::size_t r = 0; r < kRows; ++r) row[r] = (i + (r < rows ? r : 0)) * g.a_row;
  const std::size_t w = kFullPanel ? kPanel : width;
  float acc[kRows][kPanel] = {};
  for (std::size_t p = 0; p < g.k; ++p) {
    const float* ap = g.a + p * g.a_col;
    const float a0 = ap[row[0]], a1 = ap[row[1]], a2 = ap[row[2]], a3 = ap[row[3]];
    const float* bp = g.b + p * g.n + j0;
    for (std::size_t j = 0; j < w; ++j) {
      const float bj = bp[j];
      acc[0][j] += a0 * bj;
      acc[1][j] += a1 * bj;
      acc[2][j] += a2 * bj;
      acc[3][j] += a3 * bj;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) std::copy_n(acc[r], w, g.out + (i + r) * g.n + j0);
}

/// Rows split across up to `threads` workers; each writes only its own rows.
void gemm(const Gemm& g, std::size_t m, unsigned threads) {
  parallel_for(m, threads, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; i += kRows) {
      const std::size_t rows = std::min(kRows, r1 - i);
      std::size_t j0 = 0;
      for (; j0 + kPanel <= g.n; j0 += kPanel) gemm_block<true>(g, i, rows, j0, kPanel);
      if (j0 < g.n) gemm_block<false>(g, i, rows, j0, g.n - j0);
    }
  });
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out, unsigned threads) {
  check2(a, "matmul a");
  check2(b, "matmul b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dimension mismatch");
  if (out.rank() != 2 || out.dim(0) != m || out.dim(1) != n) out = Tensor({m, n});
  gemm({a.data(), k, 1, b.data(), out.data(), k, n}, m, threads);
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out, unsigned threads) {
  check2(a, "matmul_bt a");
  check2(b, "matmul_bt b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_bt: inner dimension mismatch");
  if (out.rank() != 2 || out.dim(0) != m || out.dim(1) != n) out = Tensor({m, n});
  std::vector<float> bt(k * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b.data()[j * k + p];
  gemm({a.data(), k, 1, bt.data(), out.data(), k, n}, m, threads);
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& out, unsigned threads) {
  check2(a, "matmul_at a");
  check2(b, "matmul_at b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul_at: inner dimension mismatch");
  if (out.rank() != 2 || out.dim(0) != m || out.dim(1) != n) out = Tensor({m, n});
  gemm({a.data(), 1, m, b.data(), out.data(), k, n}, m, threads);
}

void add_row_bias(Tensor& out, const Tensor& bias) {
  check2(out, "add_row_bias out");
  const std::size_t n = out.dim(1);
  if (bias.size() != n) throw std::invalid_argument("add_row_bias: bias size mismatch");
  for (std::size_t r = 0; r < out.dim(0); ++r) {
    float* row = out.data() + r * n;
    for (std::size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void relu_forward(const Tensor& x, Tensor& y) {
  if (y.size() != x.size()) y = Tensor(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  if (x.size() != dy.size()) throw std::invalid_argument("relu_backward: size mismatch");
  if (dx.size() != x.size()) dx = Tensor(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  check2(logits, "softmax_rows");
  if (probs.size() != logits.size()) probs = Tensor(logits.shape());
  const std::size_t n = logits.dim(1);
  for (std::size_t r = 0; r < logits.dim(0); ++r) {
    const float* in = logits.data() + r * n;
    float* out = probs.data() + r * n;
    float max_v = in[0];
    for (std::size_t j = 1; j < n; ++j) max_v = std::max(max_v, in[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = std::exp(in[j] - max_v);
      sum += out[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
  }
}

float cross_entropy(const Tensor& probs, const std::vector<int>& labels, Tensor& dlogits) {
  check2(probs, "cross_entropy");
  const std::size_t n = probs.dim(0), classes = probs.dim(1);
  if (labels.size() != n) throw std::invalid_argument("cross_entropy: label count mismatch");
  if (dlogits.size() != probs.size()) dlogits = Tensor(probs.shape());
  float loss = 0.0f;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const int label = labels[r];
    if (label < 0 || static_cast<std::size_t>(label) >= classes)
      throw std::out_of_range("cross_entropy: label out of range");
    const float* p = probs.data() + r * classes;
    float* d = dlogits.data() + r * classes;
    loss -= std::log(std::max(p[static_cast<std::size_t>(label)], 1e-12f));
    for (std::size_t j = 0; j < classes; ++j)
      d[j] = (p[j] - (static_cast<int>(j) == label ? 1.0f : 0.0f)) * inv_n;
  }
  return loss * inv_n;
}

std::vector<int> argmax_rows(const Tensor& t) {
  std::vector<int> out;
  if (t.rank() != 2) throw std::invalid_argument("argmax_rows: rank-2 tensor required");
  const std::size_t n = t.dim(1);
  out.reserve(t.dim(0));
  for (std::size_t r = 0; r < t.dim(0); ++r) {
    const float* row = t.data() + r * n;
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j)
      if (row[j] > row[best]) best = j;
    out.push_back(static_cast<int>(best));
  }
  return out;
}

}  // namespace chpo::ml
