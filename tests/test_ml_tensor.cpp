// Unit tests for tensors and numeric kernels, including gradient identities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "ml/tensor.hpp"

namespace chpo::ml {
namespace {

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.shape_str(), "[2,3,4]");
  EXPECT_EQ(t[0], 0.0f);
}

TEST(Tensor, FillAndAccess) {
  Tensor t({2, 2}, 3.5f);
  EXPECT_EQ(t.at2(1, 1), 3.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t[3], -1.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r[5], 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(3);
  const Tensor t = Tensor::randn({100, 100}, rng, 2.0f);
  double sum = 0, sq = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum / static_cast<double>(t.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(sq / static_cast<double>(t.size()), 4.0, 0.2);
}

TEST(Matmul, KnownProduct) {
  Tensor a({2, 3}), b({3, 2}), c;
  const float av[] = {1, 2, 3, 4, 5, 6};
  const float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154);
}

TEST(Matmul, ThreadedMatchesSerial) {
  Rng rng(5);
  const Tensor a = Tensor::randn({33, 17}, rng);
  const Tensor b = Tensor::randn({17, 29}, rng);
  Tensor serial, threaded;
  matmul(a, b, serial, 1);
  matmul(a, b, threaded, 4);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_FLOAT_EQ(serial[i], threaded[i]);
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng rng(6);
  const Tensor a = Tensor::randn({5, 7}, rng);
  const Tensor b = Tensor::randn({7, 4}, rng);
  Tensor reference;
  matmul(a, b, reference);

  // a @ b == matmul_bt(a, b^T) == matmul_at(a^T, b).
  Tensor bt({4, 7});
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 4; ++j) bt.at2(j, i) = b.at2(i, j);
  Tensor via_bt;
  matmul_bt(a, bt, via_bt);

  Tensor at({7, 5});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 7; ++j) at.at2(j, i) = a.at2(i, j);
  Tensor via_at;
  matmul_at(at, b, via_at);

  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(reference[i], via_bt[i], 1e-4);
    EXPECT_NEAR(reference[i], via_at[i], 1e-4);
  }
}

// The blocked kernels promise each output element the naive loops'
// summation order (tensor.hpp), so they must match these references bit
// for bit on every shape: ragged panels, tail rows and k = 1 included.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {  // a [m,k], b [k,n]
  Tensor out({a.dim(0), b.dim(1)});
  for (std::size_t i = 0; i < a.dim(0); ++i)
    for (std::size_t j = 0; j < b.dim(1); ++j) {
      float sum = 0.0f;
      for (std::size_t p = 0; p < a.dim(1); ++p) sum += a.at2(i, p) * b.at2(p, j);
      out.at2(i, j) = sum;
    }
  return out;
}

Tensor naive_matmul_bt(const Tensor& a, const Tensor& b) {  // a [m,k], b [n,k]
  Tensor out({a.dim(0), b.dim(0)});
  for (std::size_t i = 0; i < a.dim(0); ++i)
    for (std::size_t j = 0; j < b.dim(0); ++j) {
      float sum = 0.0f;
      for (std::size_t p = 0; p < a.dim(1); ++p) sum += a.at2(i, p) * b.at2(j, p);
      out.at2(i, j) = sum;
    }
  return out;
}

Tensor naive_matmul_at(const Tensor& a, const Tensor& b) {  // a [k,m], b [k,n]
  Tensor out({a.dim(1), b.dim(1)});
  for (std::size_t i = 0; i < a.dim(1); ++i)
    for (std::size_t j = 0; j < b.dim(1); ++j) {
      float sum = 0.0f;
      for (std::size_t p = 0; p < a.dim(0); ++p) sum += a.at2(p, i) * b.at2(p, j);
      out.at2(i, j) = sum;
    }
  return out;
}

bool bit_equal(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(Matmul, BlockedKernelsAreBitIdenticalToNaiveLoops) {
  const std::vector<std::size_t> dims = {1, 3, 4, 5, 15, 16, 17, 33, 784};
  Rng rng(8);
  std::size_t shapes = 0;
  for (const std::size_t m : dims)
    for (const std::size_t n : dims)
      for (const std::size_t k : dims) {
        // Every small shape, plus each 784 dimension on its own (three
        // 784s would make this test take seconds).
        if ((m == 784) + (n == 784) + (k == 784) > 1) continue;
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor b = Tensor::randn({k, n}, rng);
        const Tensor bt = Tensor::randn({n, k}, rng);
        const Tensor at = Tensor::randn({k, m}, rng);
        const Tensor want = naive_matmul(a, b);
        const Tensor want_bt = naive_matmul_bt(a, bt);
        const Tensor want_at = naive_matmul_at(at, b);
        for (const unsigned threads : {1u, 4u}) {
          // Pre-sized outputs full of NaN: the kernels must write every element.
          Tensor got({m, n}, std::numeric_limits<float>::quiet_NaN());
          Tensor got_bt = got, got_at = got;
          matmul(a, b, got, threads);
          matmul_bt(a, bt, got_bt, threads);
          matmul_at(at, b, got_at, threads);
          ASSERT_TRUE(bit_equal(got, want)) << "matmul m=" << m << " n=" << n << " k=" << k
                                            << " threads=" << threads;
          ASSERT_TRUE(bit_equal(got_bt, want_bt)) << "matmul_bt m=" << m << " n=" << n
                                                  << " k=" << k << " threads=" << threads;
          ASSERT_TRUE(bit_equal(got_at, want_at)) << "matmul_at m=" << m << " n=" << n
                                                  << " k=" << k << " threads=" << threads;
        }
        ++shapes;
      }
  EXPECT_EQ(shapes, 8u * 8u * 8u + 3u * 8u * 8u);
}

TEST(Matmul, DimensionMismatchThrows) {
  Tensor a({2, 3}), b({4, 2}), c;
  EXPECT_THROW(matmul(a, b, c), std::invalid_argument);
}

TEST(Bias, AddedToEveryRow) {
  Tensor x({2, 3}, 1.0f);
  Tensor bias({3});
  bias[0] = 1;
  bias[1] = 2;
  bias[2] = 3;
  add_row_bias(x, bias);
  EXPECT_FLOAT_EQ(x.at2(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(x.at2(1, 0), 2.0f);
}

TEST(Relu, ForwardBackward) {
  Tensor x({1, 4});
  x[0] = -2;
  x[1] = 0;
  x[2] = 3;
  x[3] = -0.5;
  Tensor y;
  relu_forward(x, y);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[2], 3);
  Tensor dy({1, 4}, 1.0f), dx;
  relu_backward(x, dy, dx);
  EXPECT_FLOAT_EQ(dx[0], 0);
  EXPECT_FLOAT_EQ(dx[2], 1);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(8);
  const Tensor logits = Tensor::randn({6, 10}, rng, 3.0f);
  Tensor probs;
  softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 6; ++r) {
    float sum = 0;
    for (std::size_t j = 0; j < 10; ++j) {
      sum += probs.at2(r, j);
      EXPECT_GE(probs.at2(r, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Softmax, NumericallyStableWithHugeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1000;
  logits[1] = 1001;
  logits[2] = 999;
  Tensor probs;
  softmax_rows(logits, probs);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_GT(probs[1], probs[0]);
}

TEST(CrossEntropy, PerfectPredictionLowLoss) {
  Tensor probs({1, 3});
  probs[0] = 0.999f;
  probs[1] = 0.0005f;
  probs[2] = 0.0005f;
  Tensor dlogits;
  const float loss = cross_entropy(probs, {0}, dlogits);
  EXPECT_LT(loss, 0.01f);
}

TEST(CrossEntropy, GradientMatchesSoftmaxIdentity) {
  // d loss / d logits = (probs - onehot) / n.
  Rng rng(10);
  const Tensor logits = Tensor::randn({4, 5}, rng);
  Tensor probs, dlogits;
  softmax_rows(logits, probs);
  const std::vector<int> labels{1, 0, 4, 2};
  cross_entropy(probs, labels, dlogits);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t j = 0; j < 5; ++j) {
      const float expected =
          (probs.at2(r, j) - (static_cast<int>(j) == labels[r] ? 1.0f : 0.0f)) / 4.0f;
      EXPECT_NEAR(dlogits.at2(r, j), expected, 1e-6);
    }
}

TEST(CrossEntropy, BadLabelThrows) {
  Tensor probs({1, 3}, 0.33f);
  Tensor dlogits;
  EXPECT_THROW(cross_entropy(probs, {5}, dlogits), std::out_of_range);
  EXPECT_THROW(cross_entropy(probs, {0, 1}, dlogits), std::invalid_argument);
}

TEST(Argmax, PicksLargestPerRow) {
  Tensor t({2, 3});
  t.at2(0, 0) = 0.1f;
  t.at2(0, 1) = 0.9f;
  t.at2(0, 2) = 0.2f;
  t.at2(1, 0) = 5.0f;
  t.at2(1, 1) = -1.0f;
  t.at2(1, 2) = 4.9f;
  EXPECT_EQ(argmax_rows(t), (std::vector<int>{1, 0}));
}

}  // namespace
}  // namespace chpo::ml
