// Minimal Gaussian-process regression for Bayesian optimisation.
//
// RBF kernel, zero prior mean, observation noise on the diagonal, exact
// inference via Cholesky factorisation. Dimensions are expected to be
// normalised to [0,1] (SearchSpace::encode does this), so a single
// lengthscale is adequate.
#pragma once

#include <cstddef>
#include <vector>

namespace chpo::hpo {

class GaussianProcess {
 public:
  GaussianProcess(double lengthscale, double signal_variance, double noise);

  /// Fit on rows `xs` with targets `ys`. Throws std::invalid_argument on
  /// shape mismatch or a non-positive-definite kernel matrix.
  void fit(const std::vector<std::vector<double>>& xs, const std::vector<double>& ys);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
  };
  Prediction predict(const std::vector<double>& x) const;

  bool fitted() const { return !xs_.empty(); }

  double kernel(const std::vector<double>& a, const std::vector<double>& b) const;

 private:
  double lengthscale_, signal_variance_, noise_;
  std::vector<std::vector<double>> xs_;
  std::vector<double> mean_shifted_ys_;  ///< ys - mean(ys)
  double y_mean_ = 0.0;
  std::vector<double> chol_;   ///< lower-triangular Cholesky factor, row-major
  std::vector<double> alpha_;  ///< K^{-1} (y - mean)
};

/// Expected improvement of predicted (mean, variance) over `best` (higher
/// scores are better). xi is the exploration bonus.
double expected_improvement(double mean, double variance, double best, double xi = 0.01);

}  // namespace chpo::hpo
