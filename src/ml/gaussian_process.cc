#include "src/ml/gaussian_process.h"

#include <cmath>

#include "src/common/check.h"

namespace mudi {

GaussianProcess::GaussianProcess(GpOptions options) : options_(options) {
  MUDI_CHECK_GT(options_.length_scale, 0.0);
  MUDI_CHECK_GT(options_.signal_var, 0.0);
  MUDI_CHECK_GE(options_.noise_var, 0.0);
}

double GaussianProcess::Kernel(const std::vector<double>& a, const std::vector<double>& b) const {
  MUDI_CHECK_EQ(a.size(), b.size());
  double d2 = 0.0;
  for (size_t j = 0; j < a.size(); ++j) {
    double diff = (a[j] - b[j]) / options_.length_scale;
    d2 += diff * diff;
  }
  return options_.signal_var * std::exp(-0.5 * d2);
}

void GaussianProcess::AddObservation(const std::vector<double>& x, double y) {
  train_x_.push_back(x);
  train_y_.push_back(y);
  Refit();
}

void GaussianProcess::SetObservations(const std::vector<std::vector<double>>& x,
                                      const std::vector<double>& y) {
  MUDI_CHECK_EQ(x.size(), y.size());
  train_x_ = x;
  train_y_ = y;
  Refit();
}

void GaussianProcess::Refit() {
  size_t n = train_x_.size();
  if (n == 0) {
    alpha_.clear();
    return;
  }
  y_mean_ = 0.0;
  for (double v : train_y_) {
    y_mean_ += v;
  }
  y_mean_ /= static_cast<double>(n);

  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double v = Kernel(train_x_[i], train_x_[j]);
      k.At(i, j) = v;
      k.At(j, i) = v;
    }
    k.At(i, i) += options_.noise_var + 1e-10;
  }
  double jitter = 1e-8;
  while (!CholeskyDecompose(k, chol_)) {
    for (size_t i = 0; i < n; ++i) {
      k.At(i, i) += jitter;
    }
    jitter *= 10.0;
    MUDI_CHECK_LT(jitter, 1.0);
  }
  std::vector<double> centered(n);
  for (size_t i = 0; i < n; ++i) {
    centered[i] = train_y_[i] - y_mean_;
  }
  alpha_ = CholeskySolve(chol_, centered);
}

GpPosterior GaussianProcess::Predict(const std::vector<double>& x) const {
  GpPosterior post;
  size_t n = train_x_.size();
  if (n == 0) {
    post.mean = 0.0;
    post.variance = options_.signal_var;
    return post;
  }
  std::vector<double> kx(n);
  for (size_t i = 0; i < n; ++i) {
    kx[i] = Kernel(train_x_[i], x);
  }
  double mean = y_mean_;
  for (size_t i = 0; i < n; ++i) {
    mean += kx[i] * alpha_[i];
  }
  // Variance: k(x,x) − vᵀv where L·v = k_x (forward substitution).
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = kx[i];
    for (size_t j = 0; j < i; ++j) {
      sum -= chol_.At(i, j) * v[j];
    }
    v[i] = sum / chol_.At(i, i);
  }
  double var = Kernel(x, x);
  for (size_t i = 0; i < n; ++i) {
    var -= v[i] * v[i];
  }
  post.mean = mean;
  post.variance = var > 0.0 ? var : 0.0;
  return post;
}

}  // namespace mudi
