// Gaussian-process regression with an RBF kernel — the surrogate model for
// the Tuner's adaptive-batching Bayesian optimization (§5.3.1).
#ifndef SRC_ML_GAUSSIAN_PROCESS_H_
#define SRC_ML_GAUSSIAN_PROCESS_H_

#include <vector>

#include "src/ml/matrix.h"

namespace mudi {

struct GpOptions {
  double length_scale = 1.0;   // RBF length scale on (caller-normalized) inputs
  double signal_var = 1.0;     // kernel amplitude σ_f²
  double noise_var = 1e-4;     // observation noise σ_n²
};

struct GpPosterior {
  double mean = 0.0;
  double variance = 0.0;
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpOptions options = {});

  // Adds one observation and refits the posterior (O(n³) in observations —
  // fine for the ≤25-iteration tuning loops this backs).
  void AddObservation(const std::vector<double>& x, double y);

  // Replaces all observations.
  void SetObservations(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  GpPosterior Predict(const std::vector<double>& x) const;

  size_t num_observations() const { return train_x_.size(); }

 private:
  double Kernel(const std::vector<double>& a, const std::vector<double>& b) const;
  void Refit();

  GpOptions options_;
  std::vector<std::vector<double>> train_x_;
  std::vector<double> train_y_;
  double y_mean_ = 0.0;
  Matrix chol_;                 // Cholesky factor of (K + σ_n²·I)
  std::vector<double> alpha_;   // (K + σ_n²·I)⁻¹·(y − mean)
};

}  // namespace mudi

#endif  // SRC_ML_GAUSSIAN_PROCESS_H_
