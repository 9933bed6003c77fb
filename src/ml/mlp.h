// Small fully-connected MLP regressor (one hidden tanh layer, Adam), used
// both as an Interference-Modeler candidate and as the "MLP fitting" baseline
// of Tab. 2.
#ifndef SRC_ML_MLP_H_
#define SRC_ML_MLP_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ml/regressor.h"

namespace mudi {

struct MlpOptions {
  size_t epochs = 600;
  double learning_rate = 1e-2;
  uint64_t seed = 13;
};

class MlpRegressor : public Regressor {
 public:
  // Fixed hidden width: the constant trip count is what lets the compiler
  // vectorize the per-step loops (DESIGN.md §12.5).
  static constexpr size_t kHiddenUnits = 16;

  explicit MlpRegressor(MlpOptions options = {}) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "MLP"; }

 private:
  using Units = std::array<double, kHiddenUnits>;

  MlpOptions options_;
  FeatureScaler scaler_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  // Hidden layer stored input-major: w1t_[j * kHiddenUnits + u] is the weight
  // from input j to unit u (d × kHiddenUnits). Output layer w2_ + bias b2_.
  std::vector<double> w1t_;
  Units b1_{};
  Units w2_{};
  double b2_ = 0.0;
};

}  // namespace mudi

#endif  // SRC_ML_MLP_H_
