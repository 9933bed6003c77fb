// Random-forest regressor: bagged CART trees with variance-reduction splits
// and per-split feature subsampling. The paper's Interference Modeler lists
// RF among its lightweight candidate learners (§4.1.2).
#ifndef SRC_ML_RANDOM_FOREST_H_
#define SRC_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ml/regressor.h"

namespace mudi {

struct RandomForestOptions {
  size_t num_trees = 40;
  size_t max_depth = 8;
  size_t min_samples_leaf = 2;
  // Fraction of features considered at each split (0 < f <= 1).
  double feature_fraction = 0.8;
  uint64_t seed = 7;
};

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(RandomForestOptions options = {});

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "RF"; }

 private:
  struct Node {
    // Leaf when feature < 0.
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    int left = -1;  // child indices into nodes_
    int right = -1;
  };

  RandomForestOptions options_;
  // Every tree's nodes in one array, tree t rooted at roots_[t], so Predict
  // walks one contiguous block however the heap was laid out during Fit.
  std::vector<Node> nodes_;
  std::vector<int> roots_;
};

}  // namespace mudi

#endif  // SRC_ML_RANDOM_FOREST_H_
