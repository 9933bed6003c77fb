#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/ml/knn.h"
#include "src/ml/linear_regression.h"
#include "src/ml/mlp.h"
#include "src/ml/model_selection.h"
#include "src/ml/random_forest.h"
#include "src/ml/regressor.h"
#include "src/ml/svr.h"

namespace mudi {
namespace {

// Builds a dataset from a target function over a 2-D grid with mild noise.
void MakeDataset(const std::function<double(double, double)>& f, size_t n, uint64_t seed,
                 std::vector<std::vector<double>>* x, std::vector<double>* y,
                 double noise_sigma = 0.0) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(0.0, 1.0);
    double b = rng.Uniform(0.0, 1.0);
    x->push_back({a, b});
    double noise = noise_sigma > 0.0 ? rng.Normal(0.0, noise_sigma) : 0.0;
    y->push_back(f(a, b) + noise);
  }
}

double TestError(const Regressor& model, const std::function<double(double, double)>& f,
                 uint64_t seed) {
  Rng rng(seed);
  double total = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    double a = rng.Uniform(0.05, 0.95);
    double b = rng.Uniform(0.05, 0.95);
    total += std::abs(model.Predict({a, b}) - f(a, b));
  }
  return total / n;
}

// ---------------------------------------------------------------------------
// FeatureScaler
// ---------------------------------------------------------------------------

TEST(FeatureScalerTest, StandardizesToZeroMeanUnitVar) {
  FeatureScaler scaler;
  std::vector<std::vector<double>> x{{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}};
  scaler.Fit(x);
  auto t = scaler.TransformAll(x);
  double mean0 = (t[0][0] + t[1][0] + t[2][0]) / 3.0;
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(t[2][0] - t[0][0], 2.0 * t[2][0], 1e-9);  // symmetric around 0
}

TEST(FeatureScalerTest, ConstantFeatureDoesNotBlowUp) {
  FeatureScaler scaler;
  scaler.Fit({{5.0}, {5.0}, {5.0}});
  auto t = scaler.Transform({5.0});
  EXPECT_DOUBLE_EQ(t[0], 0.0);
}

// ---------------------------------------------------------------------------
// Individual regressors
// ---------------------------------------------------------------------------

TEST(LinearRegressorTest, RecoversLinearFunction) {
  auto f = [](double a, double b) { return 3.0 * a - 2.0 * b + 1.0; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 50, 1, &x, &y);
  LinearRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 99), 0.02);
}

TEST(LinearRegressorTest, NameIsLinear) { EXPECT_EQ(LinearRegressor().name(), "Linear"); }

TEST(KnnRegressorTest, InterpolatesSmoothFunction) {
  auto f = [](double a, double b) { return std::sin(3.0 * a) + b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 400, 2, &x, &y);
  KnnRegressor model(5);
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 98), 0.12);
}

TEST(KnnRegressorTest, ExactOnTrainingPoint) {
  KnnRegressor model(1);
  model.Fit({{0.0, 0.0}, {1.0, 1.0}}, {5.0, 9.0});
  EXPECT_NEAR(model.Predict({0.0, 0.0}), 5.0, 1e-3);
  EXPECT_NEAR(model.Predict({1.0, 1.0}), 9.0, 1e-3);
}

TEST(RandomForestTest, LearnsNonlinearFunction) {
  auto f = [](double a, double b) { return a * b + (a > 0.5 ? 2.0 : 0.0); };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 600, 3, &x, &y);
  RandomForestRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 97), 0.35);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return a + b; }, 100, 4, &x, &y);
  RandomForestRegressor m1, m2;
  m1.Fit(x, y);
  m2.Fit(x, y);
  EXPECT_DOUBLE_EQ(m1.Predict({0.3, 0.7}), m2.Predict({0.3, 0.7}));
}

TEST(RandomForestTest, ConstantTargetYieldsConstant) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double, double) { return 7.0; }, 50, 5, &x, &y);
  RandomForestRegressor model;
  model.Fit(x, y);
  EXPECT_NEAR(model.Predict({0.5, 0.5}), 7.0, 1e-9);
}

// With no row required per leaf, the split scan would read before the first
// and past the last sorted entry.
TEST(RandomForestTest, RejectsZeroMinSamplesLeaf) {
  RandomForestOptions options;
  options.min_samples_leaf = 0;
  EXPECT_DEATH(RandomForestRegressor{options}, "min_samples_leaf");
}

TEST(SvrRegressorTest, LearnsSmoothFunction) {
  auto f = [](double a, double b) { return std::exp(-a) + 0.5 * b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 300, 6, &x, &y);
  SvrRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 96), 0.08);
}

TEST(SvrRegressorTest, CentersTarget) {
  // Large constant offset should not hurt the kernel model.
  auto f = [](double a, double b) { return 1000.0 + a + b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 200, 7, &x, &y);
  SvrRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 95), 0.5);
}

TEST(MlpRegressorTest, LearnsNonlinearFunction) {
  auto f = [](double a, double b) { return std::tanh(2.0 * a - 1.0) + 0.3 * b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 300, 8, &x, &y);
  MlpRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 94), 0.12);
}

TEST(MlpRegressorTest, HandlesScaledTargets) {
  auto f = [](double a, double b) { return 500.0 * a - 300.0 * b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 300, 9, &x, &y);
  MlpRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 93), 30.0);
}

// 24 rows of 12 features: the Interference Modeler's selection shape.
void MakeBitStableDataset(std::vector<std::vector<double>>* x, std::vector<double>* y) {
  Rng rng(41);
  x->assign(24, std::vector<double>(12));
  y->assign(24, 0.0);
  for (size_t i = 0; i < x->size(); ++i) {
    std::vector<double>& row = (*x)[i];
    for (double& v : row) {
      v = rng.Uniform(0.0, 4.0);
    }
    (*y)[i] = 50.0 + 3.0 * row[0] - 2.0 * row[5] * row[7] + std::sin(row[11]) +
              rng.Normal(0.0, 0.5);
  }
}

// Unbounded 5-fold KFoldRelativeError of each DefaultRegressorZoo() learner on
// MakeBitStableDataset: RF, SVR, kNN, Linear, MLP.
constexpr uint64_t kCvBits[5] = {0x3fbb28dc487a6049, 0x3fc9a035e9627397, 0x3fc1259343b463ca,
                                 0x3fae7f48c47abd65, 0x3fb47d5c16c4448e};

// Pins the exact bits of the fit path at the Interference Modeler's shape
// (24 rows of 12 features, 300 epochs). The determinism tests compare a build
// with itself; this one fails if any kernel's floating-point arithmetic is
// reordered, so the constants change only with a deliberate model change.
// They were captured on x86-64 with glibc's libm (tanh, pow, exp, sin).
TEST(MlpRegressorTest, FitIsBitStable) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeBitStableDataset(&x, &y);

  MlpOptions options;
  options.epochs = 300;
  MlpRegressor mlp(options);
  mlp.Fit(x, y);
  const size_t kRows[3] = {0, 11, 23};
  const uint64_t kPredictBits[3] = {0x404a7810f1526cef, 0x40423e198045171c,
                                    0x404c6c7f47877516};
  for (size_t k = 0; k < 3; ++k) {
    uint64_t bits = std::bit_cast<uint64_t>(mlp.Predict(x[kRows[k]]));
    EXPECT_EQ(bits, kPredictBits[k]) << "row " << kRows[k] << " bits 0x" << std::hex << bits;
  }

  auto zoo = DefaultRegressorZoo();
  ASSERT_EQ(zoo.size(), 5u);
  for (size_t f = 0; f < zoo.size(); ++f) {
    uint64_t bits = std::bit_cast<uint64_t>(KFoldRelativeError(zoo[f], x, y, 5));
    EXPECT_EQ(bits, kCvBits[f]) << zoo[f]()->name() << " bits 0x" << std::hex << bits;
  }
}

// ---------------------------------------------------------------------------
// Differential tests against textbook references
// ---------------------------------------------------------------------------

// The same model as MlpRegressor written as a textbook per-weight Adam loop:
// both bias corrections come from std::pow on every step, and every weight
// is updated on every step.
class ReferenceMlp {
 public:
  explicit ReferenceMlp(MlpOptions options) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
    constexpr size_t kH = MlpRegressor::kHiddenUnits;
    scaler_.Fit(x);
    const std::vector<std::vector<double>> xs = scaler_.TransformAll(x);
    const size_t n = x.size();
    const size_t d = x[0].size();
    y_mean_ = Mean(y);
    const double sd = StdDev(y);
    y_scale_ = sd > 1e-9 ? sd : 1.0;
    std::vector<double> yn(n);
    for (size_t i = 0; i < n; ++i) {
      yn[i] = (y[i] - y_mean_) / y_scale_;
    }

    Rng rng(options_.seed);
    const double init = 1.0 / std::sqrt(static_cast<double>(d));
    w1_.assign(kH, std::vector<double>(d));
    b1_.assign(kH, 0.0);
    w2_.assign(kH, 0.0);
    b2_ = 0.0;
    for (size_t u = 0; u < kH; ++u) {
      for (size_t j = 0; j < d; ++j) {
        w1_[u][j] = rng.Uniform(-init, init);
      }
      w2_[u] = rng.Uniform(-init, init);
    }

    struct Moments {
      double m = 0.0;
      double v = 0.0;
    };
    std::vector<std::vector<Moments>> a_w1(kH, std::vector<Moments>(d));
    std::vector<Moments> a_b1(kH), a_w2(kH);
    Moments a_b2;
    int step = 0;
    double bc1 = 0.0, bc2 = 0.0;
    auto adam = [&](double* w, Moments* a, double grad) {
      a->m = 0.9 * a->m + (1.0 - 0.9) * grad;
      a->v = 0.999 * a->v + (1.0 - 0.999) * grad * grad;
      *w -= options_.learning_rate * (a->m / bc1) / (std::sqrt(a->v / bc2) + 1e-8);
    };

    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    std::vector<double> act(kH), delta(kH);
    for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      rng.Shuffle(order);
      for (size_t i : order) {
        double pred = b2_;
        for (size_t u = 0; u < kH; ++u) {
          double z = b1_[u];
          for (size_t j = 0; j < d; ++j) {
            z += w1_[u][j] * xs[i][j];
          }
          act[u] = std::tanh(z);
          pred += w2_[u] * act[u];
        }
        const double err = pred - yn[i];
        for (size_t u = 0; u < kH; ++u) {
          delta[u] = err * w2_[u] * (1.0 - act[u] * act[u]);
        }
        ++step;
        bc1 = 1.0 - std::pow(0.9, step);
        bc2 = 1.0 - std::pow(0.999, step);
        adam(&b2_, &a_b2, err);
        for (size_t u = 0; u < kH; ++u) {
          adam(&w2_[u], &a_w2[u], act[u] * err);
          adam(&b1_[u], &a_b1[u], delta[u]);
          for (size_t j = 0; j < d; ++j) {
            adam(&w1_[u][j], &a_w1[u][j], delta[u] * xs[i][j]);
          }
        }
      }
    }
  }

  double Predict(const std::vector<double>& x) const {
    const std::vector<double> q = scaler_.Transform(x);
    double pred = b2_;
    for (size_t u = 0; u < w1_.size(); ++u) {
      double z = b1_[u];
      for (size_t j = 0; j < q.size(); ++j) {
        z += w1_[u][j] * q[j];
      }
      pred += w2_[u] * std::tanh(z);
    }
    return pred * y_scale_ + y_mean_;
  }

 private:
  MlpOptions options_;
  FeatureScaler scaler_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  std::vector<std::vector<double>> w1_;  // [unit][input]
  std::vector<double> b1_, w2_;
  double b2_ = 0.0;
};

// Skipping Adam updates that cannot change a bit (rows of all-zero inputs,
// the bias correction once 1 - 0.9^t rounds to 1) must keep every prediction
// bit of the textbook fit, with and without such rows and past the step
// where that correction saturates.
TEST(MlpDifferentialTest, MatchesTextbookAdamBitForBit) {
  Rng rng(2024);
  size_t cases = 0;
  for (size_t n : {5, 24, 30}) {
    for (size_t d : {1, 3, 12}) {
      for (size_t zero_cols = 0; zero_cols <= std::min<size_t>(d, 4); ++zero_cols) {
        for (size_t epochs : {300, 600}) {
          SCOPED_TRACE(testing::Message() << "n " << n << " d " << d << " zero columns "
                                          << zero_cols << " epochs " << epochs);
          std::vector<std::vector<double>> x(n, std::vector<double>(d));
          std::vector<double> y(n);
          for (size_t i = 0; i < n; ++i) {
            // The zero columns are spread over the row, not only at its end.
            // The next column is ±1 summing to 0, so it scales to 0 on its
            // first row (and last, for even n) but not on the others.
            for (size_t j = 0; j < d; ++j) {
              const size_t slot = (j * 7 + zero_cols) % d;
              if (slot < zero_cols) {
                x[i][j] = 0.0;
              } else if (slot == zero_cols) {
                x[i][j] = i == 0 || (i + 1 == n && n % 2 == 0) ? 0.0 : (i % 2 == 1 ? 1.0 : -1.0);
              } else {
                x[i][j] = rng.Uniform(-2.0, 5.0);
              }
            }
            y[i] = 10.0 + 2.0 * x[i][0] - x[i][d - 1] * x[i][d / 2] + rng.Normal(0.0, 0.3);
          }
          MlpOptions options;
          options.epochs = epochs;
          options.seed = 13 + cases;
          MlpRegressor mlp(options);
          ReferenceMlp reference(options);
          mlp.Fit(x, y);
          reference.Fit(x, y);
          for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(std::bit_cast<uint64_t>(mlp.Predict(x[i])),
                      std::bit_cast<uint64_t>(reference.Predict(x[i])))
                << "row " << i;
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2u * 3u * (2 + 4 + 5));
}

// A non-finite feature poisons the gradients from the first step on; the fit
// must still follow the textbook loop (every row updated) bit for bit.
TEST(MlpDifferentialTest, NonFiniteFeatureMatchesTextbookAdam) {
  Rng rng(77);
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<std::vector<double>> x(24, std::vector<double>(12));
    std::vector<double> y(24);
    for (size_t i = 0; i < x.size(); ++i) {
      for (size_t j = 0; j < 12; ++j) {
        x[i][j] = j % 4 == 1 ? 0.0 : rng.Uniform(0.0, 3.0);
      }
      y[i] = 5.0 + x[i][0] - x[i][6];
    }
    x[9][6] = bad;
    MlpOptions options;
    options.epochs = 300;
    MlpRegressor mlp(options);
    ReferenceMlp reference(options);
    mlp.Fit(x, y);
    reference.Fit(x, y);
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(mlp.Predict(x[i])),
                std::bit_cast<uint64_t>(reference.Predict(x[i])))
          << "bad " << bad << " row " << i;
    }
  }
}

// The same forest as RandomForestRegressor with the textbook split search:
// every node copies its rows' (value, target) pairs per candidate feature and
// sorts them, and children get fresh index vectors.
class ReferenceForest {
 public:
  explicit ReferenceForest(RandomForestOptions options) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
    const size_t d = x[0].size();
    Rng rng(options_.seed);
    trees_.clear();
    const size_t features_per_split = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(options_.feature_fraction * static_cast<double>(d))));
    for (size_t t = 0; t < options_.num_trees; ++t) {
      std::vector<size_t> root_idx(x.size());
      for (size_t& i : root_idx) {
        i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(x.size()) - 1));
      }
      std::vector<Node>& nodes = trees_.emplace_back();
      struct Item {
        std::vector<size_t> idx;
        size_t depth;
        size_t slot;
      };
      std::vector<Item> stack;
      nodes.emplace_back();
      stack.push_back({std::move(root_idx), 0, 0});
      while (!stack.empty()) {
        Item item = std::move(stack.back());
        stack.pop_back();
        double sum = 0.0;
        for (size_t i : item.idx) {
          sum += y[i];
        }
        const double mean = sum / static_cast<double>(item.idx.size());
        nodes[item.slot].value = mean;
        double sse = 0.0;
        for (size_t i : item.idx) {
          sse += (y[i] - mean) * (y[i] - mean);
        }
        if (item.depth >= options_.max_depth ||
            item.idx.size() < 2 * options_.min_samples_leaf || !(sse > 1e-12)) {
          continue;
        }
        std::vector<int> features(d);
        for (size_t j = 0; j < d; ++j) {
          features[j] = static_cast<int>(j);
        }
        rng.Shuffle(features);
        features.resize(features_per_split);

        int best_feature = -1;
        double best_threshold = 0.0;
        double best_score = std::numeric_limits<double>::infinity();
        for (int f : features) {
          std::vector<std::pair<double, double>> col;
          for (size_t i : item.idx) {
            col.emplace_back(x[i][static_cast<size_t>(f)], y[i]);
          }
          std::sort(col.begin(), col.end());
          const size_t n = col.size();
          std::vector<double> prefix_sum(n + 1, 0.0), prefix_sq(n + 1, 0.0);
          for (size_t i = 0; i < n; ++i) {
            prefix_sum[i + 1] = prefix_sum[i] + col[i].second;
            prefix_sq[i + 1] = prefix_sq[i] + col[i].second * col[i].second;
          }
          const size_t leaf = options_.min_samples_leaf;
          for (size_t split = leaf; split + leaf <= n; ++split) {
            if (col[split - 1].first == col[split].first) {
              continue;
            }
            const double ls = prefix_sum[split], lq = prefix_sq[split];
            const double rs = prefix_sum[n] - ls, rq = prefix_sq[n] - lq;
            const double nl = static_cast<double>(split);
            const double nr = static_cast<double>(n - split);
            const double score = (lq - ls * ls / nl) + (rq - rs * rs / nr);
            if (score < best_score) {
              best_score = score;
              best_feature = f;
              best_threshold = 0.5 * (col[split - 1].first + col[split].first);
            }
          }
        }
        if (best_feature < 0) {
          continue;
        }
        std::vector<size_t> left, right;
        for (size_t i : item.idx) {
          (x[i][static_cast<size_t>(best_feature)] <= best_threshold ? left : right).push_back(i);
        }
        if (left.size() < options_.min_samples_leaf || right.size() < options_.min_samples_leaf) {
          continue;
        }
        Node& node = nodes[item.slot];
        node.feature = best_feature;
        node.threshold = best_threshold;
        node.left = nodes.size();
        node.right = nodes.size() + 1;
        nodes.resize(nodes.size() + 2);
        stack.push_back({std::move(left), item.depth + 1, nodes[item.slot].left});
        stack.push_back({std::move(right), item.depth + 1, nodes[item.slot].right});
      }
    }
  }

  double Predict(const std::vector<double>& x) const {
    double sum = 0.0;
    for (const std::vector<Node>& nodes : trees_) {
      size_t at = 0;
      while (nodes[at].feature >= 0) {
        at = x[static_cast<size_t>(nodes[at].feature)] <= nodes[at].threshold ? nodes[at].left
                                                                              : nodes[at].right;
      }
      sum += nodes[at].value;
    }
    return sum / static_cast<double>(trees_.size());
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    size_t left = 0;
    size_t right = 0;
  };

  RandomForestOptions options_;
  std::vector<std::vector<Node>> trees_;
};

// Tie-heavy data is where a split search can silently change: integer
// features with few levels, integer targets, duplicate rows, constant
// columns. The forest must predict the same bits as the per-node-sort
// reference on every dataset and query.
TEST(RandomForestDifferentialTest, MatchesPerNodeSortReferenceBitForBit) {
  Rng rng(99);
  size_t queries = 0;
  for (size_t c = 0; c < 300; ++c) {
    const size_t n = 2 + c % 39;
    const size_t d = 1 + c % 5;
    const int64_t levels = 1 + static_cast<int64_t>(c % 4);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0 && rng.Uniform() < 0.2) {
        // Duplicate an earlier row, target included.
        const size_t from = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
        x.push_back(x[from]);
        y.push_back(y[from]);
        continue;
      }
      std::vector<double> row(d);
      for (size_t j = 0; j < d; ++j) {
        // Column 0 is constant in every third dataset.
        row[j] = j == 0 && c % 3 == 0 ? 1.5 : static_cast<double>(rng.UniformInt(0, levels));
      }
      x.push_back(std::move(row));
      y.push_back(c % 2 == 0 ? static_cast<double>(rng.UniformInt(-2, 2))
                             : rng.Uniform(-1.0, 1.0) + x.back()[d - 1]);
    }
    RandomForestOptions options;
    options.num_trees = 6;
    options.min_samples_leaf = 1 + c % 3;
    options.max_depth = std::array<size_t, 4>{1, 2, 4, 8}[c % 4];
    options.feature_fraction = c % 5 == 0 ? 1.0 : 0.6;
    options.seed = 1000 + c;
    SCOPED_TRACE(testing::Message() << "dataset " << c << " n " << n << " d " << d
                                    << " min_samples_leaf " << options.min_samples_leaf
                                    << " max_depth " << options.max_depth);
    RandomForestRegressor forest(options);
    ReferenceForest reference(options);
    forest.Fit(x, y);
    reference.Fit(x, y);
    for (size_t q = 0; q < 200; ++q) {
      // Half-integer queries land exactly on split thresholds.
      std::vector<double> query(d);
      for (double& v : query) {
        v = 0.5 * static_cast<double>(rng.UniformInt(-1, 2 * levels + 1));
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(forest.Predict(query)),
                std::bit_cast<uint64_t>(reference.Predict(query)))
          << "query " << q;
      ++queries;
    }
  }
  EXPECT_EQ(queries, 300u * 200u);
}

// Parameterized: every zoo regressor fits a simple linear map acceptably.
class ZooRegressorTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZooRegressorTest, FitsLinearMapReasonably) {
  auto factories = DefaultRegressorZoo();
  auto model = factories[GetParam()]();
  auto f = [](double a, double b) { return 4.0 * a + b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 250, 10 + GetParam(), &x, &y);
  model->Fit(x, y);
  EXPECT_LT(TestError(*model, f, 92), 0.6) << model->name();
}

TEST_P(ZooRegressorTest, RefitReplacesOldModel) {
  auto factories = DefaultRegressorZoo();
  auto model = factories[GetParam()]();
  std::vector<std::vector<double>> x1, x2;
  std::vector<double> y1, y2;
  MakeDataset([](double a, double) { return a; }, 120, 20, &x1, &y1);
  MakeDataset([](double a, double) { return -a; }, 120, 21, &x2, &y2);
  model->Fit(x1, y1);
  double before = model->Predict({0.9, 0.5});
  model->Fit(x2, y2);
  double after = model->Predict({0.9, 0.5});
  EXPECT_GT(before, 0.3) << model->name();
  EXPECT_LT(after, -0.3) << model->name();
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, ZooRegressorTest, ::testing::Range<size_t>(0, 5));

// ---------------------------------------------------------------------------
// Model selection
// ---------------------------------------------------------------------------

TEST(ModelSelectionTest, KFoldErrorSmallForEasyProblem) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return 2.0 * a + b + 5.0; }, 100, 30, &x, &y);
  double err = KFoldRelativeError(
      [] { return std::unique_ptr<Regressor>(std::make_unique<LinearRegressor>()); }, x, y);
  EXPECT_LT(err, 0.01);
}

TEST(ModelSelectionTest, SelectsLowCvErrorModel) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return 3.0 * a - b; }, 120, 31, &x, &y, 0.01);
  auto result = SelectBestModel(DefaultRegressorZoo(), x, y);
  ASSERT_NE(result.model, nullptr);
  EXPECT_LT(result.cv_error, 0.6);
  EXPECT_FALSE(result.model_name.empty());
}

TEST(ModelSelectionTest, WinnerIsRefitOnAllData) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return a + b; }, 60, 32, &x, &y);
  auto result = SelectBestModel(DefaultRegressorZoo(), x, y);
  // Refit model should predict near truth on a training point.
  EXPECT_NEAR(result.model->Predict(x[0]), y[0], 0.3);
}

TEST(ModelSelectionTest, DefaultZooHasFiveFamilies) {
  EXPECT_EQ(DefaultRegressorZoo().size(), 5u);
}

// ---------------------------------------------------------------------------
// Bounded cross-validation
// ---------------------------------------------------------------------------

// Wraps `inner` so every model it hands out — one per fold fit — is counted.
RegressorFactory CountingFactory(RegressorFactory inner, size_t* fits) {
  return [inner = std::move(inner), fits] {
    ++*fits;
    return inner();
  };
}

class NanRegressor : public Regressor {
 public:
  void Fit(const std::vector<std::vector<double>>&, const std::vector<double>&) override {}
  double Predict(const std::vector<double>&) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::string name() const override { return "NaN"; }
};

RegressorFactory NanFactory() {
  return [] { return std::unique_ptr<Regressor>(std::make_unique<NanRegressor>()); };
}

// Linear: the lowest of kCvBits, so the winner of the FitIsBitStable selection.
constexpr size_t kCvWinner = 3;

TEST(KFoldBoundTest, BoundJustAboveExactKeepsUnboundedBits) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeBitStableDataset(&x, &y);
  auto zoo = DefaultRegressorZoo();
  for (size_t f = 0; f < zoo.size(); ++f) {
    double bound = std::nextafter(std::bit_cast<double>(kCvBits[f]),
                                  std::numeric_limits<double>::infinity());
    uint64_t bits = std::bit_cast<uint64_t>(KFoldRelativeError(zoo[f], x, y, 5, bound));
    EXPECT_EQ(bits, kCvBits[f]) << zoo[f]()->name() << " bits 0x" << std::hex << bits;
  }
}

TEST(KFoldBoundTest, BoundAtExactIsNotBeaten) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeBitStableDataset(&x, &y);
  auto zoo = DefaultRegressorZoo();
  for (size_t f = 0; f < zoo.size(); ++f) {
    double bound = std::bit_cast<double>(kCvBits[f]);
    // A tie must lose to the strict `<` of SelectBestModel.
    EXPECT_GE(KFoldRelativeError(zoo[f], x, y, 5, bound), bound) << zoo[f]()->name();
  }
}

TEST(KFoldBoundTest, BoundFromBetterLearnerSkipsFolds) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeBitStableDataset(&x, &y);
  auto zoo = DefaultRegressorZoo();
  const double bound = std::bit_cast<double>(kCvBits[kCvWinner]);
  for (size_t f = 0; f < zoo.size(); ++f) {
    if (f == kCvWinner) {
      continue;
    }
    size_t fits = 0;
    double err = KFoldRelativeError(CountingFactory(zoo[f], &fits), x, y, 5, bound);
    EXPECT_GE(err, bound) << zoo[f]()->name();
    EXPECT_LT(fits, 5u) << zoo[f]()->name();
  }
}

TEST(KFoldBoundTest, NanPartialNeverPrunesAndNeverWins) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeBitStableDataset(&x, &y);
  size_t fits = 0;
  double bound = std::bit_cast<double>(kCvBits[kCvWinner]);
  EXPECT_TRUE(std::isnan(KFoldRelativeError(CountingFactory(NanFactory(), &fits), x, y, 5, bound)));
  EXPECT_EQ(fits, 5u);

  // Before or after any zoo learner, the NaN candidate loses to it.
  auto zoo = DefaultRegressorZoo();
  for (size_t f = 0; f < zoo.size(); ++f) {
    const std::string name = zoo[f]()->name();
    for (const auto& candidates : {std::vector<RegressorFactory>{NanFactory(), zoo[f]},
                                   std::vector<RegressorFactory>{zoo[f], NanFactory()}}) {
      ModelSelectionResult result = SelectBestModel(candidates, x, y);
      EXPECT_EQ(result.model_name, name);
      EXPECT_EQ(std::bit_cast<uint64_t>(result.cv_error), kCvBits[f]) << name;
    }
  }
}

TEST(KFoldBoundTest, SelectionKeepsTheUnboundedWinnerWithFewerFits) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeBitStableDataset(&x, &y);
  auto zoo = DefaultRegressorZoo();
  size_t fits = 0;
  std::vector<RegressorFactory> counted;
  for (const RegressorFactory& factory : zoo) {
    counted.push_back(CountingFactory(factory, &fits));
  }
  ModelSelectionResult result = SelectBestModel(counted, x, y);
  EXPECT_EQ(result.model_name, zoo[kCvWinner]()->name());
  EXPECT_EQ(std::bit_cast<uint64_t>(result.cv_error), kCvBits[kCvWinner]);
  // The MLP comes after the winner and cannot beat it, so the bound stops
  // it early: fewer than every fold of every learner plus the refit.
  EXPECT_LT(fits, zoo.size() * 5 + 1);
}

// Delegates to another learner under a different name.
class RenamedRegressor : public Regressor {
 public:
  RenamedRegressor(std::unique_ptr<Regressor> inner, std::string name)
      : inner_(std::move(inner)), name_(std::move(name)) {}
  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override {
    inner_->Fit(x, y);
  }
  double Predict(const std::vector<double>& x) const override { return inner_->Predict(x); }
  std::string name() const override { return name_; }

 private:
  std::unique_ptr<Regressor> inner_;
  std::string name_;
};

TEST(KFoldBoundTest, TieGoesToTheEarlierLearner) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeBitStableDataset(&x, &y);
  auto zoo = DefaultRegressorZoo();
  for (size_t f = 0; f < zoo.size(); ++f) {
    RegressorFactory twin = [inner = zoo[f]] {
      return std::unique_ptr<Regressor>(std::make_unique<RenamedRegressor>(inner(), "twin"));
    };
    ModelSelectionResult result = SelectBestModel({zoo[f], twin}, x, y);
    EXPECT_EQ(result.model_name, zoo[f]()->name());
    EXPECT_EQ(std::bit_cast<uint64_t>(result.cv_error), kCvBits[f]);
  }
}

}  // namespace
}  // namespace mudi
