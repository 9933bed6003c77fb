#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
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
