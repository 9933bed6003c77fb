#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/common/env.h"
#include "src/common/rng.h"
#include "src/ml/fit_pool.h"
#include "src/ml/piecewise_linear.h"

namespace mudi {
namespace {

// Sets MUDI_FIT_THREADS for one scope and restores it afterwards.
class ScopedFitThreads {
 public:
  explicit ScopedFitThreads(const char* value) : saved_(GetEnv("MUDI_FIT_THREADS")) {
    setenv("MUDI_FIT_THREADS", value, /*overwrite=*/1);
  }
  ~ScopedFitThreads() {
    if (saved_.has_value()) {
      setenv("MUDI_FIT_THREADS", saved_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv("MUDI_FIT_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(FitPoolTest, ThreadCountTakesANonNegativeInteger) {
  {
    ScopedFitThreads env("3");
    EXPECT_EQ(FitPool::ConfiguredThreads(), 3u);
  }
  {
    ScopedFitThreads env("0");  // auto: hardware concurrency, clamped to 1..8
    size_t threads = FitPool::ConfiguredThreads();
    EXPECT_GE(threads, 1u);
    EXPECT_LE(threads, 8u);
  }
}

// Only ConfiguredThreads() runs under a bad value: a worker count past the
// int64 range must abort before any thread could be asked for.
TEST(FitPoolDeathTest, MalformedThreadCountIsAHardError) {
  for (const char* bad : {"abc", "-1", "4x", "99999999999999999999"}) {
    EXPECT_DEATH(
        {
          setenv("MUDI_FIT_THREADS", bad, /*overwrite=*/1);
          FitPool::ConfiguredThreads();
        },
        "parsed >= 0")
        << "MUDI_FIT_THREADS=" << bad;
  }
}

TEST(PiecewiseModelTest, EvalBothSegments) {
  PiecewiseLinearModel m{-10.0, -1.0, 0.4, 50.0};
  EXPECT_DOUBLE_EQ(m.Eval(0.4), 50.0);
  EXPECT_DOUBLE_EQ(m.Eval(0.2), 50.0 + (-10.0) * (0.2 - 0.4));
  EXPECT_DOUBLE_EQ(m.Eval(0.8), 50.0 + (-1.0) * (0.8 - 0.4));
}

TEST(PiecewiseModelTest, AverageSlope) {
  PiecewiseLinearModel m{-10.0, -2.0, 0.4, 50.0};
  EXPECT_DOUBLE_EQ(m.AverageSlope(), -6.0);
}

TEST(PiecewiseModelTest, InverseHitsTargetOnSteepSegment) {
  PiecewiseLinearModel m{-100.0, -2.0, 0.5, 40.0};
  // Target 60: reached on the steep segment at x where -100(x-0.5)+40=60 → x=0.3.
  auto x = m.MinXForValueAtMost(60.0, 0.1, 0.9);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(*x, 0.3, 1e-9);
  EXPECT_LE(m.Eval(*x), 60.0 + 1e-9);
}

TEST(PiecewiseModelTest, InverseHitsTargetOnShallowSegment) {
  PiecewiseLinearModel m{-100.0, -10.0, 0.5, 40.0};
  // Target 38: only reachable beyond the cutoff: -10(x-0.5)+40=38 → x=0.7.
  auto x = m.MinXForValueAtMost(38.0, 0.1, 0.9);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(*x, 0.7, 1e-9);
}

TEST(PiecewiseModelTest, InverseInfeasible) {
  PiecewiseLinearModel m{-100.0, -10.0, 0.5, 40.0};
  EXPECT_FALSE(m.MinXForValueAtMost(30.0, 0.1, 0.9).has_value());
}

TEST(PiecewiseModelTest, InverseAlreadyFeasibleAtMin) {
  PiecewiseLinearModel m{-10.0, -1.0, 0.5, 40.0};
  auto x = m.MinXForValueAtMost(1000.0, 0.1, 0.9);
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ(*x, 0.1);
}

TEST(MengerCurvatureTest, CollinearIsZero) {
  EXPECT_DOUBLE_EQ(MengerCurvature(0, 0, 1, 1, 2, 2), 0.0);
}

TEST(MengerCurvatureTest, UnitCircleHasCurvatureOne) {
  // Three points on a unit circle.
  double c = MengerCurvature(1, 0, 0, 1, -1, 0);
  EXPECT_NEAR(c, 1.0, 1e-9);
}

TEST(MengerCurvatureTest, SharperBendHigherCurvature) {
  double gentle = MengerCurvature(0, 0, 1, 0.1, 2, 0);
  double sharp = MengerCurvature(0, 0, 1, 1.0, 2, 0);
  EXPECT_GT(sharp, gentle);
}

TEST(FitPiecewiseTest, RecoversExactPiecewiseData) {
  PiecewiseLinearModel truth{-80.0, -5.0, 0.4, 30.0};
  std::vector<double> x, y;
  for (double g = 0.1; g <= 0.91; g += 0.1) {
    x.push_back(g);
    y.push_back(truth.Eval(g));
  }
  PiecewiseLinearModel fit = FitPiecewiseLinear(x, y);
  EXPECT_NEAR(fit.x0, 0.4, 0.06);
  EXPECT_NEAR(fit.k1, -80.0, 4.0);
  EXPECT_NEAR(fit.k2, -5.0, 1.0);
  EXPECT_NEAR(fit.y0, 30.0, 2.0);
}

TEST(FitPiecewiseTest, UnsortedInputHandled) {
  PiecewiseLinearModel truth{-50.0, -2.0, 0.5, 20.0};
  std::vector<double> x{0.9, 0.1, 0.5, 0.3, 0.7, 0.2};
  std::vector<double> y;
  for (double g : x) {
    y.push_back(truth.Eval(g));
  }
  PiecewiseLinearModel fit = FitPiecewiseLinear(x, y);
  EXPECT_LT(PiecewiseSse(fit, x, y), 1.0);
}

TEST(FitPiecewiseTest, SseDecreasesVsSingleLine) {
  PiecewiseLinearModel truth{-80.0, -1.0, 0.35, 25.0};
  std::vector<double> x, y;
  for (double g = 0.1; g <= 0.91; g += 0.08) {
    x.push_back(g);
    y.push_back(truth.Eval(g));
  }
  PiecewiseLinearModel fit = FitPiecewiseLinear(x, y);
  // A single line through the data would have huge error on this elbow.
  EXPECT_LT(PiecewiseSse(fit, x, y), 10.0);
}

TEST(FitPiecewiseTest, RobustToNoise) {
  Rng rng(11);
  PiecewiseLinearModel truth{-60.0, -4.0, 0.45, 35.0};
  std::vector<double> x, y;
  for (double g = 0.1; g <= 0.91; g += 0.05) {
    x.push_back(g);
    y.push_back(truth.Eval(g) * rng.LogNormalFactor(0.03));
  }
  PiecewiseLinearModel fit = FitPiecewiseLinear(x, y);
  EXPECT_NEAR(fit.x0, 0.45, 0.12);
  // Slope signs and magnitudes preserved.
  EXPECT_LT(fit.k1, fit.k2);
  EXPECT_LT(fit.k1, -20.0);
  EXPECT_GT(fit.k2, -15.0);
}

TEST(FitPiecewiseTest, HyperbolicCurveApproximation) {
  // The oracle's true shape is ~1/g below the knee: piece-wise linear should
  // approximate it within a few percent at the profiling points.
  std::vector<double> x, y;
  for (double g = 0.1; g <= 0.91; g += 0.1) {
    x.push_back(g);
    double knee = 0.45;
    y.push_back(g < knee ? 100.0 * knee / g : 100.0 * (1.0 - 0.05 * (g - knee)));
  }
  PiecewiseLinearModel fit = FitPiecewiseLinear(x, y);
  double worst = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::abs(fit.Eval(x[i]) - y[i]) / y[i]);
  }
  EXPECT_LT(worst, 0.25);
}

// Property sweep: fit recovery across a grid of ground-truth parameters.
struct FitCase {
  double k1;
  double k2;
  double x0;
  double y0;
};

class FitPiecewiseParamTest : public ::testing::TestWithParam<FitCase> {};

TEST_P(FitPiecewiseParamTest, RecoversParametersFromCleanSamples) {
  const FitCase& c = GetParam();
  PiecewiseLinearModel truth{c.k1, c.k2, c.x0, c.y0};
  std::vector<double> x, y;
  for (double g = 0.1; g <= 0.91; g += 0.1) {
    x.push_back(g);
    y.push_back(truth.Eval(g));
  }
  PiecewiseLinearModel fit = FitPiecewiseLinear(x, y);
  // Prediction-level agreement at every profiling point.
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(fit.Eval(x[i]), y[i], 0.05 * std::abs(c.y0) + 1.5)
        << "k1=" << c.k1 << " x0=" << c.x0 << " at g=" << x[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, FitPiecewiseParamTest,
    ::testing::Values(FitCase{-20.0, -1.0, 0.3, 20.0}, FitCase{-50.0, -2.0, 0.4, 40.0},
                      FitCase{-100.0, -8.0, 0.5, 60.0}, FitCase{-200.0, -0.5, 0.6, 100.0},
                      FitCase{-30.0, -3.0, 0.7, 15.0}, FitCase{-75.0, -6.0, 0.25, 80.0},
                      FitCase{-150.0, -12.0, 0.45, 200.0}, FitCase{-40.0, -0.1, 0.55, 10.0}));

}  // namespace
}  // namespace mudi
