#include "src/ml/model_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/ml/fit_cache.h"
#include "src/ml/fit_pool.h"
#include "src/ml/knn.h"
#include "src/ml/linear_regression.h"
#include "src/ml/mlp.h"
#include "src/ml/random_forest.h"
#include "src/ml/svr.h"

namespace mudi {

double KFoldRelativeError(const RegressorFactory& factory,
                          const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y, size_t folds, double bound) {
  MUDI_CHECK_EQ(x.size(), y.size());
  MUDI_CHECK_GE(x.size(), 2u);
  folds = std::min(folds, x.size());
  MUDI_CHECK_GE(folds, 2u);
  // Every point lands in exactly one test fold, so the mean is over x.size().
  const double n = static_cast<double>(x.size());

  double total_err = 0.0;
  for (size_t fold = 0; fold < folds; ++fold) {
    // Every term is >= 0 and round-to-nearest addition is monotone, so the
    // full sum is >= this partial one and so is its mean: once the partial
    // mean reaches `bound`, the remaining folds cannot bring it back under.
    // A NaN partial compares false, so it runs every fold and never wins.
    if (total_err / n >= bound) {
      return total_err / n;
    }
    std::vector<std::vector<double>> train_x, test_x;
    std::vector<double> train_y, test_y;
    for (size_t i = 0; i < x.size(); ++i) {
      if (i % folds == fold) {
        test_x.push_back(x[i]);
        test_y.push_back(y[i]);
      } else {
        train_x.push_back(x[i]);
        train_y.push_back(y[i]);
      }
    }
    MUDI_CHECK(!train_x.empty() && !test_x.empty());
    auto model = factory();
    model->Fit(train_x, train_y);
    for (size_t i = 0; i < test_x.size(); ++i) {
      double pred = model->Predict(test_x[i]);
      double denom = std::max(std::abs(test_y[i]), 1e-6);
      total_err += std::abs(pred - test_y[i]) / denom;
    }
  }
  return total_err / n;
}

std::vector<RegressorFactory> DefaultRegressorZoo() {
  return {
      [] { return std::unique_ptr<Regressor>(std::make_unique<RandomForestRegressor>()); },
      [] { return std::unique_ptr<Regressor>(std::make_unique<SvrRegressor>()); },
      [] { return std::unique_ptr<Regressor>(std::make_unique<KnnRegressor>()); },
      [] { return std::unique_ptr<Regressor>(std::make_unique<LinearRegressor>()); },
      [] {
        MlpOptions options;
        options.epochs = 300;  // selection-time budget; the winner refits fully
        return std::unique_ptr<Regressor>(std::make_unique<MlpRegressor>(options));
      },
  };
}

ModelSelectionResult SelectBestModel(const std::vector<RegressorFactory>& factories,
                                     const std::vector<std::vector<double>>& x,
                                     const std::vector<double>& y, size_t folds) {
  MUDI_CHECK(!factories.empty());
  ModelSelectionResult result;
  double best_err = std::numeric_limits<double>::infinity();
  const RegressorFactory* best_factory = nullptr;
  for (const auto& factory : factories) {
    // The best error so far bounds every later candidate: one that cannot
    // beat it under the strict `<` stops cross-validating early.
    double err = KFoldRelativeError(factory, x, y, folds, best_err);
    if (err < best_err) {
      best_err = err;
      best_factory = &factory;
    }
  }
  MUDI_CHECK(best_factory != nullptr);
  result.model = (*best_factory)();
  result.model->Fit(x, y);
  result.model_name = result.model->name();
  result.cv_error = best_err;
  return result;
}

std::vector<SharedSelectionResult> SelectBestModelsCached(
    const std::vector<RegressorFactory>& factories, const std::vector<FitTask>& tasks) {
  MUDI_CHECK(!factories.empty());
  std::vector<SharedSelectionResult> results(tasks.size());

  // Resolve cache hits first so only genuinely new datasets pay for CV.
  std::vector<size_t> pending;  // indices into tasks, ascending
  std::vector<FitFingerprint> keys(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const FitTask& task = tasks[i];
    MUDI_CHECK(task.x != nullptr && task.y != nullptr);
    keys[i] = FingerprintSamples(*task.x, *task.y, task.folds);
    if (std::shared_ptr<const CachedFit> hit = FitCache::Global().Find(keys[i])) {
      results[i].model = hit->model;
      results[i].model_name = hit->model_name;
      results[i].cv_error = hit->cv_error;
      results[i].from_cache = true;
    } else {
      pending.push_back(i);
    }
  }
  if (pending.empty()) {
    return results;
  }

  // One shard per pending task, each a full SelectBestModel: a pure,
  // internally-seeded function of its task writing only its own slot.
  std::vector<ModelSelectionResult> selected(pending.size());
  FitPool::ParallelFor(pending.size(), [&](size_t p) {
    const FitTask& task = tasks[pending[p]];
    selected[p] = SelectBestModel(factories, *task.x, *task.y, task.folds);
  });

  // Fixed-order reduction + cache fill on the calling thread.
  for (size_t p = 0; p < pending.size(); ++p) {
    size_t i = pending[p];
    results[i].model = std::move(selected[p].model);
    results[i].model_name = std::move(selected[p].model_name);
    results[i].cv_error = selected[p].cv_error;
    auto cached = std::make_shared<CachedFit>();
    cached->model = results[i].model;
    cached->model_name = results[i].model_name;
    cached->cv_error = results[i].cv_error;
    FitCache::Global().Insert(keys[i], std::move(cached));
  }
  return results;
}

}  // namespace mudi
