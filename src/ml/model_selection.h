// K-fold cross-validation and best-model selection. The Interference Modeler
// "determines the optimal model as the learner for each metric individually"
// (§4.1.2); this module implements that selection over the Regressor zoo.
#ifndef SRC_ML_MODEL_SELECTION_H_
#define SRC_ML_MODEL_SELECTION_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/ml/regressor.h"

namespace mudi {

// Mean |pred − true| / max(|true|, eps) over k-fold CV splits. Stops before
// the next fold's fit once the partial mean (partial sum / x.size()) is
// already >= `bound` and returns that partial mean: the full mean could only
// be larger, so a caller rejecting anything >= `bound` loses nothing. A
// result below `bound` is the full mean, bit for bit.
double KFoldRelativeError(const RegressorFactory& factory,
                          const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y, size_t folds = 5,
                          double bound = std::numeric_limits<double>::infinity());

struct ModelSelectionResult {
  std::unique_ptr<Regressor> model;  // refit on all data
  std::string model_name;
  double cv_error = 0.0;
};

// Factories for the default candidate zoo: RF, SVR, kNN, Linear, MLP.
std::vector<RegressorFactory> DefaultRegressorZoo();

// Cross-validates every factory in order and returns the first one with the
// strictly lowest error, refit on all data. The best error so far bounds each
// later factory's KFoldRelativeError.
ModelSelectionResult SelectBestModel(const std::vector<RegressorFactory>& factories,
                                     const std::vector<std::vector<double>>& x,
                                     const std::vector<double>& y, size_t folds = 5);

// One independent selection problem in a batch; the pointed-to data must
// outlive the SelectBestModelsCached call.
struct FitTask {
  const std::vector<std::vector<double>>* x = nullptr;
  const std::vector<double>* y = nullptr;
  size_t folds = 5;
};

struct SharedSelectionResult {
  std::shared_ptr<const Regressor> model;  // winner refit on all data
  std::string model_name;
  double cv_error = 0.0;
  bool from_cache = false;
};

// Batch counterpart of SelectBestModel: memoized through FitCache and
// parallelized through FitPool. Tasks already in the cache are returned
// immediately; each of the rest is one pool shard running SelectBestModel.
// Every shard is an internally-seeded pure function of its task and lands in
// a pre-sized slot read back in task order, so the returned vector is
// bit-identical to per-task SelectBestModel for any MUDI_FIT_THREADS setting.
std::vector<SharedSelectionResult> SelectBestModelsCached(
    const std::vector<RegressorFactory>& factories, const std::vector<FitTask>& tasks);

}  // namespace mudi

#endif  // SRC_ML_MODEL_SELECTION_H_
