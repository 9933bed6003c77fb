#include "src/ml/bayesopt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace mudi {
namespace {

// Evaluation budget per optimization (§7.5: tuning converges within 25).
constexpr size_t kMaxIterations = 25;
// Stop when the chosen candidate repeats this many consecutive times.
constexpr size_t kConvergenceRepeats = 3;
// Evenly spaced candidates evaluated before the LCB loop starts. β_n decays
// as 2·log(|R|/n²), so with small candidate sets exploration dies within a
// couple of iterations; the initial design guarantees coverage first.
constexpr size_t kInitialDesign = 6;

}  // namespace

GpLcbOptimizer::GpLcbOptimizer(std::vector<double> candidates)
    : candidates_(std::move(candidates)) {
  MUDI_CHECK(!candidates_.empty());
  auto [lo, hi] = std::minmax_element(candidates_.begin(), candidates_.end());
  scale_center_ = 0.5 * (*lo + *hi);
  double half = 0.5 * (*hi - *lo);
  scale_half_ = half > 1e-12 ? half : 1.0;
}

double GpLcbOptimizer::Beta(size_t num_candidates, size_t iteration) {
  MUDI_CHECK_GE(iteration, 1u);
  double beta = 2.0 * std::log(static_cast<double>(num_candidates) /
                               (static_cast<double>(iteration) * static_cast<double>(iteration)));
  return beta > 0.0 ? beta : 0.0;
}

BayesOptResult GpLcbOptimizer::Minimize(const Objective& objective,
                                        const Feasible& feasible) const {
  BayesOptResult result;

  std::vector<double> feasible_candidates;
  for (double c : candidates_) {
    if (feasible(c)) {
      feasible_candidates.push_back(c);
    }
  }
  if (feasible_candidates.empty()) {
    return result;
  }

  GaussianProcess gp;
  auto to_feature = [&](double c) {
    return std::vector<double>{(c - scale_center_) / scale_half_};
  };

  std::vector<bool> evaluated(feasible_candidates.size(), false);
  double best_obj = std::numeric_limits<double>::infinity();
  std::optional<double> best_cand;
  size_t repeats = 0;
  double last_pick = std::numeric_limits<double>::quiet_NaN();

  // Initial design: evenly spaced coverage before the LCB loop.
  size_t design = std::min({kInitialDesign, kMaxIterations, feasible_candidates.size()});
  for (size_t d = 0; d < design; ++d) {
    size_t idx = design <= 1 ? 0
                             : d * (feasible_candidates.size() - 1) / (design - 1);
    if (evaluated[idx]) {
      continue;
    }
    double cand = feasible_candidates[idx];
    double obj = objective(cand);
    evaluated[idx] = true;
    gp.AddObservation(to_feature(cand), obj);
    result.history.emplace_back(cand, obj);
    if (obj < best_obj) {
      best_obj = obj;
      best_cand = cand;
    }
    ++result.iterations_used;
  }

  for (size_t n = result.iterations_used + 1; n <= kMaxIterations; ++n) {
    double beta_sqrt = std::sqrt(Beta(feasible_candidates.size(), n));
    // Pick the acquisition minimizer; prefer unevaluated candidates at equal
    // acquisition to avoid premature cycling.
    size_t pick = 0;
    double best_acq = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < feasible_candidates.size(); ++i) {
      GpPosterior post = gp.Predict(to_feature(feasible_candidates[i]));
      // Eq. (3): μ − β_n^{1/2}·sqrt(σ), with σ the posterior variance.
      double acq = post.mean - beta_sqrt * std::sqrt(post.variance + 1e-12);
      if (acq < best_acq - 1e-12 || (std::abs(acq - best_acq) <= 1e-12 && !evaluated[i])) {
        best_acq = acq;
        pick = i;
      }
    }
    double cand = feasible_candidates[pick];
    double obj = objective(cand);
    evaluated[pick] = true;
    gp.AddObservation(to_feature(cand), obj);
    result.history.emplace_back(cand, obj);
    if (obj < best_obj) {
      best_obj = obj;
      best_cand = cand;
    }
    result.iterations_used = n;

    if (!std::isnan(last_pick) && cand == last_pick) {
      ++repeats;
      if (repeats + 1 >= kConvergenceRepeats) {
        break;
      }
    } else {
      repeats = 0;
    }
    last_pick = cand;
    // All candidates tried at least once and the GP is exploiting: stop early.
    if (std::all_of(evaluated.begin(), evaluated.end(), [](bool b) { return b; }) &&
        repeats >= 1) {
      break;
    }
  }
  result.best_candidate = best_cand;
  result.best_objective = best_obj;
  return result;
}

}  // namespace mudi
