// GP-LCB Bayesian optimization over a discrete candidate set (paper §5.3.1).
//
// Minimizes a black-box objective (training iteration time) subject to a
// deterministic feasibility predicate (the SLO constraint, evaluated through
// Mudi's explicit latency quantification). The acquisition is the lower
// confidence bound of Eq. (3):
//
//   A(b) = μ(b) − β_n^{1/2} · sqrt(σ(b)),   β_n = 2·log(|R| / n²)
//
// β_n shrinks as iterations n grow, shifting from exploration to
// exploitation; it is clamped at 0 once n² exceeds |R|.
#ifndef SRC_ML_BAYESOPT_H_
#define SRC_ML_BAYESOPT_H_

#include <functional>
#include <optional>
#include <vector>

#include "src/ml/gaussian_process.h"

namespace mudi {

struct BayesOptResult {
  // Best feasible candidate found; nullopt when no candidate is feasible.
  std::optional<double> best_candidate;
  double best_objective = 0.0;
  size_t iterations_used = 0;
  // Every (candidate, objective) pair that was evaluated, in order.
  std::vector<std::pair<double, double>> history;
};

class GpLcbOptimizer {
 public:
  using Objective = std::function<double(double candidate)>;
  using Feasible = std::function<bool(double candidate)>;

  explicit GpLcbOptimizer(std::vector<double> candidates);

  // Runs the full optimization loop: repeatedly picks the LCB-minimizing
  // feasible candidate, evaluates `objective` there, updates the GP, and
  // stops at convergence or the iteration cap.
  BayesOptResult Minimize(const Objective& objective, const Feasible& feasible) const;

  // β_n per Eq. (3), clamped to >= 0.
  static double Beta(size_t num_candidates, size_t iteration);

 private:
  std::vector<double> candidates_;
  double scale_center_ = 0.0;
  double scale_half_ = 1.0;
};

}  // namespace mudi

#endif  // SRC_ML_BAYESOPT_H_
