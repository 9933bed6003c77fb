#include "src/core/tuner.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/policy.h"
#include "src/common/check.h"
#include "src/ml/bayesopt.h"

namespace mudi {

static_assert(Tuner::kSloMargin >= 1.0);
static_assert(0.0 < Tuner::kMinFraction && Tuner::kMinFraction < Tuner::kMaxFraction &&
              Tuner::kMaxFraction <= 1.0);

std::optional<double> Tuner::MinimalFraction(const PiecewiseLinearModel& curve, int batch,
                                             double qps, double slo_ms) const {
  MUDI_CHECK_GT(batch, 0);
  if (qps <= 0.0) {
    // No load: the service only needs the floor allocation.
    return kMinFraction;
  }
  // (W/b)·P(b, Δ) <= SLO with the queue-stability cap (see policy.h).
  double target = PlanningLatencyBudgetMs(batch, qps * kLoadHeadroom, slo_ms);
  return curve.MinXForValueAtMost(target, kMinFraction, kMaxFraction);
}

bool Tuner::BatchFeasible(const PiecewiseLinearModel& curve, int batch, double qps,
                          double slo_ms) const {
  return MinimalFraction(curve, batch, qps, slo_ms).has_value();
}

double Tuner::MarginedFraction(double raw) {
  return std::clamp(raw * kSloMargin, kMinFraction, kMaxFraction);
}

Tuner::Result Tuner::TuneOnPlacement(const CurveProvider& curves, const IterObjective& objective,
                                     const std::vector<int>& batch_candidates, double qps,
                                     double slo_ms) const {
  MUDI_CHECK(!batch_candidates.empty());
  Result result;

  // Adaptive batching: GP-LCB over feasible batch candidates, objective is
  // the observed training mini-batch time (§5.3.1).
  std::vector<double> candidates(batch_candidates.begin(), batch_candidates.end());
  GpLcbOptimizer optimizer(candidates);
  double probe_time = 0.0;
  BayesOptResult bo = optimizer.Minimize(
      [&](double b) {
        double iter_ms = objective(static_cast<int>(b));
        probe_time += iter_ms;  // each probe runs one mini-batch
        return iter_ms;
      },
      [&](double b) {
        int batch = static_cast<int>(b);
        return BatchFeasible(curves(batch), batch, qps, slo_ms);
      });
  result.bo_iterations = bo.iterations_used;
  result.tuning_time_ms = probe_time;
  if (!bo.best_candidate.has_value()) {
    result.feasible = false;
    return result;
  }
  result.batch = static_cast<int>(*bo.best_candidate);

  // Dynamic resource scaling: minimal Δ for the chosen batch + 10% margin.
  auto min_frac = MinimalFraction(curves(result.batch), result.batch, qps, slo_ms);
  MUDI_CHECK(min_frac.has_value());  // feasibility guaranteed by the BO filter
  result.inference_fraction = MarginedFraction(*min_frac);
  result.feasible = true;
  return result;
}

Tuner::Result Tuner::TuneOnQpsChange(const CurveProvider& curves, const IterObjective& objective,
                                     const std::vector<int>& batch_candidates, int current_batch,
                                     double qps, double slo_ms) const {
  // First rescale at the current batch so the service is protected while the
  // batching search runs (§5.3.2 order).
  auto immediate = MinimalFraction(curves(current_batch), current_batch, qps, slo_ms);
  Result result = TuneOnPlacement(curves, objective, batch_candidates, qps, slo_ms);
  if (!result.feasible && immediate.has_value()) {
    // The search found nothing better, but the current batch still works.
    result.feasible = true;
    result.batch = current_batch;
    result.inference_fraction = MarginedFraction(*immediate);
  }
  return result;
}

}  // namespace mudi
