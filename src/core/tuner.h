// Device-level Tuner (paper §5.3, module ⑥ of Fig. 6).
//
// Two-phase decoupled tuning:
//  * Adaptive batching (§5.3.1): GP-LCB Bayesian optimization over the
//    candidate batching sizes, minimizing the observed training mini-batch
//    time subject to the SLO constraint evaluated through the predicted
//    piece-wise linear latency curve.
//  * Dynamic resource scaling (§5.3.2): the minimal GPU% satisfying Eq. (4),
//      Δ = argmin Δ  s.t.  (W/b)·P(b, Δ, Ψ) ≤ SLO,
//    solved by direct inversion of the piece-wise linear curve, with a 10%
//    safety margin on top of the solver output.
//
// On placement the order is: initialize Δ to the max cutoff across batches →
// adaptive batching → minimal Δ. On a QPS-change trigger: rescale Δ first,
// then adaptive batching, then a final rescale. If no configuration is
// feasible the Tuner reports infeasible and the caller preemptively pauses
// the co-located training (§5.3.2).
#ifndef SRC_CORE_TUNER_H_
#define SRC_CORE_TUNER_H_

#include <functional>
#include <optional>
#include <vector>

#include "src/ml/piecewise_linear.h"

namespace mudi {

class Tuner {
 public:
  // Safety factor applied to the Eq. (4) solution (paper: 10% larger).
  static constexpr double kSloMargin = 1.1;
  // Plan for this multiple of the measured load. The GPU%-side margin adds
  // no throughput headroom for services whose curve is flat beyond the knee
  // (e.g. YOLOS), so fluctuation tolerance must come from the budget.
  static constexpr double kLoadHeadroom = 1.10;
  static constexpr double kMinFraction = 0.10;
  static constexpr double kMaxFraction = 0.90;

  struct Result {
    bool feasible = false;
    int batch = 0;
    double inference_fraction = 0.0;
    size_t bo_iterations = 0;
    // Wall time spent probing configurations (sum of observed mini-batch
    // times during BO) — the paper's "tuning overhead".
    double tuning_time_ms = 0.0;
  };

  // Predicted latency curve for a batching size under the current
  // co-location (from the Online Multiplexer's Interference Predictor).
  using CurveProvider = std::function<PiecewiseLinearModel(int batch)>;
  // Observed training mini-batch time when the inference side runs with a
  // candidate batching size (Training Agent feedback).
  using IterObjective = std::function<double(int batch)>;

  // §5.3.1 flow after a placement decision.
  Result TuneOnPlacement(const CurveProvider& curves, const IterObjective& objective,
                         const std::vector<int>& batch_candidates, double qps,
                         double slo_ms) const;

  // §5.3.2 flow on a QPS-change trigger. `current_batch` seeds the first
  // rescale before adaptive batching re-runs.
  Result TuneOnQpsChange(const CurveProvider& curves, const IterObjective& objective,
                         const std::vector<int>& batch_candidates, int current_batch,
                         double qps, double slo_ms) const;

  // Eq. (4): minimal feasible Δ for one batch, before the safety margin;
  // nullopt when even max_fraction misses the SLO.
  std::optional<double> MinimalFraction(const PiecewiseLinearModel& curve, int batch, double qps,
                                        double slo_ms) const;

  // SLO feasibility of (batch) under `curve` at the best possible Δ.
  bool BatchFeasible(const PiecewiseLinearModel& curve, int batch, double qps,
                     double slo_ms) const;

 private:
  static double MarginedFraction(double raw);
};

}  // namespace mudi

#endif  // SRC_CORE_TUNER_H_
