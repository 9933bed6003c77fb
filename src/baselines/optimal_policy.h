// Optimal baseline (paper §5.4, §7.2): exhaustive search over co-location
// and configuration using the *ground-truth* oracle (env.oracle()). For each
// eligible device it scans the full (batch × GPU%) grid, keeps the
// configuration minimizing the true training iteration time subject to the
// true SLO planning constraint, and places the task on the globally best
// device. This is the only policy permitted to read ground truth; it bounds
// what any multiplexer could achieve.
#ifndef SRC_BASELINES_OPTIMAL_POLICY_H_
#define SRC_BASELINES_OPTIMAL_POLICY_H_

#include <map>
#include <string>

#include "src/cluster/policy.h"
#include "src/common/rng.h"

namespace mudi {

class OptimalPolicy : public MultiplexPolicy {
 public:
  std::string name() const override { return "Optimal"; }
  std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) override;
  void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                        const TrainingTaskInfo& task) override;
  void OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) override;
  void OnQpsChange(SchedulingEnv& env, int device_id) override;
  bool SupportsMemorySwap() const override { return true; }

 private:
  struct BestConfig {
    bool feasible = false;
    int batch = 0;
    double inference_fraction = 0.0;
    double objective = 0.0;
  };

  // True-oracle exhaustive (batch, Δ) search for a device, assuming the
  // candidate training type joins (or type = current mix when joining_type
  // is SIZE_MAX).
  BestConfig SolveDevice(SchedulingEnv& env, int device_id, size_t joining_type) const;
  void ApplyConfig(SchedulingEnv& env, int device_id, const BestConfig& config);

  Rng rng_{29};
  // Placement-time choice, applied in OnTrainingPlaced.
  std::map<int, BestConfig> pending_;
};

}  // namespace mudi

#endif  // SRC_BASELINES_OPTIMAL_POLICY_H_
