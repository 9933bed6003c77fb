// gpulets baseline (Choi et al., ATC '22; paper §7.1).
//
// gpulets virtualizes each GPU into discrete partitions ("gpulets") from a
// fixed size menu. The inference service is assigned the *smallest* gpulet
// whose probed latency meets the SLO at a feasibility-chosen batch; the
// training task is bin-packed into the residual gpulet of the device where
// it fits most tightly (best-fit decreasing). There is no architecture-based
// interference prediction and no memory overcommit.
#ifndef SRC_BASELINES_GPULETS_POLICY_H_
#define SRC_BASELINES_GPULETS_POLICY_H_

#include <string>
#include <utility>

#include "src/cluster/policy.h"

namespace mudi {

class GpuletsPolicy : public MultiplexPolicy {
 public:
  std::string name() const override { return "gpulets"; }
  std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) override;
  void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                        const TrainingTaskInfo& task) override;
  void OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) override;
  void OnQpsChange(SchedulingEnv& env, int device_id) override;

 private:
  // Smallest slice + batch meeting the SLO by probing; returns (batch, slice).
  std::pair<int, double> FitInferenceSlice(SchedulingEnv& env, int device_id, size_t* probes);
  void Retune(SchedulingEnv& env, int device_id);
};

}  // namespace mudi

#endif  // SRC_BASELINES_GPULETS_POLICY_H_
