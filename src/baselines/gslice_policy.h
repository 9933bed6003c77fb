// GSLICE baseline (Dhakal et al., SoCC '20; paper §7.1).
//
// GSLICE controls spatial GPU partitions for inference services using
// *latency/throughput feedback*: it probes the deployed configuration,
// grows the partition while the SLO is missed and shrinks it while there is
// comfortable headroom, with a knee-detection-free step controller. Batching
// is chosen by throughput feedback at the current partition. It has no
// cluster-wide interference model — training placement is least-loaded — and
// (per the paper's adaptation) training receives the leftover partition.
#ifndef SRC_BASELINES_GSLICE_POLICY_H_
#define SRC_BASELINES_GSLICE_POLICY_H_

#include <string>

#include "src/cluster/policy.h"

namespace mudi {

class GslicePolicy : public MultiplexPolicy {
 public:
  std::string name() const override { return "GSLICE"; }
  std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) override;
  void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                        const TrainingTaskInfo& task) override;
  void OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) override;
  void OnQpsChange(SchedulingEnv& env, int device_id) override;

 private:
  // Feedback loop: batch by throughput probing, partition by step control.
  void Retune(SchedulingEnv& env, int device_id);
};

}  // namespace mudi

#endif  // SRC_BASELINES_GSLICE_POLICY_H_
