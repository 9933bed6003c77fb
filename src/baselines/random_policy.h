// Random baseline (paper §7.4, Fig. 17): uniform-random placement among
// eligible devices and an even split of the GPU among all co-located
// workloads — no interference awareness, no tuning.
#ifndef SRC_BASELINES_RANDOM_POLICY_H_
#define SRC_BASELINES_RANDOM_POLICY_H_

#include <string>

#include "src/cluster/policy.h"
#include "src/common/rng.h"

namespace mudi {

class RandomPolicy : public MultiplexPolicy {
 public:
  std::string name() const override { return "Random"; }
  std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) override;
  void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                        const TrainingTaskInfo& task) override;
  void OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) override;

 private:
  void EvenSplit(SchedulingEnv& env, int device_id);

  Rng rng_{23};
};

}  // namespace mudi

#endif  // SRC_BASELINES_RANDOM_POLICY_H_
