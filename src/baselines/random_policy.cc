#include "src/baselines/random_policy.h"

#include <algorithm>

#include "src/baselines/baseline_util.h"
#include "src/perf/perf_collector.h"

namespace mudi {
namespace {

constexpr int kDefaultBatch = 64;

}  // namespace

std::optional<int> RandomPolicy::SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) {
  std::vector<int> eligible =
      EligibleDevices(env, task, MaxTrainingsPerDevice(), /*require_fit=*/true);
  if (eligible.empty()) {
    return std::nullopt;
  }
  return eligible[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
}

void RandomPolicy::EvenSplit(SchedulingEnv& env, int device_id) {
  perf::PerfRegion region(env.perf(), "random.even_split");
  const GpuDevice& device = env.device(device_id);
  size_t workloads = 1 + device.num_active_trainings();
  double share = 1.0 / static_cast<double>(workloads);
  env.ApplyInferenceConfig(device_id, kDefaultBatch, std::min(share, 0.9));
  for (const auto& t : device.trainings()) {
    if (!t.paused) {
      env.ApplyTrainingFraction(device_id, t.task_id, share);
    }
  }
}

void RandomPolicy::OnTrainingPlaced(SchedulingEnv& env, int device_id,
                                    const TrainingTaskInfo& task) {
  (void)task;
  EvenSplit(env, device_id);
}

void RandomPolicy::OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) {
  (void)task_id;
  EvenSplit(env, device_id);
}

}  // namespace mudi
