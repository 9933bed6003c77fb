#include "src/baselines/optimal_policy.h"

#include <algorithm>
#include <array>
#include <limits>

#include "src/baselines/baseline_util.h"
#include "src/common/check.h"
#include "src/perf/perf_collector.h"
#include "src/workload/models.h"

namespace mudi {
namespace {

constexpr std::array<double, 17> kFractionGrid{0.10, 0.15, 0.20, 0.25, 0.30, 0.35,
                                               0.40, 0.45, 0.50, 0.55, 0.60, 0.65,
                                               0.70, 0.75, 0.80, 0.85, 0.90};
// Cap on devices fully scanned per placement: on a 1000-GPU cluster a truly
// exhaustive scan is intractable, so beyond the cap a uniform device sample
// is solved (each service type stays represented because replicas are spread
// round-robin).
constexpr size_t kMaxDevicesScanned = 64;

}  // namespace

OptimalPolicy::BestConfig OptimalPolicy::SolveDevice(SchedulingEnv& env, int device_id,
                                                     size_t joining_type) const {
  perf::PerfRegion region(env.perf(), "optimal.solve_device");
  const GpuDevice& device = env.device(device_id);
  MUDI_CHECK(device.has_inference());
  const PerfOracle& oracle = env.oracle();
  const auto& services = ModelZoo::InferenceServices();
  const auto& tasks = ModelZoo::TrainingTasks();
  const InferenceServiceSpec& service = services[device.inference().service_index];
  double qps = env.MeasuredQps(device_id);

  // The training mix after the candidate joins.
  std::vector<size_t> mix;
  for (const auto& t : device.trainings()) {
    if (!t.paused) {
      mix.push_back(t.type_index);
    }
  }
  if (joining_type != SIZE_MAX) {
    mix.push_back(joining_type);
  }

  BestConfig best;
  best.objective = std::numeric_limits<double>::infinity();
  for (int b : ProfilingBatchSizes()) {
    for (double g : kFractionGrid) {
      double train_share =
          mix.empty() ? 0.0 : std::max(0.05, (1.0 - g) / static_cast<double>(mix.size()));
      std::vector<ColocatedTraining> colocated;
      colocated.reserve(mix.size());
      for (size_t type : mix) {
        colocated.push_back(ColocatedTraining{&tasks[type], train_share});
      }
      double latency = oracle.InferenceBatchLatency(service, b, g, colocated).total_ms();
      if (!PlanningSloHolds(latency, b, qps, service.slo_ms)) {
        continue;
      }
      // Objective: total true iteration time of the resident training tasks.
      double objective = 0.0;
      if (mix.empty()) {
        objective = g;  // no training: prefer the smallest feasible share
      } else {
        InferenceLoad load{&service, b, g, qps};
        for (size_t i = 0; i < mix.size(); ++i) {
          std::vector<ColocatedTraining> others;
          for (size_t j = 0; j < mix.size(); ++j) {
            if (j != i) {
              others.push_back(colocated[j]);
            }
          }
          objective += oracle.TrainingIterationMs(tasks[mix[i]], train_share, load, others);
        }
      }
      if (objective < best.objective) {
        best.feasible = true;
        best.batch = b;
        best.inference_fraction = g;
        best.objective = objective;
      }
    }
  }
  return best;
}

void OptimalPolicy::ApplyConfig(SchedulingEnv& env, int device_id, const BestConfig& config) {
  if (!config.feasible) {
    // Even the exhaustive search cannot hold the SLO with multiplexing:
    // preempt training and give the service the whole grid maximum.
    const GpuDevice& device = env.device(device_id);
    for (const auto& t : device.trainings()) {
      env.SetTrainingPaused(device_id, t.task_id, true);
    }
    env.ApplyInferenceConfig(device_id, ProfilingBatchSizes().front(), kFractionGrid.back());
    return;
  }
  const GpuDevice& device = env.device(device_id);
  for (const auto& t : device.trainings()) {
    if (t.paused) {
      env.SetTrainingPaused(device_id, t.task_id, false);
    }
  }
  env.ApplyInferenceConfig(device_id, config.batch, config.inference_fraction);
  size_t active = device.num_active_trainings();
  if (active > 0) {
    double share =
        std::max(0.05, (1.0 - config.inference_fraction) / static_cast<double>(active));
    for (const auto& t : device.trainings()) {
      if (!t.paused) {
        env.ApplyTrainingFraction(device_id, t.task_id, share);
      }
    }
  }
}

std::optional<int> OptimalPolicy::SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) {
  std::vector<int> eligible =
      EligibleDevices(env, task, MaxTrainingsPerDevice(), /*require_fit=*/false);
  if (eligible.size() > kMaxDevicesScanned) {
    rng_.Shuffle(eligible);
    eligible.resize(kMaxDevicesScanned);
  }
  std::optional<int> best_device;
  BestConfig best;
  best.objective = std::numeric_limits<double>::infinity();
  for (int id : eligible) {
    BestConfig config = SolveDevice(env, id, task.type_index);
    if (config.feasible && config.objective < best.objective) {
      best = config;
      best_device = id;
    }
  }
  if (best_device.has_value()) {
    pending_[task.task_id] = best;
  }
  return best_device;
}

void OptimalPolicy::OnTrainingPlaced(SchedulingEnv& env, int device_id,
                                     const TrainingTaskInfo& task) {
  auto it = pending_.find(task.task_id);
  if (it != pending_.end()) {
    ApplyConfig(env, device_id, it->second);
    pending_.erase(it);
  } else {
    ApplyConfig(env, device_id, SolveDevice(env, device_id, SIZE_MAX));
  }
}

void OptimalPolicy::OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) {
  (void)task_id;
  ApplyConfig(env, device_id, SolveDevice(env, device_id, SIZE_MAX));
}

void OptimalPolicy::OnQpsChange(SchedulingEnv& env, int device_id) {
  ApplyConfig(env, device_id, SolveDevice(env, device_id, SIZE_MAX));
}

}  // namespace mudi
