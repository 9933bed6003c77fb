#include "src/baselines/gslice_policy.h"

#include <algorithm>
#include <limits>

#include "src/baselines/baseline_util.h"
#include "src/common/check.h"
#include "src/perf/perf_collector.h"
#include "src/workload/models.h"

namespace mudi {
namespace {

constexpr double kInitialFraction = 0.5;
constexpr double kStep = 0.1;
constexpr double kMinFraction = 0.1;
constexpr double kMaxFraction = 0.9;
// Shrink while this headroom factor of the SLO budget is available.
constexpr double kShrinkHeadroom = 0.68;
// Feedback steps applied per trigger: GSLICE adjusts incrementally between
// measurement windows rather than converging in one shot.
constexpr int kMaxFeedbackRounds = 3;

}  // namespace

std::optional<int> GslicePolicy::SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) {
  // No interference model: least-loaded device (fewest resident trainings,
  // then lowest memory pressure).
  std::vector<int> eligible =
      EligibleDevices(env, task, MaxTrainingsPerDevice(), /*require_fit=*/true);
  std::optional<int> best;
  double best_key = std::numeric_limits<double>::infinity();
  for (int id : eligible) {
    const GpuDevice& device = env.device(id);
    double key = static_cast<double>(device.trainings().size()) * 1000.0 +
                 device.MemoryResidentMb() / device.memory_mb();
    if (key < best_key) {
      best_key = key;
      best = id;
    }
  }
  return best;
}

void GslicePolicy::Retune(SchedulingEnv& env, int device_id) {
  perf::PerfRegion region(env.perf(), "gslice.retune");
  const GpuDevice& device = env.device(device_id);
  MUDI_CHECK(device.has_inference());
  const InferenceServiceSpec& service =
      ModelZoo::InferenceServices()[device.inference().service_index];
  double qps = env.MeasuredQps(device_id);

  // Batch selection by throughput feedback at the current partition: probe
  // each candidate once, keep the largest batch whose probed latency
  // satisfies the planning SLO.
  double fraction =
      device.inference().gpu_fraction > 0.0 ? device.inference().gpu_fraction : kInitialFraction;
  const auto& batches = ProfilingBatchSizes();
  int batch = batches.front();
  size_t rounds = 0;
  for (auto it = batches.rbegin(); it != batches.rend(); ++it) {
    ++rounds;
    double lat = env.ProbeInferenceLatencyMs(device_id, *it, fraction);
    if (PlanningSloHolds(lat, *it, qps, service.slo_ms)) {
      batch = *it;
      break;
    }
  }

  // Partition step-control feedback: grow while violating, shrink while the
  // probed latency leaves ample headroom.
  for (int round = 0; round < kMaxFeedbackRounds; ++round) {
    ++rounds;
    double lat = env.ProbeInferenceLatencyMs(device_id, batch, fraction);
    double budget = PlanningLatencyBudgetMs(batch, std::max(qps, 1e-9), service.slo_ms);
    if (lat > budget && fraction < kMaxFraction) {
      fraction = std::min(kMaxFraction, fraction + kStep);
    } else if (lat < kShrinkHeadroom * budget && fraction > kMinFraction + kStep) {
      fraction -= kStep;
    } else {
      break;
    }
  }
  RecordTuningIterations(rounds);

  env.ApplyInferenceConfig(device_id, batch, fraction);
  size_t active = device.num_active_trainings();
  if (active > 0) {
    double share = std::max(0.05, (1.0 - fraction) / static_cast<double>(active));
    for (const auto& t : device.trainings()) {
      if (!t.paused) {
        env.ApplyTrainingFraction(device_id, t.task_id, share);
      }
    }
  }
}

void GslicePolicy::OnTrainingPlaced(SchedulingEnv& env, int device_id,
                                    const TrainingTaskInfo& task) {
  (void)task;
  Retune(env, device_id);
}

void GslicePolicy::OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) {
  (void)task_id;
  Retune(env, device_id);
}

void GslicePolicy::OnQpsChange(SchedulingEnv& env, int device_id) { Retune(env, device_id); }

}  // namespace mudi
