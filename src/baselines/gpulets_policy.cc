#include "src/baselines/gpulets_policy.h"

#include <algorithm>
#include <array>
#include <limits>

#include "src/baselines/baseline_util.h"
#include "src/perf/perf_collector.h"
#include "src/workload/models.h"

namespace mudi {
namespace {

// The gpulet size menu (fractions of a GPU).
constexpr std::array<double, 5> kSliceMenu{0.2, 0.4, 0.6, 0.8, 1.0};
// Minimum residual slice worth giving to training.
constexpr double kMinTrainingSlice = 0.2;

}  // namespace

std::pair<int, double> GpuletsPolicy::FitInferenceSlice(SchedulingEnv& env, int device_id,
                                                        size_t* probes) {
  const GpuDevice& device = env.device(device_id);
  const InferenceServiceSpec& service =
      ModelZoo::InferenceServices()[device.inference().service_index];
  double qps = env.MeasuredQps(device_id);
  const auto& batches = ProfilingBatchSizes();

  // Smallest slice first; within a slice prefer larger batches (throughput).
  for (double slice : kSliceMenu) {
    double usable = std::min(slice, 0.9);
    for (auto it = batches.rbegin(); it != batches.rend(); ++it) {
      ++*probes;
      double lat = env.ProbeInferenceLatencyMs(device_id, *it, usable);
      if (PlanningSloHolds(lat, *it, qps, service.slo_ms)) {
        return {*it, usable};
      }
    }
  }
  // Nothing fits: fall back to the biggest slice and smallest batch.
  return {batches.front(), std::min(kSliceMenu.back(), 0.9)};
}

void GpuletsPolicy::Retune(SchedulingEnv& env, int device_id) {
  perf::PerfRegion region(env.perf(), "gpulets.retune");
  size_t probes = 0;
  auto [batch, slice] = FitInferenceSlice(env, device_id, &probes);
  RecordTuningIterations(probes);
  env.ApplyInferenceConfig(device_id, batch, slice);

  const GpuDevice& device = env.device(device_id);
  size_t active = device.num_active_trainings();
  if (active > 0) {
    double residual = std::max(kMinTrainingSlice, 1.0 - slice);
    double share = std::max(0.05, residual / static_cast<double>(active));
    for (const auto& t : device.trainings()) {
      if (!t.paused) {
        env.ApplyTrainingFraction(device_id, t.task_id, share);
      }
    }
  }
}

std::optional<int> GpuletsPolicy::SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) {
  // Best-fit: the device whose residual slice after the inference gpulet is
  // smallest but still above the training minimum.
  std::vector<int> eligible =
      EligibleDevices(env, task, MaxTrainingsPerDevice(), /*require_fit=*/true);
  std::optional<int> best;
  double best_residual = std::numeric_limits<double>::infinity();
  for (int id : eligible) {
    const GpuDevice& device = env.device(id);
    double inf_slice = device.inference().gpu_fraction;
    double used_by_training = 0.0;
    for (const auto& t : device.trainings()) {
      used_by_training += t.gpu_fraction;
    }
    double residual = 1.0 - inf_slice - used_by_training;
    if (residual < kMinTrainingSlice) {
      continue;
    }
    if (residual < best_residual) {
      best_residual = residual;
      best = id;
    }
  }
  if (!best.has_value() && !eligible.empty()) {
    best = eligible.front();
  }
  return best;
}

void GpuletsPolicy::OnTrainingPlaced(SchedulingEnv& env, int device_id,
                                     const TrainingTaskInfo& task) {
  (void)task;
  Retune(env, device_id);
}

void GpuletsPolicy::OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) {
  (void)task_id;
  Retune(env, device_id);
}

void GpuletsPolicy::OnQpsChange(SchedulingEnv& env, int device_id) {
  // gpulets assigns virtual-GPU partitions at (re)scheduling points; it has
  // no request-rate-driven repartitioning loop, so load drift between
  // scheduling events goes unanswered (a key gap vs Mudi's Tuner).
  (void)env;
  (void)device_id;
}

}  // namespace mudi
