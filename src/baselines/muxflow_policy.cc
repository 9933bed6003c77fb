#include "src/baselines/muxflow_policy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "src/baselines/baseline_util.h"
#include "src/common/check.h"
#include "src/perf/perf_collector.h"

namespace mudi {
namespace {

constexpr size_t kProfiledTrainingTypes = ModelZoo::kNumObservedTrainingTypes;
// Production inference batch: fixed by the service owner, MuxFlow does not
// adapt batching.
constexpr int kFixedBatch = 64;
// Safety margin on the planning budget.
constexpr double kSafetyFactor = 1.0;
constexpr std::array<double, 9> kFractionGrid{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

}  // namespace

bool MuxflowPolicy::TableKey::operator<(const TableKey& other) const {
  if (service_index != other.service_index) {
    return service_index < other.service_index;
  }
  if (training_type != other.training_type) {
    return training_type < other.training_type;
  }
  if (batch != other.batch) {
    return batch < other.batch;
  }
  return fraction_pct < other.fraction_pct;
}

MuxflowPolicy::MuxflowPolicy(const PerfOracle& profiling_oracle)
    : profiling_oracle_(profiling_oracle) {}

void MuxflowPolicy::Initialize(SchedulingEnv& env) {
  (void)env;
  if (initialized_) {
    return;
  }
  const auto& services = ModelZoo::InferenceServices();
  const auto& tasks = ModelZoo::TrainingTasks();
  for (size_t s = 0; s < services.size(); ++s) {
    for (size_t t = 0; t < kProfiledTrainingTypes; ++t) {
      for (int b : ProfilingBatchSizes()) {
        for (double g : kFractionGrid) {
          std::vector<ColocatedTraining> colocated{
              ColocatedTraining{&tasks[t], std::max(0.05, 1.0 - g)}};
          double lat =
              profiling_oracle_.ObserveInferenceBatchLatency(services[s], b, g, colocated, rng_)
                  .total_ms();
          latency_table_[TableKey{s, t, b, static_cast<int>(std::lround(g * 100.0))}] = lat;
        }
      }
    }
  }
  initialized_ = true;
}

double MuxflowPolicy::TableLatency(size_t service_index, size_t training_type, int batch,
                                   double fraction) const {
  int pct = static_cast<int>(std::lround(fraction * 100.0));
  if (training_type < kProfiledTrainingTypes) {
    auto it = latency_table_.find(TableKey{service_index, training_type, batch, pct});
    if (it != latency_table_.end()) {
      return it->second;
    }
  }
  // Unseen type: across-type average — MuxFlow's blind spot for new tasks.
  double sum = 0.0;
  size_t count = 0;
  for (size_t t = 0; t < kProfiledTrainingTypes; ++t) {
    auto it = latency_table_.find(TableKey{service_index, t, batch, pct});
    if (it != latency_table_.end()) {
      sum += it->second;
      ++count;
    }
  }
  MUDI_CHECK_GT(count, 0u);
  return sum / static_cast<double>(count);
}

double MuxflowPolicy::MinTableFraction(size_t service_index, size_t training_type, int batch,
                                       double qps, double slo_ms) const {
  for (double g : kFractionGrid) {
    double lat = TableLatency(service_index, training_type, batch, g);
    // Literal Eq. 2 constraint: (W/b)·P <= SLO. Unlike Mudi's quantification
    // (which adds a queue-stability cap, see policy.h), the published
    // MuxFlow has no utilization guard — for long-SLO services this admits
    // queue-unstable allocations, one source of its SLO violations (Fig. 8).
    if (qps <= 0.0 || qps / static_cast<double>(batch) * lat <= slo_ms) {
      return g;
    }
  }
  return -1.0;
}

std::optional<int> MuxflowPolicy::SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) {
  MUDI_CHECK(initialized_);
  std::vector<int> eligible =
      EligibleDevices(env, task, MaxTrainingsPerDevice(), /*require_fit=*/true);
  // Matching score: the SLO-safety margin the table promises for this pair
  // at the default operating point (median batch, current QPS).
  std::optional<int> best;
  double best_margin = -std::numeric_limits<double>::infinity();
  for (int id : eligible) {
    const GpuDevice& device = env.device(id);
    size_t s = device.inference().service_index;
    const InferenceServiceSpec& service = ModelZoo::InferenceServices()[s];
    double qps = env.MeasuredQps(id);
    int batch = ProfilingBatchSizes()[ProfilingBatchSizes().size() / 2];
    double g = MinTableFraction(s, task.type_index, batch, qps, service.slo_ms);
    double margin;
    if (g < 0.0) {
      margin = -1000.0;
    } else {
      double lat = TableLatency(s, task.type_index, batch, g);
      double budget = PlanningLatencyBudgetMs(batch, std::max(qps, 1e-9), service.slo_ms);
      margin = (budget - lat) / budget - 0.5 * g;  // prefer safety, then small g
    }
    if (margin > best_margin) {
      best_margin = margin;
      best = id;
    }
  }
  return best;
}

void MuxflowPolicy::Retune(SchedulingEnv& env, int device_id) {
  perf::PerfRegion region(env.perf(), "muxflow.retune");
  const GpuDevice& device = env.device(device_id);
  size_t s = device.inference().service_index;
  const InferenceServiceSpec& service = ModelZoo::InferenceServices()[s];
  double qps = env.MeasuredQps(device_id);

  // Representative resident type for the lookup (first active training).
  size_t type = kProfiledTrainingTypes;  // sentinel: unseen/none
  for (const auto& t : device.trainings()) {
    if (!t.paused) {
      type = t.type_index;
      break;
    }
  }

  // MuxFlow adjusts the SM allocation only; the serving batch is fixed by
  // the service owner (it has no adaptive-batching loop). The SM share is
  // the smallest tabled fraction meeting the planning budget with the
  // production safety margin.
  int chosen_batch = kFixedBatch;
  double chosen_g = 0.9;
  size_t lookups = 0;
  for (double g : kFractionGrid) {
    ++lookups;
    double lat = TableLatency(s, type, chosen_batch, g);
    // Literal Eq. 2 budget (no stability cap; see MinTableFraction).
    if (lat <= kSafetyFactor * service.slo_ms * static_cast<double>(chosen_batch) /
                   std::max(qps, 1e-9)) {
      chosen_g = g;
      break;
    }
  }
  RecordTuningIterations(lookups);
  env.ApplyInferenceConfig(device_id, chosen_batch, chosen_g);

  size_t active = device.num_active_trainings();
  if (active > 0) {
    double share = std::max(0.05, (1.0 - chosen_g) / static_cast<double>(active));
    for (const auto& t : device.trainings()) {
      if (!t.paused) {
        env.ApplyTrainingFraction(device_id, t.task_id, share);
      }
    }
  }
}

void MuxflowPolicy::OnTrainingPlaced(SchedulingEnv& env, int device_id,
                                     const TrainingTaskInfo& task) {
  (void)task;
  Retune(env, device_id);
}

void MuxflowPolicy::OnQpsChange(SchedulingEnv& env, int device_id) {
  const GpuDevice& device = env.device(device_id);
  const InferenceServiceSpec& service =
      ModelZoo::InferenceServices()[device.inference().service_index];
  // Reactive SM escalation: when the measured tail latency endangers the
  // SLO, MuxFlow grows the online service's SM share directly — the table
  // got it wrong and re-reading it would repeat the mistake.
  if (env.MeasuredP99(device_id) > 0.9 * service.slo_ms) {
    double g = std::min(0.9, device.inference().gpu_fraction + 0.1);
    env.ApplyInferenceConfig(device_id, device.inference().batch_size, g);
    size_t active = device.num_active_trainings();
    if (active > 0) {
      double share = std::max(0.05, (1.0 - g) / static_cast<double>(active));
      for (const auto& t : device.trainings()) {
        if (!t.paused) {
          env.ApplyTrainingFraction(device_id, t.task_id, share);
        }
      }
    }
    return;
  }
  Retune(env, device_id);
}

}  // namespace mudi
