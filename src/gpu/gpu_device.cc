#include "src/gpu/gpu_device.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

namespace {
// CUDA context + framework runtime overhead per resident process.
constexpr double kRuntimeOverheadMb = 500.0;
}  // namespace

double InferenceMemoryMb(const InferenceServiceSpec& spec, int batch_size) {
  MUDI_CHECK_GT(batch_size, 0);
  return spec.weights_mb + spec.activation_mb_per_sample * static_cast<double>(batch_size) +
         kRuntimeOverheadMb;
}

double TrainingMemoryMb(const TrainingTaskSpec& spec) {
  return spec.weights_mb * spec.optimizer_state_factor + spec.activation_mb +
         kRuntimeOverheadMb;
}

double SwapSlowdownFactor(const TrainingInstance& training) {
  if (training.mem_required_mb <= 0.0) {
    return 1.0;
  }
  double swapped_frac = training.mem_swapped_mb / training.mem_required_mb;
  // Paged UM access: up to ~2.5x slower when most state lives on the host.
  return 1.0 + 1.5 * swapped_frac;
}

GpuDevice::GpuDevice(int id, double memory_mb, double compute_scale)
    : id_(id), memory_mb_(memory_mb), compute_scale_(compute_scale) {
  MUDI_CHECK_GT(memory_mb, 0.0);
  MUDI_CHECK_GT(compute_scale, 0.0);
  MUDI_CHECK_LE(compute_scale, 1.0);
}

void GpuDevice::PlaceInference(InferenceInstance instance) {
  MUDI_CHECK(!inference_.has_value());
  MUDI_CHECK_GT(instance.gpu_fraction, 0.0);
  MUDI_CHECK_LE(instance.gpu_fraction, 1.0);
  inference_ = std::move(instance);
}

void GpuDevice::RemoveInference() {
  MUDI_CHECK(inference_.has_value());
  inference_.reset();
}

void GpuDevice::SetTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr || !telemetry->enabled()) {
    added_counter_ = nullptr;
    removed_counter_ = nullptr;
    overcommit_counter_ = nullptr;
    active_trainings_gauge_ = nullptr;
    return;
  }
  auto& metrics = telemetry->metrics();
  added_counter_ = &metrics.GetCounter("device.trainings_added");
  removed_counter_ = &metrics.GetCounter("device.trainings_removed");
  overcommit_counter_ = &metrics.GetCounter("device.overcommit_admissions");
  active_trainings_gauge_ = &metrics.GetGauge("device.active_trainings");
}

void GpuDevice::AddTraining(TrainingInstance instance) {
  MUDI_CHECK(FindTraining(instance.task_id) == nullptr);
  MUDI_CHECK_GE(instance.gpu_fraction, 0.0);
  trainings_.push_back(std::move(instance));
  if (added_counter_ != nullptr) {
    added_counter_->Increment();
    active_trainings_gauge_->Add(1.0);
    if (MemoryRequiredMb() > memory_mb_) {
      overcommit_counter_->Increment();
    }
  }
}

TrainingInstance GpuDevice::RemoveTraining(int task_id) {
  std::optional<TrainingInstance> out = TryRemoveTraining(task_id);
  MUDI_CHECK(out.has_value());
  return *std::move(out);
}

std::optional<TrainingInstance> GpuDevice::TryRemoveTraining(int task_id) {
  for (size_t i = 0; i < trainings_.size(); ++i) {
    if (trainings_[i].task_id == task_id) {
      TrainingInstance out = std::move(trainings_[i]);
      trainings_.erase(trainings_.begin() + static_cast<long>(i));
      if (removed_counter_ != nullptr) {
        removed_counter_->Increment();
        active_trainings_gauge_->Add(-1.0);
      }
      return out;
    }
  }
  return std::nullopt;
}

void GpuDevice::SetSlowdown(double slowdown) {
  MUDI_CHECK_GE(slowdown, 1.0);
  slowdown_ = slowdown;
}

TrainingInstance* GpuDevice::FindTraining(int task_id) {
  for (auto& t : trainings_) {
    if (t.task_id == task_id) {
      return &t;
    }
  }
  return nullptr;
}

const TrainingInstance* GpuDevice::FindTraining(int task_id) const {
  return const_cast<GpuDevice*>(this)->FindTraining(task_id);
}

size_t GpuDevice::num_active_trainings() const {
  size_t n = 0;
  for (const auto& t : trainings_) {
    if (!t.paused) {
      ++n;
    }
  }
  return n;
}

double GpuDevice::MemoryResidentMb() const {
  double total = 0.0;
  if (inference_.has_value()) {
    total += inference_->mem_required_mb;
  }
  for (const auto& t : trainings_) {
    total += t.mem_resident_mb();
  }
  return total;
}

double GpuDevice::MemoryRequiredMb() const {
  double total = 0.0;
  if (inference_.has_value()) {
    total += inference_->mem_required_mb;
  }
  for (const auto& t : trainings_) {
    total += t.mem_required_mb;
  }
  return total;
}

void GpuDevice::AccumulateUsage(double duration_ms, double sm_util, double mem_util) {
  sm_accum_.Add(sm_util, duration_ms);
  mem_accum_.Add(mem_util, duration_ms);
}

double GpuDevice::InstantMemUtil() const {
  return std::clamp(MemoryResidentMb() / memory_mb_, 0.0, 1.0);
}

std::vector<GpuDevice> MakeMigInstances(int first_id, int num_instances,
                                        double total_memory_mb) {
  MUDI_CHECK_GT(num_instances, 0);
  std::vector<GpuDevice> instances;
  instances.reserve(static_cast<size_t>(num_instances));
  double share = 1.0 / static_cast<double>(num_instances);
  for (int i = 0; i < num_instances; ++i) {
    instances.emplace_back(first_id + i, total_memory_mb * share, share);
  }
  return instances;
}

}  // namespace mudi
