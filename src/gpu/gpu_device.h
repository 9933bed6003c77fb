// GPU device model: spatial-sharing (MPS) bookkeeping for one physical GPU
// or one MIG instance. Tracks the resident inference instance (at most one
// per device, per Mudi's design), co-located training instances, memory
// accounting with host-swap state, and utilization accumulators.
//
// The device is deliberately passive: the serving simulator and the
// schedulers mutate it and query the PerfOracle for timing; the device only
// enforces structural invariants (share bounds, memory bookkeeping).
#ifndef SRC_GPU_GPU_DEVICE_H_
#define SRC_GPU_GPU_DEVICE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/sim/simulator.h"
#include "src/workload/models.h"

namespace mudi {

class Telemetry;
namespace telemetry {
class Counter;
class Gauge;
}  // namespace telemetry

// A training task resident on a device.
struct TrainingInstance {
  int task_id = -1;
  size_t type_index = 0;               // into ModelZoo::TrainingTasks()
  double gpu_fraction = 0.0;           // MPS active-thread share
  double work_remaining_ms = 0.0;      // full-GPU ms of compute left
  double mem_required_mb = 0.0;        // full working-set footprint
  double mem_swapped_mb = 0.0;         // portion currently on the host
  TimeMs admitted_at_ms = 0.0;
  bool paused = false;                 // preempted during bursty QPS (§5.3.2)

  double mem_resident_mb() const { return mem_required_mb - mem_swapped_mb; }
};

// The (single) inference service instance resident on a device.
struct InferenceInstance {
  size_t service_index = 0;  // into ModelZoo::InferenceServices()
  int batch_size = 0;
  double gpu_fraction = 0.0;
  double mem_required_mb = 0.0;
};

// Memory footprint helpers (weights + optimizer state / activations + a
// fixed CUDA-context overhead).
double InferenceMemoryMb(const InferenceServiceSpec& spec, int batch_size);
double TrainingMemoryMb(const TrainingTaskSpec& spec);

// Iteration-time slowdown factor (>= 1) for a training instance given its
// current swap state: paged access over UM stalls compute. Lives here (not
// in the Memory Manager) because it is a pure function of the instance that
// both the live harness and the decision-trace replay environments apply.
double SwapSlowdownFactor(const TrainingInstance& training);

class GpuDevice {
 public:
  GpuDevice(int id, double memory_mb = ModelZoo::kGpuMemoryMb, double compute_scale = 1.0);

  int id() const { return id_; }
  double memory_mb() const { return memory_mb_; }
  // MIG instances have compute_scale < 1: oracle times divide by this.
  double compute_scale() const { return compute_scale_; }

  // --- fault state (driven by the fault-injection harness) ---
  // An unhealthy device serves nothing and accepts no placements; schedulers
  // must skip it. Health is a harness-level flag: the device keeps its
  // structural state so recovery can restart the replica in place.
  bool healthy() const { return healthy_; }
  void SetHealthy(bool healthy) { healthy_ = healthy; }
  // Straggler latency multiplier (>= 1): every oracle time on this device is
  // inflated by this factor. 1.0 = nominal speed.
  double slowdown() const { return slowdown_; }
  void SetSlowdown(double slowdown);
  // compute_scale adjusted for the active straggler episode; oracle times
  // divide by this instead of compute_scale() in latency computations.
  double EffectiveComputeScale() const { return compute_scale_ / slowdown_; }

  // --- inference instance (at most one) ---
  bool has_inference() const { return inference_.has_value(); }
  const InferenceInstance& inference() const {
    MUDI_CHECK(inference_.has_value());
    return *inference_;
  }
  InferenceInstance& mutable_inference() {
    MUDI_CHECK(inference_.has_value());
    return *inference_;
  }
  void PlaceInference(InferenceInstance instance);
  void RemoveInference();

  // --- training instances ---
  const std::vector<TrainingInstance>& trainings() const { return trainings_; }
  std::vector<TrainingInstance>& mutable_trainings() { return trainings_; }
  void AddTraining(TrainingInstance instance);
  // Removes by task id; returns the removed instance.
  TrainingInstance RemoveTraining(int task_id);
  // Like RemoveTraining but tolerates a missing task (recovery paths race
  // with completion): returns nullopt instead of aborting.
  std::optional<TrainingInstance> TryRemoveTraining(int task_id);
  TrainingInstance* FindTraining(int task_id);
  const TrainingInstance* FindTraining(int task_id) const;
  size_t num_active_trainings() const;

  // --- memory accounting ---
  // Device-resident memory right now (respects swap state).
  double MemoryResidentMb() const;
  // Total requirement if everything were device-resident.
  double MemoryRequiredMb() const;
  double MemoryFreeMb() const { return memory_mb_ - MemoryResidentMb(); }
  // MB that must be swapped out (deficit) to fit; <= 0 when everything fits.
  double MemoryDeficitMb() const { return MemoryResidentMb() - memory_mb_; }
  // True when the task's full working set fits alongside the current
  // residents without swap (SchedulingEnv::CanFitTraining).
  bool FitsTraining(const TrainingTaskSpec& spec) const {
    return MemoryRequiredMb() + TrainingMemoryMb(spec) <= memory_mb_;
  }

  // --- utilization accounting (Fig. 10) ---
  void AccumulateUsage(double duration_ms, double sm_util, double mem_util);
  double AverageSmUtil() const { return sm_accum_.value(); }
  double AverageMemUtil() const { return mem_accum_.value(); }

  // Instantaneous memory utilization in [0, 1].
  double InstantMemUtil() const;

  // Cluster-wide training-residency metrics ("device.trainings_added",
  // "device.trainings_removed", gauge "device.active_trainings",
  // "device.overcommit_admissions"). Observational only; survives copies.
  void SetTelemetry(Telemetry* telemetry);

 private:
  int id_;
  double memory_mb_;
  double compute_scale_;
  bool healthy_ = true;
  double slowdown_ = 1.0;
  std::optional<InferenceInstance> inference_;
  std::vector<TrainingInstance> trainings_;
  TimeWeightedMean sm_accum_;
  TimeWeightedMean mem_accum_;
  telemetry::Counter* added_counter_ = nullptr;
  telemetry::Counter* removed_counter_ = nullptr;
  telemetry::Counter* overcommit_counter_ = nullptr;
  telemetry::Gauge* active_trainings_gauge_ = nullptr;
};

// Splits one physical GPU into `num_instances` MIG-style instances, each
// with proportional memory and compute. Ids are assigned sequentially
// starting at `first_id`.
std::vector<GpuDevice> MakeMigInstances(int first_id, int num_instances,
                                        double total_memory_mb = ModelZoo::kGpuMemoryMb);

}  // namespace mudi

#endif  // SRC_GPU_GPU_DEVICE_H_
