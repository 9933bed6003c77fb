// The multiplexing-policy framework: the contract between the cluster
// experiment harness (src/exp) and the multiplexing systems (Mudi in
// src/core, the baselines in src/baselines).
//
// A SchedulingEnv is the runtime view a deployed system has of the cluster:
// device state, monitor-measured QPS and tail latency, online what-if probes
// (observing a candidate configuration briefly — noisy, like real
// measurements), and configuration actuation. A MultiplexPolicy makes the
// decisions the paper studies: cluster-wide placement of arriving training
// tasks and device-level (batch, GPU%) configuration.
//
// GROUND-TRUTH ACCESS: env.oracle() exposes the noise-free performance
// oracle. Only the Optimal baseline (exhaustive search, §5.4/§7.2) may use
// it; every other policy must rely on probes, monitors, and its own models.
#ifndef SRC_CLUSTER_POLICY_H_
#define SRC_CLUSTER_POLICY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/gpu/gpu_device.h"
#include "src/gpu/perf_oracle.h"
#include "src/sim/simulator.h"
#include "src/workload/models.h"

namespace mudi {

class Telemetry;
namespace perf {
class PerfCollector;
}  // namespace perf
namespace replay {
class DecisionSink;
class PredictionReplay;
}  // namespace replay

// Planning latency budget for one batch (paper Eq. 2 first constraint):
// (W/b)·P <= SLO  ⇔  P <= SLO·b/W. The literal constraint alone permits
// busy-time above one second per second whenever SLO > 1000 ms (YOLOS),
// which is queue-unstable; production planners additionally cap utilization.
// We use budget = min(SLO, kStabilityCapMs)·b/W, keeping 15% headroom.
inline constexpr double kStabilityCapMs = 800.0;

inline double PlanningLatencyBudgetMs(int batch, double qps, double slo_ms) {
  double effective = slo_ms < kStabilityCapMs ? slo_ms : kStabilityCapMs;
  return effective * static_cast<double>(batch) / qps;
}

// What a policy learns about an arriving training task. The spec carries the
// network architecture (extracted by the Training Agent, §4.2); the total
// work is intentionally NOT exposed — production schedulers do not know task
// durations in advance (the SJF queue policy uses user-declared estimates,
// handled by the queue, not here).
struct TrainingTaskInfo {
  int task_id = -1;
  size_t type_index = 0;
  const TrainingTaskSpec* spec = nullptr;
};

// The info for task `task_id` of training type `type_index`.
inline TrainingTaskInfo MakeTaskInfo(int task_id, size_t type_index) {
  return TrainingTaskInfo{task_id, type_index, &ModelZoo::TrainingTasks()[type_index]};
}

class SchedulingEnv {
 public:
  virtual ~SchedulingEnv() = default;

  virtual TimeMs Now() const = 0;

  virtual std::vector<GpuDevice>& devices() = 0;
  virtual const GpuDevice& device(int device_id) const = 0;

  // The inference service hosted on a device (every device hosts exactly one
  // replica in the paper's deployment).
  virtual const InferenceServiceSpec& ServiceOnDevice(int device_id) const = 0;

  // Monitor-measured arrival rate / windowed P99 of the device's service.
  virtual double MeasuredQps(int device_id) = 0;
  virtual double MeasuredP99(int device_id) = 0;

  // What-if probes: the observed (noisy) value if the given configuration
  // ran briefly under the device's *current* co-location. `train_fraction`
  // etc. override only the probed knob; everything else stays as deployed.
  virtual double ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) = 0;
  // `inf_batch` / `inf_fraction` optionally override the deployed inference
  // configuration for the what-if; pass <= 0 to keep the current value.
  virtual double ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                     int inf_batch = 0, double inf_fraction = 0.0) = 0;

  // Configuration actuation. Batch updates take effect immediately (a
  // parameter of the serving loop); GPU% updates go through the
  // shadow-instance restart and take effect after the reconfiguration
  // latency (§5.3.2).
  virtual void ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) = 0;
  virtual void ApplyTrainingFraction(int device_id, int task_id, double fraction) = 0;
  // Preemptively pause/resume a training task (§5.3.2 bursty-QPS fallback).
  virtual void SetTrainingPaused(int device_id, int task_id, bool paused) = 0;

  // True when the task's full working set fits device memory alongside the
  // current residents (no swap needed).
  virtual bool CanFitTraining(int device_id, const TrainingTaskSpec& spec) const = 0;

  // Ground truth — Optimal baseline ONLY (see file comment).
  virtual const PerfOracle& oracle() const = 0;

  // Telemetry sink for decision tracing; null when the harness runs without
  // telemetry. Policies must treat it as observational only.
  virtual Telemetry* telemetry() { return nullptr; }

  // Self-profiling collector (src/perf) for scoped wall-time regions and
  // counters; null when the harness runs unprofiled. Observe-only, like
  // telemetry: a profiled and an unprofiled run must be bit-identical.
  virtual perf::PerfCollector* perf() { return nullptr; }

  // Decision-trace sink (src/cluster/replay_hooks.h, implemented by
  // replay::DecisionRecorder); null when the run is not being recorded.
  // Observe-only, like telemetry and perf: a recorded run must be
  // bit-identical to an unrecorded same-seed run. Policies use it to attach
  // candidate sets/scores to the decision the harness opened.
  virtual replay::DecisionSink* recorder() { return nullptr; }

  // Recorded-observation source (replay_hooks.h, implemented by
  // replay::ReplaySource); non-null only in replay mode. Policies that fit
  // models from offline profiles (Mudi) check it in Initialize to preload
  // recorded curves instead of re-profiling.
  virtual replay::PredictionReplay* replay() { return nullptr; }
};

class MultiplexPolicy {
 public:
  virtual ~MultiplexPolicy() = default;

  virtual std::string name() const = 0;

  // Called once before the run starts (offline profiling happens here).
  virtual void Initialize(SchedulingEnv& env) { (void)env; }

  // Cluster-wide decision: device for an arriving training task, or nullopt
  // to leave it queued until capacity frees up.
  virtual std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) = 0;

  // Device-level decision(s) right after the harness placed the task.
  virtual void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                                const TrainingTaskInfo& task) = 0;

  virtual void OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) {
    (void)env;
    (void)device_id;
    (void)task_id;
  }

  // Monitor trigger: QPS change beyond threshold or SLO at risk (§5.3.2).
  virtual void OnQpsChange(SchedulingEnv& env, int device_id) {
    (void)env;
    (void)device_id;
  }

  // --- failure notifications (fault-injection harness) ---
  // The device died. `displaced` lists the training tasks that were resident
  // there; the harness has already removed them, rolled their progress back
  // to the last checkpoint, and requeued them — the policy only needs to
  // drop any per-device state (cached profiles, pending tuning). The device
  // must not be probed or reconfigured from here. Default: no-op, which is
  // safe for the stateless baselines.
  virtual void OnDeviceFailed(SchedulingEnv& env, int device_id,
                              const std::vector<TrainingTaskInfo>& displaced) {
    (void)env;
    (void)device_id;
    (void)displaced;
  }

  // The device came back after a transient failure: its inference replica
  // was restarted with the initial configuration and its monitor starts
  // fresh (the next QPS observation re-triggers tuning). Default: no-op.
  virtual void OnDeviceRecovered(SchedulingEnv& env, int device_id) {
    (void)env;
    (void)device_id;
  }

  // The scheduler/coordinator process restarted after a crash and just
  // finished reconstructing its view from a KvStore scan (DESIGN.md §13).
  // Device and task state observed through the control plane may have been
  // stale while the scheduler was down, so stateful policies should drop
  // derived caches (fit/tune/interference snapshots) and let the next
  // monitor trigger re-converge. Default: no-op, safe for the stateless
  // baselines.
  virtual void OnControlPlaneRestart(SchedulingEnv& env) { (void)env; }

  // Max co-located training tasks per device (1 for Mudi, 3 for Mudi-more).
  virtual int MaxTrainingsPerDevice() const { return 1; }

  // Whether the harness may overcommit memory and swap training state to the
  // host (Mudi's Memory Manager, §5.6). Policies without swap must only
  // place where CanFitTraining holds.
  virtual bool SupportsMemorySwap() const { return false; }

  // --- overhead accounting (Fig. 18) ---
  const std::vector<double>& placement_overheads_ms() const { return placement_overheads_ms_; }
  const std::vector<size_t>& tuning_iterations() const { return tuning_iterations_; }

 protected:
  void RecordPlacementOverhead(double ms) { placement_overheads_ms_.push_back(ms); }
  void RecordTuningIterations(size_t n) { tuning_iterations_.push_back(n); }

 private:
  std::vector<double> placement_overheads_ms_;
  std::vector<size_t> tuning_iterations_;
};

}  // namespace mudi

#endif  // SRC_CLUSTER_POLICY_H_
