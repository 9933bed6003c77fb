// End-to-end cluster experiment: a discrete-event simulation of inference
// serving (request cohorts, batching, SLO windows) multiplexed with training
// tasks on a GPU cluster, driven by a pluggable MultiplexPolicy.
//
// This is the runtime counterpart of the paper's testbeds: every device
// hosts one inference-service replica (service s on device d where
// d % num_services == s) receiving its own Poisson/fluctuating request
// stream; training tasks arrive per the trace, wait in the scheduling queue,
// are placed by the policy, and progress at a speed set by the ground-truth
// oracle under the current co-location and configuration. The Memory
// Manager resolves device-memory overcommit by host swap for swap-capable
// policies.
#ifndef SRC_EXP_CLUSTER_EXPERIMENT_H_
#define SRC_EXP_CLUSTER_EXPERIMENT_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/cluster/kv_store.h"
#include "src/cluster/policy.h"
#include "src/cluster/task_queue.h"
#include "src/common/rng.h"
#include "src/core/memory_manager.h"
#include "src/exp/control_plane.h"
#include "src/exp/metrics.h"
#include "src/exp/serving_plane.h"
#include "src/fault/control_fault_plan.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/gpu/perf_oracle.h"
#include "src/perf/perf_collector.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/probe.h"
#include "src/replay/replay_source.h"
#include "src/sim/retry.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/request_generator.h"
#include "src/workload/training_trace.h"

namespace mudi {

struct ExperimentOptions {
  int num_nodes = 3;
  int gpus_per_node = 4;
  size_t num_services = 6;
  // Rotates the device->service mapping: device d hosts service
  // (d % num_services + service_offset) % 6. With num_services=1 this pins
  // every device to one chosen service (single-service benches).
  size_t service_offset = 0;

  // Request-rate profile per (service_index, device_id); default constant
  // 200 QPS per replica (paper: mean inter-arrival 5 ms).
  std::function<std::shared_ptr<const QpsProfile>(size_t, int)> qps_factory;

  // Training workload: explicit trace wins over generated options.
  TrainingTraceOptions trace;
  std::vector<TrainingArrival> trace_override;

  QueuePolicy queue_policy = QueuePolicy::kFcfs;

  // 0 = run until all training tasks complete; otherwise hard stop.
  TimeMs horizon_ms = 0.0;
  // Liveness backstop for horizon_ms == 0: stop anyway after this much
  // virtual time (sustained-overload scenarios can leave training paused
  // indefinitely — §5.3.2's "until suitable resources become available").
  TimeMs max_sim_ms = 4.0 * kMsPerHour;
  // Extra time simulated after the last completion (lets SLO windows close).
  TimeMs drain_ms = 5.0 * kMsPerSecond;

  TimeMs monitor_period_ms = 2.0 * kMsPerSecond;
  // Forced per-device re-tune period: the 50% QPS-change threshold is an
  // edge trigger and can latch a transient rate (e.g. mid-burst decay);
  // periodic reconciliation bounds how long a stale config can persist.
  TimeMs periodic_retune_ms = 30.0 * kMsPerSecond;
  TimeMs slo_window_ms = 10.0 * kMsPerSecond;
  TimeMs util_sample_ms = 1.0 * kMsPerSecond;
  // Shadow-instance switchover for GPU% reconfiguration (§5.3.2).
  TimeMs reconfig_latency_ms = 1.5 * kMsPerSecond;

  // Arrival-cohort tick: 0 = auto (SLO/15 clamped to [5, 100] ms).
  TimeMs arrival_tick_ms = 0.0;

  // Deterministic fault schedule, armed when Run() starts. An empty plan
  // schedules nothing and leaves the run byte-identical to one without any
  // fault machinery.
  FaultPlan fault_plan;
  // Periodic training-checkpoint interval: a task displaced by a device
  // failure resumes from its last checkpoint (progress since then is lost).
  TimeMs checkpoint_period_ms = 60.0 * kMsPerSecond;

  // Control-plane fault schedule (degraded KvStore watches/reads, partition
  // windows, watch loss, scheduler crashes), armed when Run() starts. While
  // the plan is non-empty the scheduler's inference configs travel through
  // the registry (Put + watch) instead of being applied directly, and its
  // reads route through CtrlGet/CtrlList + retry. An empty plan adds zero
  // events and zero registry traffic: the run stays byte-identical to one
  // without any control-fault machinery (ctrl_fault_test pins this).
  ControlFaultPlan ctrl_fault_plan;
  // Scheduler state-checkpoint period while the control fault domain is
  // active: the coordinator heartbeats its epoch into the registry so the
  // recovery scan can tell how stale its view is.
  TimeMs ctrl_checkpoint_period_ms = 10.0 * kMsPerSecond;
  // Backoff discipline for control-plane reads and watch re-establishment.
  RetryPolicy ctrl_retry;

  bool record_util_series = false;
  // Device id to trace for Fig. 16 (-1 = none).
  int trace_device_id = -1;

  uint64_t seed = 5;
  uint64_t oracle_seed = 42;

  // Telemetry sinks (off by default; env vars like MUDI_TRACE_FILE override —
  // see TelemetryOptions::ApplyEnvOverrides, applied in the constructor).
  TelemetryOptions telemetry;

  // Self-profiling collector (src/perf), not owned; null = run unprofiled.
  // Observe-only: attaching a collector must leave results bit-identical
  // (determinism_test pins this). The harness records scoped regions around
  // every policy decision ("policy.select_device", "policy.on_placed",
  // "policy.on_qps_change", "policy.initialize") and exports the simulator's
  // event totals at the end of Run().
  perf::PerfCollector* perf = nullptr;

  // Decision-trace recorder (src/replay), not owned; null = no recording.
  // Observe-only like perf: a recorded run must be bit-identical to an
  // unrecorded same-seed run (determinism_test pins this too). The harness
  // opens one decision scope per policy hook and streams every probe
  // observation and feedback read into it.
  replay::DecisionRecorder* recorder = nullptr;
  // Recorded-observation source (src/replay), not owned; non-null switches
  // the run to fidelity replay: probes and predictions are served from the
  // trace instead of the oracle, and Mudi's Initialize preloads recorded
  // curves instead of profiling.
  replay::ReplaySource* replay = nullptr;
};

// Composes the planes: ServingPlane runs every replica's serving loop,
// ControlPlane (only with a control fault plan) carries configs through the
// registry. The experiment itself keeps the training path — queue,
// placement, progress, checkpoints — because every training event ends in a
// policy hook, and it implements SchedulingEnv and the device-fault sink.
class ClusterExperiment : public SchedulingEnv,
                          public FaultSink,
                          private ServingPlane::Listener,
                          private ControlPlane::Listener {
 public:
  ClusterExperiment(ExperimentOptions options, MultiplexPolicy* policy);
  ~ClusterExperiment() override;

  // Runs the full experiment and returns the metrics.
  ExperimentResult Run();

  // --- SchedulingEnv ---
  TimeMs Now() const override;
  std::vector<GpuDevice>& devices() override;
  const GpuDevice& device(int device_id) const override;
  const InferenceServiceSpec& ServiceOnDevice(int device_id) const override;
  double MeasuredQps(int device_id) override;
  double MeasuredP99(int device_id) override;
  double ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) override;
  double ProbeTrainingIterMs(int device_id, int task_id, double train_fraction, int inf_batch,
                             double inf_fraction) override;
  void ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) override;
  void ApplyTrainingFraction(int device_id, int task_id, double fraction) override;
  void SetTrainingPaused(int device_id, int task_id, bool paused) override;
  bool CanFitTraining(int device_id, const TrainingTaskSpec& spec) const override;
  const PerfOracle& oracle() const override { return oracle_; }
  Telemetry* telemetry() override { return telemetry_.enabled() ? &telemetry_ : nullptr; }
  perf::PerfCollector* perf() override {
    return options_.perf != nullptr && options_.perf->enabled() ? options_.perf : nullptr;
  }
  replay::DecisionRecorder* recorder() override { return options_.recorder; }
  replay::ReplaySource* replay() override { return options_.replay; }

  // Total virtual time reached by the run (>= makespan; includes drain).
  // Bench_throughput divides this by wall time for sim-sec/wall-sec.
  TimeMs SimNowMs() const { return sim_.Now(); }

  const Telemetry& telemetry_sink() const { return telemetry_; }
  // Device registry (etcd-style): "/devices/<d>/status" plus one
  // "/devices/<d>/tasks/<task_id>" entry per resident training. A failed
  // device's subtree is deleted, so readers must handle missing keys.
  const KvStore& registry() const { return registry_; }

  // --- FaultSink (driven by the FaultInjector) ---
  void OnDeviceDown(int device_id, bool permanent, TimeMs now) override;
  void OnDeviceUp(int device_id, TimeMs now) override;
  void OnStragglerFactor(int device_id, double factor, TimeMs now) override;
  void OnFeedbackLost(int device_id, TimeMs now) override;
  void OnFeedbackRestored(int device_id, TimeMs now) override;

 private:
  class HookScope;

  struct RunningTask {
    int device_id = -1;
    double speed = 0.0;  // full-GPU work ms per wall ms
    TimeMs last_sync_ms = 0.0;
    Simulator::EventId completion_event = Simulator::kInvalidEventId;
    // Periodic-checkpoint state: the exact work level at the last checkpoint
    // boundary, maintained lazily in SyncTrainingProgress (speed is constant
    // between syncs, so boundary crossings are computed analytically).
    TimeMs next_checkpoint_ms = 0.0;
    double work_at_checkpoint = 0.0;
  };

  // --- ServingPlane::Listener ---
  void RebalanceMemory(int device_id) override;
  void UpdateTrainingSpeeds(int device_id) override;
  // --- ControlPlane::Listener ---
  void ApplyDeliveredConfig(int device_id, int batch, double gpu_fraction) override;
  void OnSchedulerRecovered() override;

  // Without a control plane the scheduler never goes down.
  bool SchedulerUp() const { return ctrl_ == nullptr || ctrl_->scheduler_up(); }

  // --- training path ---
  void OnTrainingArrival(const TrainingArrival& arrival);
  void TryDispatchQueue();
  void PlaceTask(const TrainingArrival& arrival, int device_id);
  void SyncTrainingProgress(int device_id, int task_id);
  void OnTrainingComplete(int device_id, int task_id);
  // Checkpoint-rollback + requeue of every training on a dying device.
  std::vector<TrainingTaskInfo> DisplaceTrainings(int device_id, TimeMs now);

  // --- periodic ---
  void MonitorTick();
  void UtilSampleTick();

  ExperimentOptions options_;
  MultiplexPolicy* policy_;
  Telemetry telemetry_;
  Simulator sim_;
  PerfOracle oracle_;
  ClusterState cluster_;
  Rng rng_;
  Rng probe_rng_;
  replay::Prober prober_;
  MemoryManager memory_manager_;
  TaskQueue queue_;
  KvStore registry_;
  std::unique_ptr<FaultInjector> fault_injector_;
  ServingPlane serving_;
  std::unique_ptr<ControlPlane> ctrl_;  // null without a control fault plan

  // Per-hook `policy.*` region stats, resolved once in the constructor (null
  // when unprofiled or for hooks without a region).
  std::array<perf::LatencyStat*, replay::kNumHookKinds> hook_stats_{};

  std::map<int, RunningTask> running_;          // task_id -> runtime state
  std::map<int, TaskRecord> task_records_;      // task_id -> record
  size_t tasks_remaining_ = 0;
  TimeMs last_completion_ms_ = 0.0;
  TimeMs first_arrival_ms_ = 0.0;
  std::vector<TimeMs> last_retune_ms_;  // per device: last OnQpsChange trigger

  std::vector<UtilSample> util_series_;
  std::vector<DeviceSeriesSample> device_series_;
  TimeMs last_util_sample_ms_ = 0.0;

  // Training fault/recovery accounting.
  size_t trainings_displaced_ = 0;
  size_t trainings_replaced_ = 0;
  double work_lost_ms_ = 0.0;
  double replacement_time_sum_ms_ = 0.0;
  std::map<int, TimeMs> displaced_at_;  // task_id -> displacement time
};

}  // namespace mudi

#endif  // SRC_EXP_CLUSTER_EXPERIMENT_H_
