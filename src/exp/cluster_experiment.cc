#include "src/exp/cluster_experiment.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/wallclock.h"
#include "src/replay/decision_recorder.h"

namespace mudi {
namespace {

constexpr TimeMs kMonitorPeriodMs = 2.0 * kMsPerSecond;
// Forced per-device re-tune period: the 50% QPS-change threshold is an edge
// trigger and can latch a transient rate (e.g. mid-burst decay); periodic
// reconciliation bounds how long a stale config can persist.
constexpr TimeMs kPeriodicRetuneMs = 30.0 * kMsPerSecond;
constexpr TimeMs kUtilSampleMs = 1.0 * kMsPerSecond;
// Periodic training-checkpoint interval: a task displaced by a device failure
// resumes from its last checkpoint (progress since then is lost).
constexpr TimeMs kCheckpointPeriodMs = 60.0 * kMsPerSecond;
// Extra time simulated after the last completion (lets SLO windows close).
constexpr TimeMs kDrainMs = 5.0 * kMsPerSecond;

std::string DeviceTaskKey(int device_id, int task_id) {
  return "/devices/" + std::to_string(device_id) + "/tasks/" + std::to_string(task_id);
}

}  // namespace

// RAII scope around one policy hook. It opens the recorder's decision with a
// snapshot of the state the policy can observe — every device for the
// cluster-wide Initialize and SelectDevice, the target for a per-device hook,
// none for OnControlPlaneRestart — then times the hook once for both the
// decision's recorded latency and the hook's `policy.*` perf region. With
// neither a recorder nor a region the scope never reads the clock.
class ClusterExperiment::HookScope {
 public:
  HookScope(ClusterExperiment& exp, replay::HookKind hook, int device_id = -1, int task_id = -1,
            int type_index = -1)
      : recorder_(exp.options_.recorder), stat_(exp.hook_stats_[static_cast<size_t>(hook)]) {
    if (recorder_ != nullptr) {
      recorder_->BeginDecision(hook, exp.sim_.Now(), device_id, task_id, type_index);
      if (hook == replay::HookKind::kInitialize || hook == replay::HookKind::kSelectDevice) {
        for (const GpuDevice& dev : exp.cluster_.devices()) {
          recorder_->AddSnapshotDevice(replay::MakeSnapshotDevice(dev));
        }
      } else if (device_id >= 0) {
        recorder_->AddSnapshotDevice(replay::MakeSnapshotDevice(exp.device(device_id)));
      }
    }
    if (recorder_ != nullptr || stat_ != nullptr) {
      timer_.Restart();
    }
  }

  ~HookScope() {
    if (recorder_ == nullptr && stat_ == nullptr) {
      return;
    }
    double ms = timer_.ElapsedMs();
    if (stat_ != nullptr) {
      stat_->Record(ms);
    }
    if (recorder_ != nullptr) {
      recorder_->EndDecision(ms * 1000.0);
    }
  }

  HookScope(const HookScope&) = delete;
  HookScope& operator=(const HookScope&) = delete;

  replay::DecisionRecorder* recorder() { return recorder_; }

 private:
  replay::DecisionRecorder* recorder_;
  perf::LatencyStat* stat_;
  WallTimer timer_{WallTimer::Unstarted{}};
};

ClusterExperiment::ClusterExperiment(ExperimentOptions options, MultiplexPolicy* policy)
    : options_(std::move(options)),
      policy_(policy),
      telemetry_([this] {
        TelemetryOptions t = options_.telemetry;
        t.ApplyEnvOverrides();
        return t;
      }()),
      oracle_(options_.oracle_seed),
      cluster_(options_.num_nodes, NodeSpec{options_.gpus_per_node, ModelZoo::kGpuMemoryMb}),
      rng_(options_.seed),
      probe_rng_(options_.seed ^ 0xABCDEFull),
      prober_(oracle_, probe_rng_, options_.replay, options_.recorder),
      queue_(options_.queue_policy),
      serving_(options_, sim_, cluster_, oracle_, rng_, telemetry_, *this),
      last_retune_ms_(cluster_.num_devices(), 0.0) {
  MUDI_CHECK(policy_ != nullptr);
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    registry_.Put(DeviceStatusKey(static_cast<int>(d)), "up");
  }

  // Self-profiling wiring: resolve the profiled hooks' region stats once; a
  // null collector leaves every stat null and its region a no-op.
  if (perf::PerfCollector* collector = perf()) {
    using replay::HookKind;
    for (auto [hook, name] : {std::pair{HookKind::kInitialize, "policy.initialize"},
                              std::pair{HookKind::kSelectDevice, "policy.select_device"},
                              std::pair{HookKind::kOnTrainingPlaced, "policy.on_placed"},
                              std::pair{HookKind::kOnQpsChange, "policy.on_qps_change"}}) {
      hook_stats_[static_cast<size_t>(hook)] = &collector->GetRegionStat(name);
    }
  }

  // Telemetry wiring: every instrumented component checks enabled() itself
  // and keeps a null sink otherwise, so this is safe unconditionally.
  oracle_.SetTelemetry(&telemetry_);
  queue_.SetTelemetry(&telemetry_);
  memory_manager_.SetTelemetry(&telemetry_);
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    cluster_.device(d).SetTelemetry(&telemetry_);
  }
  if (telemetry_.tracing_enabled()) {
    telemetry_.trace().SetProcessName("mudi-cluster-experiment");
    for (size_t d = 0; d < cluster_.num_devices(); ++d) {
      telemetry_.trace().SetThreadName(
          static_cast<int>(d),
          "gpu" + std::to_string(d) + " [" + ServiceOnDevice(static_cast<int>(d)).name + "]");
    }
    telemetry_.trace().SetThreadName(static_cast<int>(cluster_.num_devices()), "scheduler");
  }
}

ClusterExperiment::~ClusterExperiment() = default;

TimeMs ClusterExperiment::Now() const { return sim_.Now(); }

std::vector<GpuDevice>& ClusterExperiment::devices() { return cluster_.devices(); }

const GpuDevice& ClusterExperiment::device(int device_id) const {
  return cluster_.device(static_cast<size_t>(device_id));
}

const InferenceServiceSpec& ClusterExperiment::ServiceOnDevice(int device_id) const {
  const GpuDevice& dev = device(device_id);
  return ModelZoo::InferenceServices()[dev.inference().service_index];
}

// Policy-facing monitor reads made inside a decision are part of the
// decision's observation set (harness-internal reads go straight to the
// monitor and are not recorded).
double ClusterExperiment::MeasuredQps(int device_id) {
  return replay::RecordFeedbackRead(options_.recorder, sim_.Now(), device_id, /*is_p99=*/false,
                                    serving_.monitor(device_id).CurrentQps(sim_.Now()));
}

double ClusterExperiment::MeasuredP99(int device_id) {
  return replay::RecordFeedbackRead(options_.recorder, sim_.Now(), device_id, /*is_p99=*/true,
                                    serving_.P99LatencyMs(device_id));
}

double ClusterExperiment::ProbeInferenceLatencyMs(int device_id, int batch,
                                                  double gpu_fraction) {
  return prober_.Inference(device(device_id), batch, gpu_fraction, sim_.Now());
}

double ClusterExperiment::ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                              int inf_batch, double inf_fraction) {
  // Direct monitor read, NOT MeasuredQps: this is harness-internal plumbing,
  // and the decision trace must only carry the policy's own feedback reads
  // (every training probe already embeds the QPS in its content key).
  double qps = serving_.monitor(device_id).CurrentQps(sim_.Now());
  return prober_.Training(device(device_id), task_id, train_fraction, inf_batch, inf_fraction,
                          qps, sim_.Now());
}

void ClusterExperiment::ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) {
  MUDI_CHECK_GT(batch, 0);
  MUDI_CHECK_GT(gpu_fraction, 0.0);
  MUDI_CHECK_LE(gpu_fraction, 1.0);
  // Record the policy's intent at the actuation boundary (before the
  // control-plane/no-op branches): the trace captures what was decided, not
  // what the (possibly degraded) delivery path made of it.
  replay::RecordActionTaken(options_.recorder, replay::ActionKind::kApplyInferenceConfig,
                            device_id, batch, gpu_fraction);
  if (ctrl_ != nullptr) {
    ctrl_->Publish(device_id, batch, gpu_fraction);
  } else {
    serving_.Reconfigure(device_id, batch, gpu_fraction);
  }
}

void ClusterExperiment::ApplyDeliveredConfig(int device_id, int batch, double gpu_fraction) {
  serving_.Reconfigure(device_id, batch, gpu_fraction);
}

void ClusterExperiment::ApplyTrainingFraction(int device_id, int task_id, double fraction) {
  MUDI_CHECK_GT(fraction, 0.0);
  replay::RecordActionTaken(options_.recorder, replay::ActionKind::kApplyTrainingFraction,
                            device_id, task_id, fraction);
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  SyncTrainingProgress(device_id, task_id);
  instance->gpu_fraction = std::min(fraction, 1.0);
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::SetTrainingPaused(int device_id, int task_id, bool paused) {
  replay::RecordActionTaken(options_.recorder, replay::ActionKind::kSetTrainingPaused,
                            device_id, task_id, paused ? 1.0 : 0.0);
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  if (instance->paused == paused) {
    return;
  }
  SyncTrainingProgress(device_id, task_id);
  instance->paused = paused;
  if (telemetry_.enabled()) {
    telemetry_.metrics()
        .GetCounter(paused ? "training.pauses" : "training.resumes")
        .Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "tuning", paused ? "pause_training" : "resume_training",
                       device_id, sim_.Now(),
                       telemetry::TraceArgs{telemetry::TraceArg::Num("task_id", task_id)});
  }
  UpdateTrainingSpeeds(device_id);
}

bool ClusterExperiment::CanFitTraining(int device_id, const TrainingTaskSpec& spec) const {
  return device(device_id).FitsTraining(spec);
}

void ClusterExperiment::RebalanceMemory(int device_id) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!policy_->SupportsMemorySwap()) {
    return;  // non-swap policies never overcommit (placement enforces fit)
  }
  memory_manager_.Rebalance(dev, sim_.Now());
}

// ---------------------------------------------------------------------------
// Device faults
// ---------------------------------------------------------------------------

std::vector<TrainingTaskInfo> ClusterExperiment::DisplaceTrainings(int device_id, TimeMs now) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  std::vector<int> task_ids;
  for (const auto& t : dev.trainings()) {
    task_ids.push_back(t.task_id);
  }
  std::vector<TrainingTaskInfo> displaced;
  for (int task_id : task_ids) {
    auto it = running_.find(task_id);
    MUDI_CHECK(it != running_.end());
    // Settle progress first so the checkpoint ledger covers every boundary
    // crossed before the failure instant.
    SyncTrainingProgress(device_id, task_id);
    RunningTask& running = it->second;
    if (running.completion_event != Simulator::kInvalidEventId) {
      sim_.Cancel(running.completion_event);
    }
    if (policy_->SupportsMemorySwap()) {
      MUDI_CHECK_OK(memory_manager_.Release(dev, task_id, now));
    }
    TrainingInstance instance = dev.RemoveTraining(task_id);
    // The key was Put at placement, so a failed Delete means the registry
    // and device state diverged — a bookkeeping bug, not a recoverable error.
    MUDI_CHECK(registry_.Delete(DeviceTaskKey(device_id, task_id)));
    // Checkpoint rollback: the task resumes from its last periodic
    // checkpoint, redoing the progress made since.
    double resume_work = std::max(running.work_at_checkpoint, instance.work_remaining_ms);
    double lost = std::max(0.0, resume_work - instance.work_remaining_ms);
    running_.erase(it);

    TaskRecord& record = task_records_[task_id];
    ++record.failures;
    record.work_lost_ms += lost;
    work_lost_ms_ += lost;
    ++trainings_displaced_;
    displaced_at_[task_id] = now;

    TrainingArrival requeue;
    requeue.task_id = task_id;
    requeue.arrival_ms = now;
    requeue.type_index = instance.type_index;
    requeue.work_full_gpu_ms = std::max(resume_work, 1.0);
    queue_.Push(PendingTask{requeue, /*priority=*/0});

    displaced.push_back(MakeTaskInfo(task_id, instance.type_index));

    if (telemetry_.enabled()) {
      telemetry_.metrics().GetCounter("fault.trainings_displaced").Increment();
      MUDI_TRACE_INSTANT(&telemetry_, "fault", "training_displaced", device_id, now,
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("task_id", task_id),
                             telemetry::TraceArg::Num("work_lost_ms", lost),
                             telemetry::TraceArg::Num("resume_work_ms", requeue.work_full_gpu_ms)});
    }
  }
  return displaced;
}

void ClusterExperiment::OnDeviceDown(int device_id, bool permanent, TimeMs now) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  MUDI_CHECK(dev.healthy());
  dev.SetHealthy(false);
  serving_.OnDeviceDown(device_id, now);
  std::vector<TrainingTaskInfo> displaced = DisplaceTrainings(device_id, now);

  registry_.Put(DeviceStatusKey(device_id), permanent ? "failed" : "down");

  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("fault.device_down").Increment();
  }
  MUDI_LOG(Info) << "device " << device_id << (permanent ? " permanently" : "") << " failed at t="
                 << now / kMsPerSecond << "s: " << displaced.size() << " training(s) displaced";

  // A crashed scheduler observes nothing: the failure shows up in its
  // recovery scan instead, and OnControlPlaneRestart drops stale caches.
  if (SchedulerUp()) {
    HookScope scope(*this, replay::HookKind::kOnDeviceFailed, device_id);
    if (scope.recorder() != nullptr) {
      for (const auto& t : displaced) {
        scope.recorder()->AddDisplaced(t.task_id, static_cast<uint32_t>(t.type_index));
      }
    }
    policy_->OnDeviceFailed(*this, device_id, displaced);
  }
  TryDispatchQueue();
}

void ClusterExperiment::OnDeviceUp(int device_id, TimeMs now) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  MUDI_CHECK(!dev.healthy());
  dev.SetHealthy(true);
  serving_.OnDeviceUp(device_id, now);

  registry_.Put(DeviceStatusKey(device_id), "up");
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("fault.device_up").Increment();
  }
  MUDI_LOG(Info) << "device " << device_id << " recovered at t=" << now / kMsPerSecond << "s";

  if (SchedulerUp()) {
    HookScope scope(*this, replay::HookKind::kOnDeviceRecovered, device_id);
    policy_->OnDeviceRecovered(*this, device_id);
  }
  TryDispatchQueue();
}

void ClusterExperiment::OnStragglerFactor(int device_id, double factor, TimeMs /*now*/) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  dev.SetSlowdown(factor);
  // Training progress is settled at the old speed inside UpdateTrainingSpeeds
  // (SyncTrainingProgress runs before the speed is recomputed), so the
  // inflection is exact. In-flight inference batches keep their pre-straggler
  // latency; subsequent batches observe the slowdown.
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::OnFeedbackLost(int device_id, TimeMs now) {
  serving_.monitor(device_id).SetFeedbackLost(true, now);
}

void ClusterExperiment::OnFeedbackRestored(int device_id, TimeMs now) {
  serving_.monitor(device_id).SetFeedbackLost(false, now);
}

void ClusterExperiment::OnSchedulerRecovered() {
  // The reconstructed view may be stale: drop policy caches and force a full
  // retune sweep at the next MonitorTick (stale-trigger every replica).
  {
    HookScope scope(*this, replay::HookKind::kOnControlPlaneRestart);
    policy_->OnControlPlaneRestart(*this);
  }
  for (TimeMs& last : last_retune_ms_) {
    last = sim_.Now() - kPeriodicRetuneMs;
  }
  TryDispatchQueue();
}

// ---------------------------------------------------------------------------
// Training path
// ---------------------------------------------------------------------------

void ClusterExperiment::OnTrainingArrival(const TrainingArrival& arrival) {
  TaskRecord record;
  record.task_id = arrival.task_id;
  record.type_index = arrival.type_index;
  record.arrival_ms = arrival.arrival_ms;
  task_records_[arrival.task_id] = record;
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("training.arrivals").Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "training", "task_arrival",
                       static_cast<int>(cluster_.num_devices()), arrival.arrival_ms,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("task_id", arrival.task_id),
                           telemetry::TraceArg::Str(
                               "type", ModelZoo::TrainingTasks()[arrival.type_index].name)});
  }
  queue_.Push(PendingTask{arrival, /*priority=*/0});
  TryDispatchQueue();
}

void ClusterExperiment::TryDispatchQueue() {
  if (!SchedulerUp()) {
    return;  // placements need the scheduler; tasks wait out the crash
  }
  while (!queue_.empty()) {
    const PendingTask* next = queue_.Peek();
    MUDI_CHECK(next != nullptr);
    TrainingTaskInfo info = MakeTaskInfo(next->arrival.task_id, next->arrival.type_index);
    std::optional<int> choice;
    {
      HookScope scope(*this, replay::HookKind::kSelectDevice, /*device_id=*/-1, info.task_id,
                      static_cast<int>(info.type_index));
      choice = policy_->SelectDevice(*this, info);
      if (scope.recorder() != nullptr) {
        scope.recorder()->SetChosenDevice(choice.value_or(-1));
      }
    }
    if (!choice.has_value()) {
      return;  // no capacity: stay queued
    }
    if (!device(*choice).healthy()) {
      MUDI_LOG(Warning) << "policy selected unhealthy device " << *choice << " for task "
                     << info.task_id << "; leaving it queued";
      return;
    }
    TrainingArrival arrival = queue_.Pop()->arrival;
    PlaceTask(arrival, *choice);
  }
}

void ClusterExperiment::PlaceTask(const TrainingArrival& arrival, int device_id) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  const TrainingTaskSpec& spec = ModelZoo::TrainingTasks()[arrival.type_index];

  TrainingInstance instance;
  instance.task_id = arrival.task_id;
  instance.type_index = arrival.type_index;
  instance.gpu_fraction = 0.1;  // provisional until the policy configures
  instance.work_remaining_ms = arrival.work_full_gpu_ms;
  instance.mem_required_mb = TrainingMemoryMb(spec);
  instance.admitted_at_ms = sim_.Now();
  dev.AddTraining(instance);
  RebalanceMemory(device_id);

  RunningTask running;
  running.device_id = device_id;
  running.last_sync_ms = sim_.Now();
  running.next_checkpoint_ms = sim_.Now() + kCheckpointPeriodMs;
  running.work_at_checkpoint = arrival.work_full_gpu_ms;
  running_[arrival.task_id] = running;

  TaskRecord& record = task_records_[arrival.task_id];
  if (record.start_ms < 0.0) {
    record.start_ms = sim_.Now();  // keep the first placement's queue wait
  }
  record.device_id = device_id;
  registry_.Put(DeviceTaskKey(device_id, arrival.task_id), spec.name);

  // Re-placement of a fault-displaced task: time from displacement to the new
  // placement is the recovery latency reported in FaultMetrics.
  auto displaced_it = displaced_at_.find(arrival.task_id);
  if (displaced_it != displaced_at_.end()) {
    replacement_time_sum_ms_ += sim_.Now() - displaced_it->second;
    ++trainings_replaced_;
    displaced_at_.erase(displaced_it);
    if (telemetry_.enabled()) {
      telemetry_.metrics().GetCounter("fault.trainings_replaced").Increment();
      MUDI_TRACE_INSTANT(&telemetry_, "fault", "training_replaced", device_id, sim_.Now(),
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("task_id", arrival.task_id)});
    }
  }

  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("training.placements").Increment();
    telemetry_.metrics()
        .GetHistogram("training.queue_wait_ms", telemetry::MetricsRegistry::DefaultLatencyBucketsMs())
        .Observe(record.start_ms - arrival.arrival_ms);
    MUDI_TRACE_INSTANT(&telemetry_, "placement", "place", device_id, record.start_ms,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("task_id", arrival.task_id),
                           telemetry::TraceArg::Str("type", spec.name),
                           telemetry::TraceArg::Num("queue_wait_ms",
                                                    record.start_ms - arrival.arrival_ms)});
  }

  TrainingTaskInfo info = MakeTaskInfo(arrival.task_id, arrival.type_index);
  {
    HookScope scope(*this, replay::HookKind::kOnTrainingPlaced, device_id, info.task_id,
                    static_cast<int>(info.type_index));
    policy_->OnTrainingPlaced(*this, device_id, info);
  }
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::SyncTrainingProgress(int device_id, int task_id) {
  auto it = running_.find(task_id);
  if (it == running_.end()) {
    return;
  }
  RunningTask& running = it->second;
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  TimeMs now = sim_.Now();
  // Snapshot periodic checkpoints crossed since the last sync: speed is
  // constant between syncs, so the work level at each boundary is analytic.
  while (running.next_checkpoint_ms <= now) {
    double at_cp = instance->work_remaining_ms;
    if (running.speed > 0.0) {
      at_cp = std::max(0.0, instance->work_remaining_ms -
                                running.speed * (running.next_checkpoint_ms - running.last_sync_ms));
    }
    running.work_at_checkpoint = at_cp;
    running.next_checkpoint_ms += kCheckpointPeriodMs;
  }
  double elapsed = now - running.last_sync_ms;
  if (elapsed > 0.0 && running.speed > 0.0) {
    instance->work_remaining_ms =
        std::max(0.0, instance->work_remaining_ms - running.speed * elapsed);
  }
  running.last_sync_ms = now;
}

void ClusterExperiment::UpdateTrainingSpeeds(int device_id) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  const auto& tasks = ModelZoo::TrainingTasks();
  // A direct monitor read, like the one in ProbeTrainingIterMs.
  InferenceLoad load{&ServiceOnDevice(device_id), dev.inference().batch_size,
                     dev.inference().gpu_fraction,
                     serving_.monitor(device_id).CurrentQps(sim_.Now())};

  for (auto& instance : dev.mutable_trainings()) {
    auto it = running_.find(instance.task_id);
    if (it == running_.end()) {
      continue;
    }
    RunningTask& running = it->second;
    SyncTrainingProgress(device_id, instance.task_id);

    if (running.completion_event != Simulator::kInvalidEventId) {
      sim_.Cancel(running.completion_event);
      running.completion_event = Simulator::kInvalidEventId;
    }
    if (instance.paused || instance.gpu_fraction <= 0.0) {
      running.speed = 0.0;
      continue;
    }
    const TrainingTaskSpec& spec = tasks[instance.type_index];
    ActiveColocation(dev, instance.task_id, &colocated_);
    double iter = oracle_.TrainingIterationMs(spec, std::clamp(instance.gpu_fraction, 0.02, 1.0),
                                              load, colocated_) *
                  SwapSlowdownFactor(instance) / dev.EffectiveComputeScale();
    running.speed = spec.iter_ms_full / iter;
    MUDI_CHECK_GT(running.speed, 0.0);
    TimeMs eta = instance.work_remaining_ms / running.speed;
    int task_id = instance.task_id;
    running.completion_event = sim_.ScheduleAfter(
        std::max(eta, 0.01), [this, device_id, task_id] { OnTrainingComplete(device_id, task_id); });
  }
}

void ClusterExperiment::OnTrainingComplete(int device_id, int task_id) {
  SyncTrainingProgress(device_id, task_id);
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (policy_->SupportsMemorySwap()) {
    MUDI_CHECK_OK(memory_manager_.Release(dev, task_id, sim_.Now()));
  }
  dev.RemoveTraining(task_id);
  running_.erase(task_id);
  // See the displacement path: this key must exist for any running task.
  MUDI_CHECK(registry_.Delete(DeviceTaskKey(device_id, task_id)));

  TaskRecord& record = task_records_[task_id];
  record.completion_ms = sim_.Now();
  last_completion_ms_ = std::max(last_completion_ms_, record.completion_ms);
  MUDI_CHECK_GT(tasks_remaining_, 0u);
  --tasks_remaining_;

  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("training.completions").Increment();
    MUDI_TRACE_COMPLETE(&telemetry_, "training",
                        ModelZoo::TrainingTasks()[record.type_index].name, device_id,
                        record.start_ms, record.completion_ms - record.start_ms,
                        telemetry::TraceArgs{telemetry::TraceArg::Num("task_id", task_id)});
  }

  RebalanceMemory(device_id);
  {
    HookScope scope(*this, replay::HookKind::kOnTrainingCompleted, device_id, task_id,
                    static_cast<int>(record.type_index));
    policy_->OnTrainingCompleted(*this, device_id, task_id);
  }
  UpdateTrainingSpeeds(device_id);
  TryDispatchQueue();
}

// ---------------------------------------------------------------------------
// Periodic bookkeeping
// ---------------------------------------------------------------------------

void ClusterExperiment::MonitorTick() {
  if (!SchedulerUp()) {
    return;  // no tuning decisions while the scheduler is down; the replicas
             // keep serving on their last-applied configurations
  }
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    if (!cluster_.device(d).healthy()) {
      continue;  // no monitor feedback and nothing to retune while down
    }
    QpsMonitor& monitor = serving_.monitor(static_cast<int>(d));
    bool qps_trigger = monitor.QpsChangedBeyondThreshold(sim_.Now());
    // Devices with preemptively paused training (§5.3.2) are re-evaluated on
    // every tick: "until suitable resources become available" requires an
    // active check, not just a QPS-change edge trigger.
    bool has_paused = false;
    for (const auto& t : cluster_.device(d).trainings()) {
      has_paused |= t.paused;
    }
    bool stale = sim_.Now() - last_retune_ms_[d] >= kPeriodicRetuneMs;
    // SLO risk is judged last: the P99 read sorts the latency window, and it
    // matters only when no other trigger fired. The read is const and,
    // being harness-internal, unrecorded, so skipping it changes nothing.
    if (qps_trigger || has_paused || stale ||
        serving_.P99ExceedsMs(static_cast<int>(d),
                              0.9 * ServiceOnDevice(static_cast<int>(d)).slo_ms)) {
      last_retune_ms_[d] = sim_.Now();
      {
        HookScope scope(*this, replay::HookKind::kOnQpsChange, static_cast<int>(d));
        policy_->OnQpsChange(*this, static_cast<int>(d));
      }
      monitor.AckQpsChange(sim_.Now());
      RebalanceMemory(static_cast<int>(d));
      UpdateTrainingSpeeds(static_cast<int>(d));
    }
  }
  // Retry queued tasks: capacity may have been unlocked by retuning.
  TryDispatchQueue();
}

void ClusterExperiment::UtilSampleTick() {
  TimeMs now = sim_.Now();
  double dt = now - last_util_sample_ms_;
  if (dt <= 0.0) {
    return;
  }
  last_util_sample_ms_ = now;

  double sm_sum = 0.0;
  double mem_sum = 0.0;
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    GpuDevice& dev = cluster_.device(d);
    double busy_frac = serving_.SampleBusyFraction(static_cast<int>(d), now, dt);
    double sm = busy_frac * dev.inference().gpu_fraction;
    for (const auto& t : dev.trainings()) {
      if (!t.paused) {
        const TrainingTaskSpec& spec = ModelZoo::TrainingTasks()[t.type_index];
        sm += 0.95 * std::min(t.gpu_fraction, spec.saturation_gpu);
      }
    }
    sm = std::min(sm, 1.0);
    double mem = dev.InstantMemUtil();
    if (!dev.healthy()) {
      sm = 0.0;  // a down device contributes zero utilization
      mem = 0.0;
    }
    dev.AccumulateUsage(dt, sm, mem);
    sm_sum += sm;
    mem_sum += mem;

    // Per-device counter tracks carrying the exact samples fed to
    // AccumulateUsage: trace_summary recomputes the same time-weighted
    // average, so its per-device utilization agrees with exp/metrics.
    MUDI_TRACE_COUNTER(&telemetry_, "sm_util", static_cast<int>(d), now, sm);
    MUDI_TRACE_COUNTER(&telemetry_, "mem_util", static_cast<int>(d), now, mem);
  }
  double n = static_cast<double>(cluster_.num_devices());
  if (telemetry_.enabled()) {
    auto& metrics = telemetry_.metrics();
    metrics.GetGauge("cluster.sm_util").Set(sm_sum / n);
    metrics.GetGauge("cluster.mem_util").Set(mem_sum / n);
    metrics.GetGauge("cluster.active_trainings").Set(static_cast<double>(running_.size()));
    metrics
        .GetHistogram("queue.depth_samples",
                      {0.5, 1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5})
        .Observe(static_cast<double>(queue_.size()));
    ExportSimEventCounts();
    metrics.RecordSnapshot(now);
  }
  if (options_.record_util_series) {
    util_series_.push_back(UtilSample{now, sm_sum / n, mem_sum / n});
  }
  if (options_.trace_device_id >= 0 &&
      options_.trace_device_id < static_cast<int>(cluster_.num_devices())) {
    int d = options_.trace_device_id;
    const GpuDevice& dev = device(d);
    double swapped = 0.0;
    for (const auto& t : dev.trainings()) {
      swapped += t.mem_swapped_mb;
    }
    device_series_.push_back(DeviceSeriesSample{now, MeasuredQps(d), dev.inference().batch_size,
                                                dev.inference().gpu_fraction, swapped,
                                                dev.MemoryResidentMb()});
  }
}

// The simulator counts its own events; the telemetry `sim.events_*` counters
// copy those totals only where a snapshot or the final flush reads them, so
// the per-event path pays nothing for telemetry.
void ClusterExperiment::ExportSimEventCounts() {
  for (auto [name, total] : {std::pair{"sim.events_fired", sim_.events_processed()},
                             std::pair{"sim.events_scheduled", sim_.events_scheduled()},
                             std::pair{"sim.events_cancelled", sim_.events_cancelled()}}) {
    telemetry::Counter& counter = telemetry_.metrics().GetCounter(name);
    // Counters only add; the totals are integers below 2^53, so the
    // difference is exact.
    counter.Increment(static_cast<double>(total) - counter.value());
  }
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

ExperimentResult ClusterExperiment::Run() {
  perf::PerfRegion run_region(perf(), "exp.run");
  if (options_.recorder != nullptr) {
    // Static per-device facts, once, so decision snapshots stay compact.
    std::vector<replay::DeviceTableEntry> table;
    table.reserve(cluster_.num_devices());
    for (const GpuDevice& dev : cluster_.devices()) {
      replay::DeviceTableEntry entry;
      entry.device_id = dev.id();
      entry.service_index = static_cast<uint32_t>(dev.inference().service_index);
      entry.memory_mb = dev.memory_mb();
      entry.compute_scale = dev.compute_scale();
      table.push_back(entry);
    }
    options_.recorder->RecordDeviceTable(table);
  }
  {
    HookScope scope(*this, replay::HookKind::kInitialize);
    policy_->Initialize(*this);
  }

  // One fault timeline: ctrl_fault_plan's faults, then fault_plan's, armed
  // in that order, which is the order that breaks same-instant ties. The
  // control plane exists only for control faults or a KvStore degradation
  // (none otherwise: zero events, zero registry traffic, byte-identical
  // results — CtrlFaultRecoveryTest.EmptyCtrlPlanLeavesCtrlMetricsZero pins
  // it). An empty plan arms nothing and perturbs no RNG.
  FaultPlan plan = options_.ctrl_fault_plan;
  plan.faults.insert(plan.faults.end(), options_.fault_plan.faults.begin(),
                     options_.fault_plan.faults.end());
  // One KvStore, so at most one of the two plans may degrade it.
  MUDI_CHECK(!plan.degrade.any() || !options_.fault_plan.degrade.any());
  if (!plan.degrade.any()) {
    plan.degrade = options_.fault_plan.degrade;
  }
  if (plan.HasControlFaults()) {
    ctrl_ = std::make_unique<ControlPlane>(plan.degrade, sim_, registry_, cluster_,
                                           rng_.Fork(0x6374726Cull),  // "ctrl"
                                           telemetry_,
                                           static_cast<ControlPlane::Listener&>(*this));
  }
  fault_injector_ = std::make_unique<FaultInjector>(
      &sim_, this, ctrl_.get(), static_cast<int>(cluster_.num_devices()), options_.num_nodes,
      &telemetry_);
  MUDI_CHECK_OK(fault_injector_->Arm(plan));
  if (ctrl_ != nullptr) {
    ctrl_->StartHeartbeat();
  }

  // Training arrivals.
  std::vector<TrainingArrival> trace = options_.trace_override;
  if (trace.empty() && options_.trace.num_tasks > 0) {
    trace = GenerateTrainingTrace(options_.trace);
  }
  tasks_remaining_ = trace.size();
  first_arrival_ms_ = trace.empty() ? 0.0 : trace.front().arrival_ms;
  for (const auto& arrival : trace) {
    sim_.ScheduleAt(arrival.arrival_ms, [this, arrival] { OnTrainingArrival(arrival); });
  }

  serving_.Start();
  sim_.SchedulePeriodic(kMonitorPeriodMs, kMonitorPeriodMs, [this] { MonitorTick(); });
  sim_.SchedulePeriodic(kUtilSampleMs, kUtilSampleMs, [this] { UtilSampleTick(); });

  if (options_.horizon_ms > 0.0) {
    sim_.RunUntil(options_.horizon_ms);
  } else {
    // Run until all training tasks complete (serving events are periodic and
    // never drain, so step until the countdown hits zero).
    uint64_t steps = 0;
    while (tasks_remaining_ > 0 && sim_.Now() < options_.max_sim_ms) {
      MUDI_CHECK(sim_.Step());
      if (++steps % 5000000 == 0) {
        MUDI_LOG(Debug) << "sim t=" << sim_.Now() / kMsPerSecond << "s, steps=" << steps
                        << ", remaining=" << tasks_remaining_ << ", queued=" << queue_.size()
                        << ", pending_events=" << sim_.pending_events();
      }
    }
    sim_.RunUntil(sim_.Now() + kDrainMs);
  }

  // Aggregate results.
  ExperimentResult result;
  result.policy_name = policy_->name();
  double served = serving_.Collect(result);
  for (const auto& [id, record] : task_records_) {
    result.tasks.push_back(record);
  }
  result.makespan_ms = last_completion_ms_ - first_arrival_ms_;

  double sm_sum = 0.0;
  double mem_sum = 0.0;
  for (const GpuDevice& dev : cluster_.devices()) {
    sm_sum += dev.AverageSmUtil();
    mem_sum += dev.AverageMemUtil();
  }
  result.avg_sm_util = sm_sum / static_cast<double>(cluster_.num_devices());
  result.avg_mem_util = mem_sum / static_cast<double>(cluster_.num_devices());
  result.swap_events = memory_manager_.records().size();
  result.swap_total_mb = memory_manager_.total_swapped_out_mb();
  result.util_series = util_series_;
  result.device_series = device_series_;
  result.tuning_iterations = policy_->tuning_iterations();

  // Availability / recovery aggregates.
  FaultMetrics& fm = result.faults;
  fm.faults_injected = fault_injector_->faults_injected();
  fm.device_failures = fault_injector_->device_failures();
  fm.devices_recovered = fault_injector_->devices_recovered();
  fm.total_downtime_ms = fault_injector_->TotalDowntimeMs(sim_.Now());
  fm.trainings_displaced = trainings_displaced_;
  fm.trainings_replaced = trainings_replaced_;
  fm.work_lost_ms = work_lost_ms_;
  fm.mean_replacement_ms =
      trainings_replaced_ == 0
          ? 0.0
          : replacement_time_sum_ms_ / static_cast<double>(trainings_replaced_);
  fm.goodput_rps = sim_.Now() > 0.0 ? served / (sim_.Now() / kMsPerSecond) : 0.0;

  // Control-plane fault/recovery aggregates (all zero without a ctrl plane).
  if (ctrl_ != nullptr) {
    ControlMetrics& cm = result.ctrl;
    cm.events_injected = fault_injector_->ctrl_events_injected();
    cm.kv_partitions = fault_injector_->partitions();
    cm.watch_losses = fault_injector_->watch_losses();
    cm.scheduler_crashes = fault_injector_->scheduler_crashes();
    ctrl_->Collect(cm);
  }

  if (telemetry_.enabled()) {
    auto& metrics = telemetry_.metrics();
    metrics.GetGauge("exp.makespan_ms").Set(result.makespan_ms);
    metrics.GetGauge("exp.avg_sm_util").Set(result.avg_sm_util);
    metrics.GetGauge("exp.avg_mem_util").Set(result.avg_mem_util);
    metrics.GetGauge("queue.final_max_depth").Set(static_cast<double>(queue_.max_depth()));
    ExportSimEventCounts();
    telemetry_.Flush(result.policy_name);
  }

  // Self-profiling export: snapshot the simulator's dispatch totals and the
  // run's workload counters (observe-only, end-of-run, zero hot-path cost).
  if (perf::PerfCollector* collector = perf()) {
    sim_.ExportPerfCounters(collector);
    collector->SetCounter("exp.tasks_total", result.tasks.size());
    collector->SetCounter("exp.tasks_completed", result.CompletedTasks());
    collector->SetCounter("exp.requests_served", static_cast<uint64_t>(served));
  }

  // End-of-run SLO attribution into the trace, so trace_diff can report
  // outcome deltas between two recorded runs.
  if (options_.recorder != nullptr) {
    replay::TraceRunSummary summary;
    summary.makespan_ms = result.makespan_ms;
    summary.tasks_completed = result.CompletedTasks();
    for (const auto& [name, m] : result.per_service) {
      replay::TraceServiceSummary s;
      s.service = name;
      s.windows_total = m.windows_total;
      s.windows_violated = m.windows_violated;
      s.windows_violated_failure = m.windows_violated_failure;
      s.served_requests = m.served_requests;
      s.mean_latency_ms = m.mean_latency_ms;
      summary.services.push_back(std::move(s));
    }
    options_.recorder->RecordRunSummary(summary);
  }
  return result;
}

}  // namespace mudi
