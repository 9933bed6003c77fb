#include "src/replay/replay_run.h"

#include <limits>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/wallclock.h"
#include "src/replay/trace_diff.h"
#include "src/workload/models.h"

namespace mudi {
namespace replay {

namespace {

// Seed tag for the probe-miss fallback stream: a miss means the recorded run
// never asked this exact question, so any fixed independent stream is as
// honest as another — but it must not alias the recorded run's streams.
constexpr uint64_t kFallbackRngTag = 0x7265706c61796673ull;  // "replayfs"

}  // namespace

ReplayEnv::ReplayEnv(ReplaySource& source, DecisionRecorder* whatif_recorder)
    : source_(source),
      whatif_recorder_(whatif_recorder),
      fallback_oracle_(source.trace().header.oracle_seed),
      fallback_rng_(Rng(source.trace().header.seed).Fork(kFallbackRngTag)) {
  const DecisionTrace& trace = source_.trace();
  devices_.reserve(trace.device_table.size());
  for (const DeviceTableEntry& entry : trace.device_table) {
    GpuDevice dev(entry.device_id, entry.memory_mb, entry.compute_scale);
    // Placeholder replica; the first decision's snapshot (kInitialize carries
    // a full-cluster snapshot) overwrites batch/fraction with recorded state.
    InferenceInstance inst;
    inst.service_index = entry.service_index;
    inst.batch_size = 1;
    inst.gpu_fraction = 0.5;
    inst.mem_required_mb =
        InferenceMemoryMb(ModelZoo::InferenceServices()[entry.service_index], 1);
    dev.PlaceInference(inst);
    devices_.push_back(std::move(dev));
  }
  latest_qps_.assign(devices_.size(), 0.0);
  latest_p99_.assign(devices_.size(), 0.0);
}

void ReplayEnv::AdvanceFeedback(uint64_t seq_bound) {
  const auto& feedback = source_.trace().qps_feedback;
  while (feedback_cursor_ < feedback.size() && feedback[feedback_cursor_].seq < seq_bound) {
    const TraceQpsFeedback& f = feedback[feedback_cursor_];
    if (f.device_id >= 0 && static_cast<size_t>(f.device_id) < devices_.size()) {
      if (f.is_p99 != 0) {
        latest_p99_[static_cast<size_t>(f.device_id)] = f.value;
      } else {
        latest_qps_[static_cast<size_t>(f.device_id)] = f.value;
      }
    }
    ++feedback_cursor_;
  }
}

void ReplayEnv::ApplyDecisionState(const TraceDecision& decision) {
  now_ms_ = decision.sim_ms;
  for (const SnapshotDevice& s : decision.snapshot) {
    GpuDevice& dev = mutable_device(s.device_id);
    dev.SetHealthy(s.healthy != 0);
    dev.SetSlowdown(s.slowdown);
    if (s.has_inference != 0) {
      InferenceInstance inst;
      inst.service_index = s.service_index;
      inst.batch_size = s.inf_batch;
      inst.gpu_fraction = s.inf_fraction;
      inst.mem_required_mb = s.inf_mem_mb;
      if (dev.has_inference()) {
        dev.mutable_inference() = inst;
      } else {
        dev.PlaceInference(inst);
      }
    } else if (dev.has_inference()) {
      dev.RemoveInference();
    }
    std::vector<TrainingInstance> trainings;
    trainings.reserve(s.trainings.size());
    for (const SnapshotTraining& t : s.trainings) {
      TrainingInstance inst;
      inst.task_id = t.task_id;
      inst.type_index = t.type_index;
      inst.gpu_fraction = t.gpu_fraction;
      inst.mem_required_mb = t.mem_required_mb;
      inst.mem_swapped_mb = t.mem_swapped_mb;
      inst.paused = t.paused != 0;
      trainings.push_back(inst);
    }
    dev.mutable_trainings() = std::move(trainings);
  }
}

std::vector<TraceAction> ReplayEnv::TakeActions() { return std::exchange(actions_, {}); }

const GpuDevice& ReplayEnv::device(int device_id) const {
  MUDI_CHECK_GE(device_id, 0);
  MUDI_CHECK_LT(static_cast<size_t>(device_id), devices_.size());
  return devices_[static_cast<size_t>(device_id)];
}

GpuDevice& ReplayEnv::mutable_device(int device_id) {
  MUDI_CHECK_GE(device_id, 0);
  MUDI_CHECK_LT(static_cast<size_t>(device_id), devices_.size());
  return devices_[static_cast<size_t>(device_id)];
}

const InferenceServiceSpec& ReplayEnv::ServiceOnDevice(int device_id) const {
  return ModelZoo::InferenceServices()[device(device_id).inference().service_index];
}

double ReplayEnv::MeasuredQps(int device_id) {
  return RecordFeedbackRead(whatif_recorder_, now_ms_, device_id, /*is_p99=*/false,
                            latest_qps_[static_cast<size_t>(device_id)]);
}

double ReplayEnv::MeasuredP99(int device_id) {
  return RecordFeedbackRead(whatif_recorder_, now_ms_, device_id, /*is_p99=*/true,
                            latest_p99_[static_cast<size_t>(device_id)]);
}

double ReplayEnv::ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) {
  return prober_.Inference(device(device_id), batch, gpu_fraction, now_ms_);
}

double ReplayEnv::ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                      int inf_batch, double inf_fraction) {
  // The recorded run keyed probes on the monitor QPS at decision time, which
  // is exactly the value the policy read as feedback inside the decision —
  // the feedback cursor has already advanced past those reads.
  return prober_.Training(device(device_id), task_id, train_fraction, inf_batch, inf_fraction,
                          latest_qps_[static_cast<size_t>(device_id)], now_ms_);
}

void ReplayEnv::RecordAction(ActionKind kind, int device_id, int arg, double value) {
  actions_.push_back(TraceAction{static_cast<uint8_t>(kind), device_id, arg, value});
  RecordActionTaken(whatif_recorder_, kind, device_id, arg, value);
}

void ReplayEnv::ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) {
  MUDI_CHECK_GT(batch, 0);
  MUDI_CHECK_GT(gpu_fraction, 0.0);
  MUDI_CHECK_LE(gpu_fraction, 1.0);
  RecordAction(ActionKind::kApplyInferenceConfig, device_id, batch, gpu_fraction);
  GpuDevice& dev = mutable_device(device_id);
  if (!dev.healthy()) {
    return;
  }
  // Counterfactual actuation is immediate: there is no clock to ride the
  // shadow-instance reconfiguration latency on, and within one decision the
  // live path behaves the same way (probes pass overrides explicitly).
  InferenceInstance& inf = dev.mutable_inference();
  inf.batch_size = batch;
  inf.gpu_fraction = gpu_fraction;
  inf.mem_required_mb = InferenceMemoryMb(ServiceOnDevice(device_id), batch);
}

void ReplayEnv::ApplyTrainingFraction(int device_id, int task_id, double fraction) {
  MUDI_CHECK_GT(fraction, 0.0);
  RecordAction(ActionKind::kApplyTrainingFraction, device_id, task_id, fraction);
  GpuDevice& dev = mutable_device(device_id);
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  instance->gpu_fraction = fraction;
}

void ReplayEnv::SetTrainingPaused(int device_id, int task_id, bool paused) {
  RecordAction(ActionKind::kSetTrainingPaused, device_id, task_id, paused ? 1.0 : 0.0);
  GpuDevice& dev = mutable_device(device_id);
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  instance->paused = paused;
}

bool ReplayEnv::CanFitTraining(int device_id, const TrainingTaskSpec& spec) const {
  return device(device_id).FitsTraining(spec);
}

StatusOr<WhatIfResult> RunWhatIf(ReplaySource& source, MultiplexPolicy& policy,
                                 const WhatIfOptions& options) {
  const DecisionTrace& trace = source.trace();
  if (trace.device_table.empty()) {
    return InvalidArgumentError("trace carries no device table; cannot reconstruct the cluster");
  }
  for (size_t i = 0; i < trace.device_table.size(); ++i) {
    if (trace.device_table[i].device_id != static_cast<int32_t>(i)) {
      return InvalidArgumentError("trace device table is not densely indexed by device id");
    }
  }
  if (!trace.decisions.empty() &&
      static_cast<HookKind>(trace.decisions.front().hook) != HookKind::kInitialize) {
    return InvalidArgumentError("trace decision stream does not start with Initialize");
  }

  ReplayEnv env(source, options.recorder);
  if (options.recorder != nullptr) {
    options.recorder->RecordDeviceTable(trace.device_table);
  }

  WhatIfResult result;
  for (size_t i = 0; i < trace.decisions.size(); ++i) {
    const TraceDecision& d = trace.decisions[i];
    uint64_t bound = i + 1 < trace.decisions.size() ? trace.decisions[i + 1].seq
                                                    : std::numeric_limits<uint64_t>::max();
    env.AdvanceFeedback(bound);
    env.ApplyDecisionState(d);

    DecisionRecorder* rec = options.recorder;
    if (rec != nullptr) {
      rec->BeginDecision(static_cast<HookKind>(d.hook), d.sim_ms, d.device_id, d.task_id,
                         d.type_index);
    }
    WallTimer timer;
    int whatif_choice = -2;  // sentinel: not a SelectDevice decision
    switch (static_cast<HookKind>(d.hook)) {
      case HookKind::kInitialize:
        policy.Initialize(env);
        break;
      case HookKind::kSelectDevice: {
        MUDI_CHECK_GE(d.type_index, 0);
        TrainingTaskInfo info = MakeTaskInfo(d.task_id, static_cast<size_t>(d.type_index));
        whatif_choice = policy.SelectDevice(env, info).value_or(-1);
        if (rec != nullptr) {
          rec->SetChosenDevice(whatif_choice);
        }
        break;
      }
      case HookKind::kOnTrainingPlaced: {
        MUDI_CHECK_GE(d.type_index, 0);
        policy.OnTrainingPlaced(env, d.device_id,
                                MakeTaskInfo(d.task_id, static_cast<size_t>(d.type_index)));
        break;
      }
      case HookKind::kOnTrainingCompleted:
        policy.OnTrainingCompleted(env, d.device_id, d.task_id);
        break;
      case HookKind::kOnQpsChange:
        policy.OnQpsChange(env, d.device_id);
        break;
      case HookKind::kOnDeviceFailed: {
        std::vector<TrainingTaskInfo> displaced;
        displaced.reserve(d.displaced.size());
        for (const auto& [task_id, type_index] : d.displaced) {
          displaced.push_back(MakeTaskInfo(task_id, type_index));
          if (rec != nullptr) {
            rec->AddDisplaced(task_id, type_index);
          }
        }
        policy.OnDeviceFailed(env, d.device_id, displaced);
        break;
      }
      case HookKind::kOnDeviceRecovered:
        policy.OnDeviceRecovered(env, d.device_id);
        break;
      case HookKind::kOnControlPlaneRestart:
        policy.OnControlPlaneRestart(env);
        break;
      default:
        return InternalError("unknown hook kind in decision trace");
    }
    if (rec != nullptr) {
      rec->EndDecision(timer.ElapsedMs() * 1000.0);
    }

    std::vector<TraceAction> whatif_actions = env.TakeActions();
    std::string detail;
    if (whatif_choice != -2 && whatif_choice != d.chosen_device) {
      detail = "task " + std::to_string(d.task_id) + ": recorded chose device " +
               std::to_string(d.chosen_device) + ", what-if chose device " +
               std::to_string(whatif_choice);
    } else if (d.actions != whatif_actions) {
      detail = ActionsDivergence(d.actions, whatif_actions, "recorded", "what-if");
    }
    if (!detail.empty()) {
      ++result.diverged_decisions;
      if (!result.diverged) {
        result.diverged = true;
        result.first_divergence_seq = d.seq;
        result.first_divergence_detail = "decision seq " + std::to_string(d.seq) + " (" +
                                         HookName(static_cast<HookKind>(d.hook)) + "): " + detail;
      }
    }
    ++result.decisions_replayed;
  }

  result.probe_hits = source.hits();
  result.probe_sticky_hits = source.sticky_hits();
  result.probe_misses = source.misses();
  return result;
}

}  // namespace replay
}  // namespace mudi
