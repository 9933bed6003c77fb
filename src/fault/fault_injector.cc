#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

FaultInjector::FaultInjector(Simulator* sim, FaultSink* sink, ControlFaultSink* ctrl_sink,
                             int num_devices, int num_nodes, Telemetry* telemetry)
    : sim_(sim),
      sink_(sink),
      ctrl_sink_(ctrl_sink),
      num_devices_(num_devices),
      num_nodes_(num_nodes),
      telemetry_(telemetry),
      state_(static_cast<size_t>(num_devices)) {
  MUDI_CHECK(sim_ != nullptr);
  MUDI_CHECK_GT(num_devices_, 0);
  MUDI_CHECK_GT(num_nodes_, 0);
  MUDI_CHECK_EQ(num_devices_ % num_nodes_, 0);
}

Status FaultInjector::Arm(const FaultPlan& plan) {
  MUDI_RETURN_IF_ERROR(plan.Validate(num_devices_, num_nodes_));
  for (const FaultSpec& spec : plan.faults) {
    if (spec.at_ms < sim_->Now()) {
      return InvalidArgumentError("fault scheduled in the past: " + FaultSpecDebugString(spec));
    }
    if (IsControlFault(spec.kind) ? ctrl_sink_ == nullptr : sink_ == nullptr) {
      return FailedPreconditionError("no sink for fault: " + FaultSpecDebugString(spec));
    }
  }
  int gpus_per_node = num_devices_ / num_nodes_;
  for (const FaultSpec& spec : plan.faults) {
    ++(IsControlFault(spec.kind) ? ctrl_events_injected_ : faults_injected_);
    const int d = spec.device_id;
    const TimeMs end = spec.at_ms + spec.duration_ms;
    switch (spec.kind) {
      case FaultKind::kTransientDeviceFailure:
      case FaultKind::kPermanentDeviceFailure:
      case FaultKind::kNodeFailure: {
        // A node failure is the same failure on each of the node's devices.
        bool node = spec.kind == FaultKind::kNodeFailure;
        bool permanent = spec.kind == FaultKind::kPermanentDeviceFailure ||
                         (node && spec.duration_ms <= 0.0);
        int first = node ? spec.node_id * gpus_per_node : d;
        int last = node ? first + gpus_per_node - 1 : d;
        for (int device = first; device <= last; ++device) {
          sim_->ScheduleAt(spec.at_ms,
                           [this, device, permanent] { DeviceDown(device, permanent); });
          if (!permanent) {
            sim_->ScheduleAt(end, [this, device] { DeviceUp(device); });
          }
        }
        break;
      }
      case FaultKind::kStraggler: {
        double severity = spec.severity;
        sim_->ScheduleAt(spec.at_ms, [this, d, severity] { StragglerStart(d, severity); });
        sim_->ScheduleAt(end, [this, d, severity] { StragglerEnd(d, severity); });
        break;
      }
      case FaultKind::kMonitorFeedbackLoss:
        sim_->ScheduleAt(spec.at_ms, [this, d] { FeedbackLost(d); });
        sim_->ScheduleAt(end, [this, d] { FeedbackRestored(d); });
        break;
      case FaultKind::kKvPartition:
        sim_->ScheduleAt(spec.at_ms, [this] { PartitionStart(); });
        sim_->ScheduleAt(end, [this] { PartitionEnd(); });
        break;
      case FaultKind::kWatchLoss:
        sim_->ScheduleAt(spec.at_ms, [this] { WatchesLost(); });
        break;
      case FaultKind::kSchedulerCrash:
        sim_->ScheduleAt(spec.at_ms,
                         [this, restart = spec.duration_ms] { SchedulerCrash(restart); });
        break;
    }
  }
  return Status::Ok();
}

double FaultInjector::straggler_factor(int device_id) const {
  double factor = 1.0;
  for (double f : state_[device_id].straggler_factors) {
    factor *= f;
  }
  return factor;
}

double FaultInjector::TotalDowntimeMs(TimeMs end) const {
  double total = 0.0;
  for (const DeviceState& st : state_) {
    total += st.downtime_accum_ms;
    if (st.down_count > 0 || (st.permanent && st.down_since >= 0.0)) {
      total += std::max(0.0, end - st.down_since);
    }
  }
  return total;
}

void FaultInjector::EmitInstant(const char* category, const char* name, int lane,
                                double arg_value, const char* arg_key) {
  MUDI_TRACE_INSTANT(telemetry_, category, name, lane, sim_->Now(),
                     telemetry::TraceArgs{telemetry::TraceArg::Num(arg_key, arg_value)});
}

void FaultInjector::DeviceDown(int device_id, bool permanent) {
  DeviceState& st = state_[device_id];
  bool was_down = st.down_count > 0 || st.permanent;
  ++st.down_count;
  st.permanent = st.permanent || permanent;
  if (was_down) {
    return;  // Already down: the new fault only extends the outage.
  }
  st.down_since = sim_->Now();
  ++device_failures_;
  EmitInstant("fault", "device_down", device_id, permanent ? 1.0 : 0.0, "permanent");
  sink_->OnDeviceDown(device_id, permanent, sim_->Now());
}

void FaultInjector::DeviceUp(int device_id) {
  DeviceState& st = state_[device_id];
  MUDI_CHECK_GT(st.down_count, 0);
  --st.down_count;
  if (st.down_count > 0 || st.permanent) {
    return;  // Still covered by another fault (or dead for good).
  }
  st.downtime_accum_ms += sim_->Now() - st.down_since;
  st.down_since = -1.0;
  ++devices_recovered_;
  EmitInstant("fault", "device_up", device_id, st.downtime_accum_ms, "downtime_ms");
  sink_->OnDeviceUp(device_id, sim_->Now());
}

void FaultInjector::StragglerStart(int device_id, double severity) {
  DeviceState& st = state_[device_id];
  st.straggler_factors.push_back(severity);
  double factor = straggler_factor(device_id);
  EmitInstant("fault", "straggler_start", device_id, factor, "factor");
  sink_->OnStragglerFactor(device_id, factor, sim_->Now());
}

void FaultInjector::StragglerEnd(int device_id, double severity) {
  DeviceState& st = state_[device_id];
  auto it = std::find(st.straggler_factors.begin(), st.straggler_factors.end(), severity);
  MUDI_CHECK(it != st.straggler_factors.end());
  st.straggler_factors.erase(it);
  double factor = straggler_factor(device_id);
  EmitInstant("fault", "straggler_end", device_id, factor, "factor");
  sink_->OnStragglerFactor(device_id, factor, sim_->Now());
}

void FaultInjector::FeedbackLost(int device_id) {
  DeviceState& st = state_[device_id];
  if (st.feedback_loss_count++ == 0) {
    EmitInstant("fault", "feedback_lost", device_id, 1.0, "active");
    sink_->OnFeedbackLost(device_id, sim_->Now());
  }
}

void FaultInjector::FeedbackRestored(int device_id) {
  DeviceState& st = state_[device_id];
  MUDI_CHECK_GT(st.feedback_loss_count, 0);
  if (--st.feedback_loss_count == 0) {
    EmitInstant("fault", "feedback_restored", device_id, 0.0, "active");
    sink_->OnFeedbackRestored(device_id, sim_->Now());
  }
}

void FaultInjector::PartitionStart() {
  if (partition_depth_++ > 0) {
    return;  // Already partitioned: the new window only extends the outage.
  }
  ++partitions_;
  EmitInstant("ctrl", "kv_partition_start", -1, 1.0, "active");
  ctrl_sink_->OnKvPartitionStart(sim_->Now());
}

void FaultInjector::PartitionEnd() {
  MUDI_CHECK_GT(partition_depth_, 0);
  if (--partition_depth_ > 0) {
    return;  // Still covered by another window.
  }
  EmitInstant("ctrl", "kv_partition_end", -1, 0.0, "active");
  ctrl_sink_->OnKvPartitionEnd(sim_->Now());
}

void FaultInjector::WatchesLost() {
  ++watch_losses_;
  EmitInstant("ctrl", "watch_loss", -1, 1.0, "count");
  ctrl_sink_->OnWatchesLost(sim_->Now());
}

void FaultInjector::SchedulerCrash(TimeMs restart_delay_ms) {
  ++scheduler_crashes_;
  EmitInstant("ctrl", "scheduler_crash", -1, restart_delay_ms, "restart_delay_ms");
  ctrl_sink_->OnSchedulerCrash(restart_delay_ms, sim_->Now());
}

}  // namespace mudi
