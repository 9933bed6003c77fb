#include "src/fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/fault/control_fault_plan.h"

namespace mudi {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientDeviceFailure:
      return "transient_device_failure";
    case FaultKind::kPermanentDeviceFailure:
      return "permanent_device_failure";
    case FaultKind::kNodeFailure:
      return "node_failure";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kMonitorFeedbackLoss:
      return "monitor_feedback_loss";
    case FaultKind::kKvPartition:
      return "kv_partition";
    case FaultKind::kWatchLoss:
      return "watch_loss";
    case FaultKind::kSchedulerCrash:
      return "scheduler_crash";
  }
  return "unknown";
}

bool IsControlFault(FaultKind kind) {
  return kind == FaultKind::kKvPartition || kind == FaultKind::kWatchLoss ||
         kind == FaultKind::kSchedulerCrash;
}

bool FaultPlan::HasControlFaults() const {
  return degrade.any() || std::any_of(faults.begin(), faults.end(), [](const FaultSpec& spec) {
           return IsControlFault(spec.kind);
         });
}

FaultPlan& FaultPlan::FailDevice(int device_id, TimeMs at_ms, TimeMs duration_ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kTransientDeviceFailure;
  spec.device_id = device_id;
  spec.at_ms = at_ms;
  spec.duration_ms = duration_ms;
  return Add(spec);
}

FaultPlan& FaultPlan::FailDevicePermanently(int device_id, TimeMs at_ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kPermanentDeviceFailure;
  spec.device_id = device_id;
  spec.at_ms = at_ms;
  spec.duration_ms = 0.0;
  return Add(spec);
}

FaultPlan& FaultPlan::FailNode(int node_id, TimeMs at_ms, TimeMs duration_ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kNodeFailure;
  spec.node_id = node_id;
  spec.at_ms = at_ms;
  spec.duration_ms = duration_ms;
  return Add(spec);
}

FaultPlan& FaultPlan::AddStraggler(int device_id, TimeMs at_ms, TimeMs duration_ms,
                                   double severity) {
  FaultSpec spec;
  spec.kind = FaultKind::kStraggler;
  spec.device_id = device_id;
  spec.at_ms = at_ms;
  spec.duration_ms = duration_ms;
  spec.severity = severity;
  return Add(spec);
}

FaultPlan& FaultPlan::LoseFeedback(int device_id, TimeMs at_ms, TimeMs duration_ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kMonitorFeedbackLoss;
  spec.device_id = device_id;
  spec.at_ms = at_ms;
  spec.duration_ms = duration_ms;
  return Add(spec);
}

FaultPlan& FaultPlan::DegradeWatches(TimeMs delay_ms, TimeMs jitter_ms, double drop_prob) {
  degrade.watch_delay_ms = delay_ms;
  degrade.watch_delay_jitter_ms = jitter_ms;
  degrade.watch_drop_prob = drop_prob;
  return *this;
}

FaultPlan& FaultPlan::StaleReads(double prob, uint64_t rev_lag) {
  degrade.stale_read_prob = prob;
  degrade.stale_rev_lag = rev_lag;
  return *this;
}

FaultPlan& FaultPlan::Partition(TimeMs at_ms, TimeMs duration_ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kKvPartition;
  spec.at_ms = at_ms;
  spec.duration_ms = duration_ms;
  return Add(spec);
}

FaultPlan& FaultPlan::LoseWatches(TimeMs at_ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kWatchLoss;
  spec.at_ms = at_ms;
  spec.duration_ms = 0.0;
  return Add(spec);
}

FaultPlan& FaultPlan::CrashScheduler(TimeMs at_ms, TimeMs restart_delay_ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kSchedulerCrash;
  spec.at_ms = at_ms;
  spec.duration_ms = restart_delay_ms;
  return Add(spec);
}

namespace {

// Rejects NaN, which passes every plain `x < lo` check, and infinities.
bool FiniteAtLeast(double x, double lo) { return std::isfinite(x) && x >= lo; }

}  // namespace

Status FaultPlan::Validate(int num_devices, int num_nodes) const {
  if (!FiniteAtLeast(degrade.watch_delay_ms, 0.0) ||
      !FiniteAtLeast(degrade.watch_delay_jitter_ms, 0.0)) {
    return InvalidArgumentError("fault plan: watch delay and jitter must be finite and >= 0");
  }
  if (!FiniteAtLeast(degrade.watch_drop_prob, 0.0) || degrade.watch_drop_prob >= 1.0) {
    return InvalidArgumentError(
        "fault plan: watch_drop_prob outside [0, 1) — dropping every update would deadlock "
        "config delivery");
  }
  if (!FiniteAtLeast(degrade.stale_read_prob, 0.0) || degrade.stale_read_prob > 1.0) {
    return InvalidArgumentError("fault plan: stale_read_prob outside [0, 1]");
  }
  if (degrade.stale_read_prob > 0.0 && degrade.stale_rev_lag == 0) {
    return InvalidArgumentError("fault plan: stale_read_prob > 0 requires stale_rev_lag >= 1");
  }
  for (size_t i = 0; i < faults.size(); ++i) {
    const FaultSpec& spec = faults[i];
    std::string where = "fault #" + std::to_string(i) + " (" + FaultKindName(spec.kind) + "): ";
    if (!FiniteAtLeast(spec.at_ms, 0.0)) {
      return InvalidArgumentError(where + "at_ms must be finite and >= 0");
    }
    if (!std::isfinite(spec.duration_ms)) {
      return InvalidArgumentError(where + "duration_ms must be finite");
    }
    if (!IsControlFault(spec.kind)) {
      bool node = spec.kind == FaultKind::kNodeFailure;
      int target = node ? spec.node_id : spec.device_id;
      int count = node ? num_nodes : num_devices;
      if (target < 0 || target >= count) {
        return InvalidArgumentError(where + (node ? "node_id " : "device_id ") +
                                    std::to_string(target) + " out of range [0, " +
                                    std::to_string(count) + ")");
      }
    }
    switch (spec.kind) {
      case FaultKind::kStraggler:
        if (!FiniteAtLeast(spec.severity, 1.0)) {
          return InvalidArgumentError(where +
                                      "severity must be finite and >= 1 (latency multiplier)");
        }
        [[fallthrough]];
      case FaultKind::kTransientDeviceFailure:
      case FaultKind::kMonitorFeedbackLoss:
      case FaultKind::kKvPartition:
        if (spec.duration_ms <= 0.0) {
          return InvalidArgumentError(
              where + "duration_ms must be > 0" +
              (spec.kind == FaultKind::kTransientDeviceFailure
                   ? " (use kPermanentDeviceFailure for permanent faults)"
                   : ""));
        }
        break;
      case FaultKind::kSchedulerCrash:
        if (spec.duration_ms < 0.0) {
          return InvalidArgumentError(where + "restart delay must be >= 0");
        }
        break;
      case FaultKind::kPermanentDeviceFailure:
      case FaultKind::kNodeFailure:
      case FaultKind::kWatchLoss:
        break;
    }
  }
  return Status::Ok();
}

FaultPlan StandardChaosPlan(int num_devices, int num_nodes) {
  FaultPlan plan;
  if (num_devices <= 0 || num_nodes <= 0) {
    return plan;
  }
  // Deterministic targets spread across the cluster; modulo keeps the plan
  // valid for small test clusters.
  int transient_target = 3 % num_devices;
  int straggler_target = 7 % num_devices;
  int feedback_target = 1 % num_devices;
  int permanent_target = (num_devices - 1) % num_devices;
  plan.FailDevice(transient_target, 60 * kMsPerSecond, 45 * kMsPerSecond);
  plan.AddStraggler(straggler_target, 120 * kMsPerSecond, 60 * kMsPerSecond, /*severity=*/2.5);
  plan.LoseFeedback(feedback_target, 180 * kMsPerSecond, 30 * kMsPerSecond);
  plan.FailDevicePermanently(permanent_target, 240 * kMsPerSecond);
  if (num_nodes > 1) {
    // Blackout a node that does not contain the permanently-dead device so
    // the cluster always keeps capacity to absorb displaced work.
    plan.FailNode(0, 300 * kMsPerSecond, 40 * kMsPerSecond);
  }
  return plan;
}

FaultPlan StandardControlChaosPlan() {
  FaultPlan plan;
  plan.DegradeWatches(/*delay_ms=*/250.0, /*jitter_ms=*/250.0, /*drop_prob=*/0.05);
  plan.StaleReads(/*prob=*/0.1, /*rev_lag=*/4);
  plan.Partition(90 * kMsPerSecond, 20 * kMsPerSecond);
  plan.LoseWatches(150 * kMsPerSecond);
  plan.CrashScheduler(210 * kMsPerSecond, 2 * kMsPerSecond);
  // Second crash arrives inside a partition window: the recovery scan fails
  // Unavailable and must back off through retry until the window closes.
  plan.CrashScheduler(270 * kMsPerSecond, 1 * kMsPerSecond);
  plan.Partition(270 * kMsPerSecond, 15 * kMsPerSecond);
  return plan;
}

std::string FaultSpecDebugString(const FaultSpec& spec) {
  std::ostringstream os;
  os << FaultKindName(spec.kind) << "@" << spec.at_ms << "ms";
  if (spec.kind == FaultKind::kNodeFailure) {
    os << " node=" << spec.node_id;
  } else if (!IsControlFault(spec.kind)) {
    os << " device=" << spec.device_id;
  }
  if (spec.kind == FaultKind::kSchedulerCrash) {
    os << " restart_delay=" << spec.duration_ms << "ms";
  } else if (spec.duration_ms > 0.0) {
    os << " duration=" << spec.duration_ms << "ms";
  } else if (!IsControlFault(spec.kind) && spec.kind != FaultKind::kStraggler &&
             spec.kind != FaultKind::kMonitorFeedbackLoss) {
    os << " permanent";
  }
  if (spec.kind == FaultKind::kStraggler) {
    os << " severity=" << spec.severity;
  }
  return os.str();
}

}  // namespace mudi
