#include "src/exp/control_plane.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace mudi {
namespace {

// Scheduler state-checkpoint period: the coordinator heartbeats its epoch
// into the registry so the recovery scan can tell how stale its view is.
constexpr TimeMs kCtrlCheckpointPeriodMs = 10.0 * kMsPerSecond;

std::string SchedConfigKey(int device_id) {
  // The "/inference" terminator keeps the per-device watch prefix exact:
  // without it, the device-1 watch would also match devices 10, 11, ...
  return "/sched/config/" + std::to_string(device_id) + "/inference";
}

}  // namespace

std::string DeviceStatusKey(int device_id) {
  return "/devices/" + std::to_string(device_id) + "/status";
}

ControlPlane::ControlPlane(const KvDegradeOptions& degrade, Simulator& sim, KvStore& registry,
                           const ClusterState& cluster, Rng rng, Telemetry& telemetry,
                           Listener& listener)
    : sim_(sim),
      registry_(registry),
      cluster_(cluster),
      telemetry_(telemetry),
      listener_(listener),
      recovery_retrier_(&sim, RetryPolicy{}, rng.Fork(2)),
      watch_retrier_(&sim, RetryPolicy{}, rng.Fork(3)) {
  // The registry becomes a real (degradable) control-plane dependency.
  // Delete events are forced on so recovery can observe deregistration
  // instead of polling for absence.
  registry_.EnableDeleteEvents(true);
  registry_.EnableDegradedMode(&sim_, degrade, rng.Fork(1));

  config_watches_.assign(cluster_.num_devices(), 0);
  config_applied_rev_.assign(cluster_.num_devices(), 0);
  config_applied_seq_.assign(cluster_.num_devices(), 0);
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    RegisterConfigWatch(static_cast<int>(d));
  }
}

void ControlPlane::StartHeartbeat() {
  // Coordinator heartbeat: the epoch key tells the recovery scan how fresh
  // the registry's view of the scheduler is. ("/sched/epoch" does not prefix
  // any per-device config watch, so heartbeats draw nothing from the
  // watchers' delivery streams.)
  sim_.SchedulePeriodic(kCtrlCheckpointPeriodMs, kCtrlCheckpointPeriodMs, [this] {
    if (!scheduler_up_) {
      return;  // a crashed scheduler stops heartbeating
    }
    ++ckpt_epoch_;
    registry_.Put("/sched/epoch", std::to_string(ckpt_epoch_));
  });
}

void ControlPlane::Publish(int device_id, int batch, double gpu_fraction) {
  // Under degradation the update can be delayed, dropped, or lost to a
  // partition — the periodic retune rewrites the key, bounding how long a
  // lost config stays lost.
  ++configs_published_;
  // The publication sequence number lets the device agent deduplicate
  // deliveries that arrive both through its watch and a catch-up read.
  char encoded[96];
  std::snprintf(encoded, sizeof(encoded), "%llu|%d|%.17g",
                static_cast<unsigned long long>(configs_published_), batch, gpu_fraction);
  registry_.Put(SchedConfigKey(device_id), encoded);
}

void ControlPlane::RegisterConfigWatch(int device_id) {
  config_watches_[static_cast<size_t>(device_id)] = registry_.Watch(
      SchedConfigKey(device_id),
      [this, device_id](const std::string& /*key*/, const std::string& value, uint64_t revision) {
        OnConfigDelivered(device_id, value, revision);
      });
}

void ControlPlane::OnConfigDelivered(int device_id, const std::string& value, uint64_t revision) {
  size_t d = static_cast<size_t>(device_id);
  if (revision <= config_applied_rev_[d]) {
    return;  // out-of-order, duplicate, or stale-snapshot delivery: never regress
  }
  config_applied_rev_[d] = revision;
  if (value.empty()) {
    return;  // tombstone: the config key was deleted, nothing to apply
  }
  char* sep = nullptr;
  uint64_t seq = std::strtoull(value.c_str(), &sep, 10);
  MUDI_CHECK(sep != nullptr && *sep == '|');
  char* sep2 = nullptr;
  long batch = std::strtol(sep + 1, &sep2, 10);
  MUDI_CHECK(sep2 != nullptr && *sep2 == '|');
  double gpu_fraction = std::strtod(sep2 + 1, nullptr);
  if (seq <= config_applied_seq_[d]) {
    return;  // this publication already reached the device (e.g. via a
             // catch-up read racing its own delayed watch delivery)
  }
  config_applied_seq_[d] = seq;
  ++configs_applied_;
  if (telemetry_.enabled()) {
    MUDI_TRACE_INSTANT(&telemetry_, "ctrl", "config_applied", device_id, sim_.Now(),
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("batch", static_cast<double>(batch)),
                           telemetry::TraceArg::Num("fraction", gpu_fraction),
                           telemetry::TraceArg::Num("revision", static_cast<double>(revision))});
  }
  listener_.ApplyDeliveredConfig(device_id, static_cast<int>(batch), gpu_fraction);
}

Status ControlPlane::CatchUpConfig(int device_id) {
  uint64_t rev = 0;
  StatusOr<std::string> value = registry_.CtrlGet(SchedConfigKey(device_id), &rev);
  if (!value.ok()) {
    if (value.status().code() == StatusCode::kNotFound) {
      // Nothing published yet (or a stale snapshot predating the first
      // publish) — nothing to catch up on, not a retriable failure.
      return Status::Ok();
    }
    return value.status();
  }
  // The delivery guard in OnConfigDelivered makes catch-up idempotent and
  // immune to stale snapshots regressing a newer applied config.
  OnConfigDelivered(device_id, *value, rev);
  return Status::Ok();
}

void ControlPlane::OnKvPartitionStart(TimeMs /*now*/) { registry_.SetPartitioned(true); }

void ControlPlane::OnKvPartitionEnd(TimeMs /*now*/) {
  registry_.SetPartitioned(false);
  // Updates inside the window were lost, not buffered: catch every device
  // agent up through the control read path (deterministic device order).
  // The partition just healed, so the only possible miss is a stale
  // snapshot, which CatchUpConfig treats as "nothing to apply".
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    MUDI_CHECK_OK(CatchUpConfig(static_cast<int>(d)));
  }
}

void ControlPlane::OnWatchesLost(TimeMs now) {
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    if (config_watches_[d] != 0) {
      (void)registry_.Unwatch(config_watches_[d]);
      config_watches_[d] = 0;
    }
  }
  MUDI_LOG(Info) << "control plane lost its watches at t=" << now / kMsPerSecond << "s";
  // Re-establish through the sanctioned retry loop: a concurrent partition
  // makes the catch-up reads fail Unavailable until the window ends.
  watch_retrier_.Start(
      0.0,
      [this]() -> Status {
        for (size_t d = 0; d < cluster_.num_devices(); ++d) {
          if (config_watches_[d] == 0) {
            RegisterConfigWatch(static_cast<int>(d));
          }
          MUDI_RETURN_IF_ERROR(CatchUpConfig(static_cast<int>(d)));
        }
        return Status::Ok();
      },
      [](const Status& status, int attempts) {
        if (!status.ok()) {
          MUDI_LOG(Warning) << "watch re-establishment abandoned after " << attempts
                            << " attempt(s): " << status.ToString();
        }
      });
}

void ControlPlane::OnSchedulerCrash(TimeMs restart_delay_ms, TimeMs now) {
  if (scheduler_up_) {
    scheduler_up_ = false;
    scheduler_crashed_at_ = now;
    MUDI_LOG(Info) << "scheduler crashed at t=" << now / kMsPerSecond << "s, restart in "
                   << restart_delay_ms / kMsPerSecond << "s";
  } else {
    MUDI_LOG(Info) << "scheduler crashed again (mid-recovery) at t=" << now / kMsPerSecond << "s";
  }
  // Start() cancels any in-flight recovery loop: a crash during recovery
  // restarts recovery from scratch while downtime keeps accruing from the
  // first crash instant.
  recovery_retrier_.Start(
      restart_delay_ms, [this]() -> Status { return AttemptSchedulerRecovery(); },
      [this](const Status& status, int attempts) {
        if (status.ok()) {
          FinishSchedulerRecovery();
        } else {
          MUDI_LOG(Warning) << "scheduler recovery abandoned after " << attempts
                            << " attempt(s): " << status.ToString();
        }
      });
}

Status ControlPlane::AttemptSchedulerRecovery() {
  // Reconstruct the scheduler's policy-visible view from a registry scan.
  // Either list failing (partition) aborts the attempt; the Retrier backs
  // off and re-reads.
  StatusOr<std::vector<std::pair<std::string, std::string>>> device_rows =
      registry_.CtrlList("/devices/");
  if (!device_rows.ok()) {
    return device_rows.status();
  }
  StatusOr<std::vector<std::pair<std::string, std::string>>> sched_rows =
      registry_.CtrlList("/sched/");
  if (!sched_rows.ok()) {
    return sched_rows.status();
  }
  // Cross-check the scan against live (ground-truth) cluster state. Rows a
  // stale snapshot or a pre-crash write left behind are counted, not
  // trusted: the policy re-derives everything from probes after
  // OnControlPlaneRestart anyway.
  size_t mismatches = 0;
  size_t resident_tasks = 0;
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    const std::string status_key = DeviceStatusKey(static_cast<int>(d));
    std::string scanned;
    for (const auto& [key, value] : *device_rows) {
      if (key == status_key) {
        scanned = value;
        break;
      }
    }
    if ((scanned == "up") != cluster_.device(d).healthy()) {
      ++mismatches;
    }
    resident_tasks += cluster_.device(d).trainings().size();
  }
  size_t scanned_tasks = 0;
  for (const auto& [key, value] : *device_rows) {
    if (key.find("/tasks/") != std::string::npos) {
      ++scanned_tasks;
    }
  }
  if (scanned_tasks != resident_tasks) {
    mismatches += scanned_tasks > resident_tasks ? scanned_tasks - resident_tasks
                                                 : resident_tasks - scanned_tasks;
  }
  for (const auto& [key, value] : *sched_rows) {
    if (key == "/sched/epoch" && value != std::to_string(ckpt_epoch_)) {
      ++mismatches;  // the heartbeat row lags the coordinator's last beat
    }
  }
  stale_scan_entries_ += mismatches;
  return Status::Ok();
}

void ControlPlane::FinishSchedulerRecovery() {
  TimeMs now = sim_.Now();
  double recovery_ms = now - scheduler_crashed_at_;
  scheduler_up_ = true;
  ++scheduler_recoveries_;
  recovery_ms_sum_ += recovery_ms;
  MUDI_LOG(Info) << "scheduler recovered at t=" << now / kMsPerSecond << "s ("
                 << recovery_ms / kMsPerSecond << "s outage, " << stale_scan_entries_
                 << " stale scan entries so far)";
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("ctrl.scheduler_recoveries").Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "ctrl", "scheduler_recovered",
                       static_cast<int>(cluster_.num_devices()), now,
                       telemetry::TraceArgs{telemetry::TraceArg::Num("recovery_ms", recovery_ms)});
  }
  listener_.OnSchedulerRecovered();
}

void ControlPlane::Collect(ControlMetrics& cm) {
  cm.scheduler_recoveries = scheduler_recoveries_;
  cm.total_recovery_ms = recovery_ms_sum_;
  cm.retries = static_cast<size_t>(recovery_retrier_.total_retries() +
                                   watch_retrier_.total_retries());
  cm.stale_reads = static_cast<size_t>(registry_.stale_reads());
  cm.unavailable_reads = static_cast<size_t>(registry_.unavailable_reads());
  cm.watch_delivered = static_cast<size_t>(registry_.watch_delivered());
  cm.watch_dropped = static_cast<size_t>(registry_.watch_dropped());
  cm.watch_lost_partition = static_cast<size_t>(registry_.watch_lost_partition());
  cm.configs_published = configs_published_;
  cm.configs_applied = configs_applied_;
  cm.stale_scan_entries = stale_scan_entries_;
  if (telemetry_.enabled()) {
    auto& metrics = telemetry_.metrics();
    metrics.GetCounter("ctrl.retries").Increment(static_cast<double>(cm.retries));
    metrics.GetCounter("ctrl.stale_reads").Increment(static_cast<double>(cm.stale_reads));
    metrics.GetGauge("ctrl.recovery_ms").Set(cm.total_recovery_ms);
  }
}

}  // namespace mudi
