// Experiment metrics: everything the paper's evaluation section reports —
// per-service SLO violation rates (windowed P99 vs SLO), training efficiency
// (CT / WaitingT / makespan), cluster utilization time series, memory-swap
// statistics, and decision overheads.
#ifndef SRC_EXP_METRICS_H_
#define SRC_EXP_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace mudi {

struct TaskRecord {
  int task_id = -1;
  size_t type_index = 0;
  TimeMs arrival_ms = 0.0;
  TimeMs start_ms = -1.0;       // placement time; <0 if never placed
  TimeMs completion_ms = -1.0;  // <0 if not finished within the horizon
  int device_id = -1;
  // Fault-recovery accounting: how often the task was displaced by a device
  // failure and how much checkpointed progress it lost (full-GPU ms redone).
  size_t failures = 0;
  double work_lost_ms = 0.0;

  bool completed() const { return completion_ms >= 0.0; }
  double ct_ms() const { return completion_ms - arrival_ms; }
  double waiting_ms() const { return start_ms - arrival_ms; }
};

struct ServiceMetrics {
  std::string service_name;
  size_t windows_total = 0;
  size_t windows_violated = 0;
  // Of windows_violated, how many were tainted by a device failure (failed
  // or re-routed requests landed in the window) vs. pure load/interference.
  size_t windows_violated_failure = 0;
  double mean_latency_ms = 0.0;
  double served_requests = 0.0;

  double slo_violation_rate() const {
    return windows_total == 0
               ? 0.0
               : static_cast<double>(windows_violated) / static_cast<double>(windows_total);
  }
  size_t windows_violated_load() const { return windows_violated - windows_violated_failure; }
};

struct UtilSample {
  TimeMs time_ms = 0.0;
  double sm_util = 0.0;   // cluster average
  double mem_util = 0.0;  // cluster average
};

struct DeviceSeriesSample {
  TimeMs time_ms = 0.0;
  double qps = 0.0;
  int batch = 0;
  double inference_fraction = 0.0;
  double swapped_mb = 0.0;
  double mem_resident_mb = 0.0;
};

// Availability / recovery aggregates for runs with a fault plan armed.
// All-zero (and absent from reports) when the plan is empty.
struct FaultMetrics {
  size_t faults_injected = 0;
  size_t device_failures = 0;    // distinct down transitions
  size_t devices_recovered = 0;  // distinct up transitions
  double total_downtime_ms = 0.0;
  size_t trainings_displaced = 0;
  double work_lost_ms = 0.0;  // checkpoint rollback, full-GPU ms
  // Virtual ms from displacement to re-placement, averaged over displaced
  // trainings that were re-placed within the run.
  double mean_replacement_ms = 0.0;
  size_t trainings_replaced = 0;
  double failed_requests = 0.0;    // in-flight or unroutable at failure time
  double rerouted_requests = 0.0;  // moved to surviving replicas
  // Served requests per wall-second of the run — the paper-style goodput
  // figure that faults depress.
  double goodput_rps = 0.0;

  bool any() const { return faults_injected > 0; }
};

// Control-plane fault/recovery aggregates (DESIGN.md §13) for runs with
// control-kind faults or a KvStore degradation armed. All-zero (and absent
// from reports) otherwise.
struct ControlMetrics {
  size_t events_injected = 0;     // timed control faults armed
  size_t kv_partitions = 0;       // collapsed partition windows
  size_t watch_losses = 0;        // watch-loss episodes
  size_t scheduler_crashes = 0;
  size_t scheduler_recoveries = 0;
  size_t retries = 0;             // sanctioned backoff re-attempts (ctrl.retries)
  size_t stale_reads = 0;         // control reads served at a lagged revision
  size_t unavailable_reads = 0;   // control reads rejected by a partition
  size_t watch_delivered = 0;     // degraded-mode notifications that arrived
  size_t watch_dropped = 0;       // lossy delivery / dead-watch deliveries
  size_t watch_lost_partition = 0;  // notifications lost inside a partition
  size_t configs_published = 0;   // inference configs written to the store
  size_t configs_applied = 0;     // configs that reached a device agent
  size_t stale_scan_entries = 0;  // recovery-scan rows contradicting live state
  double total_recovery_ms = 0.0;  // crash to recovered-view, summed

  double MeanRecoveryMs() const {
    return scheduler_recoveries == 0
               ? 0.0
               : total_recovery_ms / static_cast<double>(scheduler_recoveries);
  }
  // Configs published but never applied: dropped deliveries, partition
  // losses, and in-flight updates at run end.
  size_t configs_lost() const {
    return configs_published >= configs_applied ? configs_published - configs_applied : 0;
  }
  bool any() const { return events_injected > 0 || watch_delivered > 0 || watch_dropped > 0 ||
                            stale_reads > 0 || configs_published > 0; }
};

struct ExperimentResult {
  std::string policy_name;
  std::map<std::string, ServiceMetrics> per_service;

  std::vector<TaskRecord> tasks;
  double makespan_ms = 0.0;

  double avg_sm_util = 0.0;
  double avg_mem_util = 0.0;
  std::vector<UtilSample> util_series;

  // Fraction of device-time with training memory swapped out, per service
  // hosted on the device (Tab. 4).
  std::map<std::string, double> swap_time_fraction;
  size_t swap_events = 0;
  double swap_total_mb = 0.0;

  std::vector<size_t> tuning_iterations;

  std::vector<DeviceSeriesSample> device_series;  // when a device is traced

  FaultMetrics faults;
  ControlMetrics ctrl;

  // --- derived aggregates ---
  double OverallSloViolationRate() const;
  // Failure-attributed share of violated windows, summed over services.
  size_t TotalWindowsViolatedFailure() const;
  size_t TotalWindowsViolatedLoad() const;
  double MeanCtMs() const;
  double MeanWaitingMs() const;
  double P95CtMs() const;
  size_t CompletedTasks() const;
};

}  // namespace mudi

#endif  // SRC_EXP_METRICS_H_
