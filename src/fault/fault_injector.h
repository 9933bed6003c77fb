// Arms a FaultPlan against the virtual clock and drives a FaultSink (device
// faults) and a ControlFaultSink (control-plane faults) through failure /
// recovery transitions, from one timeline scheduled in plan order.
//
// The injector owns the fault *timeline* semantics so the sinks (the
// experiment harness and its control plane) only see clean edge
// transitions:
//   - overlapping failures of one device (e.g. a node blackout over an
//     already-failed GPU) collapse into a single down/up edge pair;
//   - a permanent failure pins the device down even when an overlapping
//     transient fault "recovers";
//   - concurrent straggler episodes multiply, and the sink is always handed
//     the effective latency factor (1.0 when no episode is active);
//   - feedback-loss windows nest the same way failures do;
//   - overlapping KvStore partition windows collapse into a single
//     start/end edge pair.
// The plan's store-wide degradation (FaultPlan::degrade) is NOT applied
// here; the harness enables it on its KvStore directly (the injector only
// drives timed events). Every transition is also recorded as a typed
// telemetry instant: device transitions in the "fault" category on the
// device's trace lane, which is what tools/trace_summary uses to attribute
// downtime, control transitions in the "ctrl" category on lane -1.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/fault/fault_plan.h"
#include "src/sim/simulator.h"

namespace mudi {

class Telemetry;

// Implemented by the experiment harness; all callbacks run at the fault's
// virtual timestamp, from inside a simulator event.
class FaultSink {
 public:
  virtual ~FaultSink() = default;

  // The device just went down (first covering fault began). `permanent` is
  // true when no recovery will ever be delivered for it.
  virtual void OnDeviceDown(int device_id, bool permanent, TimeMs now) = 0;
  // The device came back (last covering transient fault ended).
  virtual void OnDeviceUp(int device_id, TimeMs now) = 0;
  // The effective straggler latency multiplier for the device changed;
  // `factor` is the product of all active episodes (1.0 = healthy speed).
  virtual void OnStragglerFactor(int device_id, double factor, TimeMs now) = 0;
  // Monitor feedback for the device was lost / restored.
  virtual void OnFeedbackLost(int device_id, TimeMs now) = 0;
  virtual void OnFeedbackRestored(int device_id, TimeMs now) = 0;
};

// Implemented by the control plane; callbacks run like FaultSink's.
class ControlFaultSink {
 public:
  virtual ~ControlFaultSink() = default;

  // The KvStore just became unreachable / reachable again (first covering
  // window began / last covering window ended).
  virtual void OnKvPartitionStart(TimeMs now) = 0;
  virtual void OnKvPartitionEnd(TimeMs now) = 0;
  // Every registered watch died; the sink must unregister and re-establish.
  virtual void OnWatchesLost(TimeMs now) = 0;
  // The scheduler crashed; its replacement starts recovering
  // `restart_delay_ms` from now.
  virtual void OnSchedulerCrash(TimeMs restart_delay_ms, TimeMs now) = 0;
};

class FaultInjector {
 public:
  // Either sink may be null when the plans armed hold none of its kinds.
  FaultInjector(Simulator* sim, FaultSink* sink, ControlFaultSink* ctrl_sink, int num_devices,
                int num_nodes, Telemetry* telemetry = nullptr);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Validates `plan` against the cluster shape and schedules every fault
  // (plus its paired recovery) on the simulator, in plan order: that order
  // is the order the events take their sequence numbers in, which breaks
  // same-instant ties. An empty plan schedules nothing at all. Faults in the
  // past (at_ms < sim->Now()) and faults whose sink is null are rejected.
  Status Arm(const FaultPlan& plan);

  // Device state, readable at any time between events.
  bool device_down(int device_id) const { return state_[device_id].down_count > 0; }
  bool device_permanently_down(int device_id) const { return state_[device_id].permanent; }
  double straggler_factor(int device_id) const;
  bool partitioned() const { return partition_depth_ > 0; }

  // Aggregates for ExperimentResult / bench tables.
  size_t faults_injected() const { return faults_injected_; }
  size_t device_failures() const { return device_failures_; }
  size_t devices_recovered() const { return devices_recovered_; }
  // Total device-down time summed over devices; `end` closes intervals of
  // devices still down (e.g. permanent failures) at that timestamp.
  double TotalDowntimeMs(TimeMs end) const;
  // Control-plane aggregates for ControlMetrics.
  size_t ctrl_events_injected() const { return ctrl_events_injected_; }
  size_t partitions() const { return partitions_; }
  size_t watch_losses() const { return watch_losses_; }
  size_t scheduler_crashes() const { return scheduler_crashes_; }

 private:
  struct DeviceState {
    int down_count = 0;
    bool permanent = false;
    TimeMs down_since = -1.0;
    double downtime_accum_ms = 0.0;
    std::vector<double> straggler_factors;
    int feedback_loss_count = 0;
  };

  void DeviceDown(int device_id, bool permanent);
  void DeviceUp(int device_id);
  void StragglerStart(int device_id, double severity);
  void StragglerEnd(int device_id, double severity);
  void FeedbackLost(int device_id);
  void FeedbackRestored(int device_id);
  void PartitionStart();
  void PartitionEnd();
  void WatchesLost();
  void SchedulerCrash(TimeMs restart_delay_ms);
  // `lane` is the device id, or -1 for a control transition.
  void EmitInstant(const char* category, const char* name, int lane, double arg_value,
                   const char* arg_key);

  Simulator* sim_;
  FaultSink* sink_;
  ControlFaultSink* ctrl_sink_;
  int num_devices_;
  int num_nodes_;
  Telemetry* telemetry_;
  std::vector<DeviceState> state_;
  int partition_depth_ = 0;
  size_t faults_injected_ = 0;
  size_t device_failures_ = 0;
  size_t devices_recovered_ = 0;
  size_t ctrl_events_injected_ = 0;
  size_t partitions_ = 0;
  size_t watch_losses_ = 0;
  size_t scheduler_crashes_ = 0;
};

}  // namespace mudi

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
