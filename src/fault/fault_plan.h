// Declarative fault schedules for the simulation stack.
//
// A FaultPlan is one timeline of typed faults pinned to virtual timestamps,
// over two domains: the devices (failures, stragglers, lost monitor
// feedback; DESIGN.md §9) and the control plane (KvStore partitions, watch
// loss, scheduler crashes; DESIGN.md §13), plus a store-wide KvStore
// degradation that is active for the whole run. Plans are plain data:
// building one performs no side effects, and arming the same plan against
// the same seeded experiment reproduces the exact same run — fault injection
// never draws randomness of its own. An empty plan is the degenerate case and
// must leave every experiment byte-identical to a run without fault
// machinery at all.
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "src/cluster/kv_store.h"
#include "src/common/status.h"
#include "src/sim/simulator.h"

namespace mudi {

enum class FaultKind {
  // Device stops serving and drops its trainings; comes back after
  // `duration_ms` with a restarted (initial-config) inference replica.
  kTransientDeviceFailure,
  // Device never comes back; displaced work must be re-placed elsewhere.
  kPermanentDeviceFailure,
  // All devices of one node fail at once (transient when duration_ms > 0,
  // permanent otherwise).
  kNodeFailure,
  // Straggler episode: every oracle latency on the device is inflated by
  // `severity` (>= 1) for `duration_ms`. The device keeps serving.
  kStraggler,
  // The device's QPS/latency monitor stops receiving feedback for
  // `duration_ms`: measured QPS freezes at its last value and stays stale for
  // one monitor window after restoration.
  kMonitorFeedbackLoss,
  // The KvStore is unreachable for `duration_ms`: watch notifications inside
  // the window are lost (not buffered) and control-plane reads fail
  // Unavailable. Overlapping windows collapse into one partition edge pair.
  kKvPartition,
  // Every registered watch dies at `at_ms` (the etcd-connection-drop
  // analogue), killing in-flight deliveries too; consumers must re-establish
  // through src/sim/retry.h and catch up with a control-plane read.
  kWatchLoss,
  // The scheduler/coordinator process crashes at `at_ms` and restarts
  // `duration_ms` later, then reconstructs its view from a KvStore scan
  // (routed through retry, so a concurrent partition stretches recovery).
  kSchedulerCrash,
};

const char* FaultKindName(FaultKind kind);

// True for the control-plane kinds, which target no device or node.
bool IsControlFault(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kTransientDeviceFailure;
  TimeMs at_ms = 0.0;
  // For failures: <= 0 means permanent. Required > 0 for straggler,
  // feedback-loss and partition windows. kSchedulerCrash: restart delay (the
  // time until the replacement process begins its recovery scan).
  // kWatchLoss: unused.
  TimeMs duration_ms = 0.0;
  int device_id = -1;  // target for the device kinds except kNodeFailure
  int node_id = -1;    // target for kNodeFailure
  double severity = 1.0;  // straggler latency multiplier (>= 1)
};

struct FaultPlan {
  // Store-wide KvStore degradation, active from Run() start to end. all-zero
  // = the pristine synchronous store.
  KvDegradeOptions degrade;
  std::vector<FaultSpec> faults;

  bool empty() const { return !degrade.any() && faults.empty(); }
  size_t size() const { return faults.size(); }
  // A degradation or a control-kind fault: the run needs a control plane.
  bool HasControlFaults() const;

  FaultPlan& Add(FaultSpec spec) {
    faults.push_back(spec);
    return *this;
  }

  // Convenience builders: devices.
  FaultPlan& FailDevice(int device_id, TimeMs at_ms, TimeMs duration_ms);
  FaultPlan& FailDevicePermanently(int device_id, TimeMs at_ms);
  FaultPlan& FailNode(int node_id, TimeMs at_ms, TimeMs duration_ms);
  FaultPlan& AddStraggler(int device_id, TimeMs at_ms, TimeMs duration_ms, double severity);
  FaultPlan& LoseFeedback(int device_id, TimeMs at_ms, TimeMs duration_ms);
  // Convenience builders: control plane.
  FaultPlan& DegradeWatches(TimeMs delay_ms, TimeMs jitter_ms, double drop_prob);
  FaultPlan& StaleReads(double prob, uint64_t rev_lag);
  FaultPlan& Partition(TimeMs at_ms, TimeMs duration_ms);
  FaultPlan& LoseWatches(TimeMs at_ms);
  FaultPlan& CrashScheduler(TimeMs at_ms, TimeMs restart_delay_ms);

  // Checks timings, severities and the degradation (every value must be
  // finite), and the targets of the device kinds against the cluster shape.
  Status Validate(int num_devices, int num_nodes) const;
};

// The standard deterministic chaos schedule used by the `chaos` preset and
// bench_fig19: a transient device failure, a straggler episode, a
// monitor-feedback loss window, a permanent device failure, and a transient
// node blackout, spread over the first ~6 minutes of virtual time. Targets
// are derived from the cluster shape so the schedule is valid for any
// cluster with at least one node of at least one device.
FaultPlan StandardChaosPlan(int num_devices, int num_nodes);

std::string FaultSpecDebugString(const FaultSpec& spec);

}  // namespace mudi

#endif  // SRC_FAULT_FAULT_PLAN_H_
