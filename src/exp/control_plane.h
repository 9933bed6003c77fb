// Control plane (DESIGN.md §13): the scheduler's watch-based config path
// through the registry (PAPER.md §1's etcd KvStore) and the control fault
// domain — degraded watches and reads, partitions, watch loss and scheduler
// crashes with a registry-scan recovery.
//
// ClusterExperiment builds one only when its fault plan holds a control-kind
// fault or a KvStore degradation, and its one FaultInjector drives the
// control faults into this plane's ControlFaultSink overrides. Without it,
// configs apply directly and the scheduler never goes down, so a fault-free
// run adds zero events and zero registry traffic. The plane holds
// no pointer to another plane: a delivered config and a finished recovery go
// back to the experiment through Listener.
#ifndef SRC_EXP_CONTROL_PLANE_H_
#define SRC_EXP_CONTROL_PLANE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/cluster/kv_store.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/exp/metrics.h"
#include "src/fault/fault_injector.h"
#include "src/sim/retry.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

// Registry row holding a device's health ("up", "down" or "failed"); the
// recovery scan cross-checks it against the cluster.
std::string DeviceStatusKey(int device_id);

class ControlPlane : public ControlFaultSink {
 public:
  class Listener {
   public:
    virtual ~Listener() = default;
    // A published config reached the device agent.
    virtual void ApplyDeliveredConfig(int device_id, int batch, double gpu_fraction) = 0;
    // The restarted scheduler finished its recovery scan.
    virtual void OnSchedulerRecovered() = 0;
  };

  // Turns on the registry degraded per `degrade` and registers per-device
  // config watches. `rng` seeds the registry and the retry jitter.
  ControlPlane(const KvDegradeOptions& degrade, Simulator& sim, KvStore& registry,
               const ClusterState& cluster, Rng rng, Telemetry& telemetry, Listener& listener);

  // Starts the coordinator heartbeat. Called once the fault plan is armed,
  // so a fault at the first beat's instant fires before the beat.
  void StartHeartbeat();

  bool scheduler_up() const { return scheduler_up_; }

  // Publishes a tuned config to the registry; the device agent's watch
  // applies it when (and if) the notification arrives.
  void Publish(int device_id, int batch, double gpu_fraction);

  // Fills the control-plane aggregates this plane owns (the fault counts come
  // from the FaultInjector) and mirrors them into telemetry.
  void Collect(ControlMetrics& metrics);

  // --- ControlFaultSink (driven by the FaultInjector) ---
  void OnKvPartitionStart(TimeMs now) override;
  void OnKvPartitionEnd(TimeMs now) override;
  void OnWatchesLost(TimeMs now) override;
  void OnSchedulerCrash(TimeMs restart_delay_ms, TimeMs now) override;

 private:
  void RegisterConfigWatch(int device_id);
  // Watch endpoint: parse, guard revision monotonicity, apply.
  void OnConfigDelivered(int device_id, const std::string& value, uint64_t revision);
  // Catch-up read of a device's config through the control path (used after
  // partitions heal and watches re-establish).
  Status CatchUpConfig(int device_id);
  // The recovery scan: reconstruct the scheduler's view from the registry.
  Status AttemptSchedulerRecovery();
  void FinishSchedulerRecovery();

  Simulator& sim_;
  KvStore& registry_;
  const ClusterState& cluster_;
  Telemetry& telemetry_;
  Listener& listener_;
  // Retriers for the two retried control flows.
  Retrier recovery_retrier_;
  Retrier watch_retrier_;

  bool scheduler_up_ = true;
  TimeMs scheduler_crashed_at_ = 0.0;
  size_t scheduler_recoveries_ = 0;
  double recovery_ms_sum_ = 0.0;
  size_t configs_published_ = 0;
  size_t configs_applied_ = 0;
  size_t stale_scan_entries_ = 0;
  uint64_t ckpt_epoch_ = 0;
  std::vector<KvStore::WatchId> config_watches_;  // per device; 0 = none
  std::vector<uint64_t> config_applied_rev_;      // monotonic delivery guard
  // Highest publication sequence number applied per device: catch-up reads
  // re-deliver the same publication, and this keeps configs_applied_ a true
  // count of publications that reached the device (never double-counted).
  std::vector<uint64_t> config_applied_seq_;
};

}  // namespace mudi

#endif  // SRC_EXP_CONTROL_PLANE_H_
