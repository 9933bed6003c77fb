// Serving plane: the inference replica on every device and its serving loop
// (PAPER.md §1's per-device coordinator). It owns each replica's request
// cohorts, batching, SLO windows, shadow-instance reconfiguration (§5.3.2),
// failover routing while its device is down, and busy/swap accounting.
//
// The plane never calls the policy and holds no pointer to another plane.
// The rest of the device (training residents, memory) belongs to
// ClusterExperiment, which the plane tells through Listener whenever a
// replica's memory footprint or GPU share changes.
#ifndef SRC_EXP_SERVING_PLANE_H_
#define SRC_EXP_SERVING_PLANE_H_

#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/cluster/monitor.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/exp/metrics.h"
#include "src/gpu/perf_oracle.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/request_generator.h"

namespace mudi {

struct ExperimentOptions;

class ServingPlane {
 public:
  class Listener {
   public:
    virtual ~Listener() = default;
    // The replica's batch (and with it its memory footprint) changed.
    virtual void RebalanceMemory(int device_id) = 0;
    // The replica's config changed: co-resident training speeds follow.
    virtual void UpdateTrainingSpeeds(int device_id) = 0;
  };

  // Places one replica per device (service round-robin, initial config).
  ServingPlane(const ExperimentOptions& options, Simulator& sim, ClusterState& cluster,
               const PerfOracle& oracle, Rng& rng, Telemetry& telemetry, Listener& listener);

  // Schedules the arrival sweeps (one per distinct arrival tick) and every
  // replica's SLO windows.
  void Start();

  // Applies a batch/GPU% pair on the device agent: the batch at once, the
  // GPU% through a shadow instance after the reconfiguration latency.
  void Reconfigure(int device_id, int batch, double gpu_fraction);

  // The device just failed: its in-flight batch fails, its queue and future
  // arrivals fail over to surviving replicas of the same service.
  void OnDeviceDown(int device_id, TimeMs now);
  // The device is back: the replica restarts from the initial config.
  void OnDeviceUp(int device_id, TimeMs now);

  // The replica's busy share of the last `dt` ms (resets the accumulator);
  // also charges `dt` to its swap-time ledger.
  double SampleBusyFraction(int device_id, TimeMs now, TimeMs dt);
  // Closes the half-open SLO windows, then fills per-service SLO/latency/
  // served metrics, swap-time fractions and the failover counts; returns
  // the total served requests.
  double Collect(ExperimentResult& result);

  QpsMonitor& monitor(int device_id) { return replicas_[static_cast<size_t>(device_id)].monitor; }
  // The replica monitor's weighted P99, sorted in the plane's one buffer.
  double P99LatencyMs(int device_id) { return monitor(device_id).P99LatencyMs(&p99_scratch_); }
  bool P99ExceedsMs(int device_id, double threshold_ms) {
    return monitor(device_id).P99ExceedsMs(threshold_ms, &p99_scratch_);
  }

 private:
  struct Cohort {
    TimeMs arrival_ms;
    double count;
  };

  struct Replica {
    std::shared_ptr<const QpsProfile> qps;
    QpsMonitor monitor;
    std::deque<Cohort> queue;
    double queued = 0.0;
    bool busy = false;
    TimeMs busy_start = 0.0;
    TimeMs busy_accum_ms = 0.0;  // busy time since last util sample
    Simulator::EventId timeout_event = Simulator::kInvalidEventId;
    // In-flight batch: its completion event and the request cohorts it
    // carries, so a device failure can fail them instead of losing them.
    Simulator::EventId batch_event = Simulator::kInvalidEventId;
    std::vector<std::pair<TimeMs, double>> inflight;  // (arrival, count)
    // Pending GPU% reconfiguration (shadow instance warming up).
    std::optional<std::pair<int, double>> pending_config;
    Simulator::EventId pending_event = Simulator::kInvalidEventId;
    // The arrival sweep the replica belongs to (index into sweeps_); unused
    // while the device is down.
    size_t sweep = 0;
    // Per-device periodic SLO-window event, cancellable at failure time.
    Simulator::EventId slo_event = Simulator::kInvalidEventId;
    // While the device is down its traffic fails over to surviving replicas.
    Simulator::EventId failover_event = Simulator::kInvalidEventId;
    size_t reroute_cursor = 0;  // deterministic round-robin over survivors
    // SLO window accounting. The window keeps its sample count, its total
    // weight and only the samples above the SLO: the window's P99 can exceed
    // the SLO only when it is one of those (WeightedP99FromTail).
    size_t window_samples = 0;
    double window_weight = 0.0;
    std::vector<WeightedSample> window_tail;  // (latency, weight) above the SLO
    // Failure touched this window (failed/re-routed requests landed in it):
    // a violation is attributed to the fault, not to load.
    bool window_failure_tainted = false;
    size_t windows_total = 0;
    size_t windows_violated = 0;
    size_t windows_violated_failure = 0;
    double latency_weighted_sum = 0.0;
    double served = 0.0;
    // Swap-time accounting.
    double swapped_time_ms = 0.0;
    double observed_time_ms = 0.0;

    // Adds `weight` requests that took `latency_ms` to the open SLO window.
    void RecordWindowLatency(double latency_ms, double weight, double slo_ms) {
      ++window_samples;
      window_weight += weight;
      if (latency_ms > slo_ms) {
        window_tail.emplace_back(latency_ms, weight);
      }
    }
    void ClearWindow() {
      window_samples = 0;
      window_weight = 0.0;
      window_tail.clear();
    }
  };

  // One periodic event that runs ArrivalTick for each member, in ascending
  // device order: the order in which per-replica tick events at the same
  // instant would fire. Members share the period and the start, so each
  // member's tick times are the ones its own event would have produced.
  struct ArrivalSweep {
    TimeMs period = 0.0;
    std::vector<int> members;
    Simulator::EventId event = Simulator::kInvalidEventId;
  };

  const InferenceServiceSpec& Service(int device_id) const;
  // Starts a new one-member sweep for the device whose first tick is one
  // period after `start`.
  void AddSweep(int device_id, TimeMs start);
  void ScheduleSloWindows(int device_id, TimeMs start);
  void RunSweep(size_t sweep);
  void ArrivalTick(int device_id);
  void TryStartBatch(int device_id);
  // Completes the replica's in-flight batch (Replica::inflight).
  void FinishBatch(int device_id, double latency_ms);
  TimeMs WaitTimeoutMs(int device_id) const;
  TimeMs ArrivalTickMs(int device_id) const;
  // Judges the replica's open SLO window (no-op when it saw no request).
  void CloseSloWindow(int device_id);
  // Hands a cohort of the failed device's service to a surviving replica
  // (round-robin), or counts it failed when none survives.
  void RouteCohort(int failed_device, const Cohort& cohort);
  // Poisson arrivals for a down replica, re-routed to survivors.
  void FailoverArrivalTick(int failed_device);

  const ExperimentOptions& options_;
  Simulator& sim_;
  ClusterState& cluster_;
  const PerfOracle& oracle_;
  Rng& rng_;
  Telemetry& telemetry_;
  Listener& listener_;
  std::vector<Replica> replicas_;
  // Arrival sweeps; an emptied sweep is cancelled and its slot left unused.
  std::vector<ArrivalSweep> sweeps_;
  // Reused buffers: the colocation of the batch being started, and the
  // latency window being sorted for a P99 read.
  std::vector<ColocatedTraining> colocated_;
  std::vector<WeightedSample> p99_scratch_;
  double failed_requests_ = 0.0;
  double rerouted_requests_ = 0.0;
};

}  // namespace mudi

#endif  // SRC_EXP_SERVING_PLANE_H_
