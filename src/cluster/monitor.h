// Per-device QPS/latency Monitor (paper §3.2 module 5, §6).
//
// Tracks the measured request rate and tail latency of the inference service
// on one device. Reports when the QPS change since the last tuning trigger
// exceeds the threshold (50%, §5.3.2) so the Tuner can re-scale resources,
// and exposes windowed weighted P99 for SLO-risk detection.
#ifndef SRC_CLUSTER_MONITOR_H_
#define SRC_CLUSTER_MONITOR_H_

#include <deque>
#include <optional>
#include <utility>

#include "src/sim/simulator.h"

namespace mudi {

class Telemetry;

class QpsMonitor {
 public:
  struct Options {
    // Width of the rate-estimation window.
    TimeMs window_ms = 5.0 * kMsPerSecond;
    // Relative change that triggers retuning (paper: 50%).
    double change_threshold = 0.5;
    // Latency window size (cohorts) for P99 tracking.
    size_t latency_window = 512;
  };

  QpsMonitor();
  explicit QpsMonitor(Options options);

  // Records `count` request arrivals at time `now`.
  void RecordArrivals(TimeMs now, double count);

  // Records a completed request latency shared by `weight` requests.
  void RecordLatency(double latency_ms, double weight = 1.0);

  // Estimated arrival rate over the trailing window.
  double CurrentQps(TimeMs now);

  // True when |qps - qps_at_last_ack| exceeds the relative threshold.
  // The caller acknowledges a trigger with AckQpsChange, resetting the base.
  bool QpsChangedBeyondThreshold(TimeMs now);
  void AckQpsChange(TimeMs now);
  double base_qps() const { return base_qps_; }

  // Weighted P99 latency over the trailing cohort window; 0 with no samples.
  double P99LatencyMs() const;
  bool has_latency_samples() const { return !latencies_.empty(); }

  // --- feedback loss (fault injection) ---
  // While feedback is lost the monitor stops ingesting samples and freezes
  // CurrentQps at its value when the loss began; QpsChangedBeyondThreshold
  // never triggers on frozen data. After restoration the estimate stays
  // frozen for one window (the arrivals buffer must refill) before going
  // live again — StalenessMs reports how old the frozen value is.
  void SetFeedbackLost(bool lost, TimeMs now);
  bool feedback_lost() const { return feedback_lost_; }
  // Age of the value CurrentQps would return, or nullopt when the estimate
  // is live (not frozen, not warming up).
  std::optional<TimeMs> StalenessMs(TimeMs now) const;

  // Emits a "monitor/qps_reack" instant event on the device's trace lane and
  // counts re-acks each time the tuner acknowledges a QPS change.
  void SetTelemetry(Telemetry* telemetry, int device_id);

 private:
  void EvictOld(TimeMs now);

  Telemetry* telemetry_ = nullptr;
  int device_id_ = -1;
  Options options_;
  std::deque<std::pair<TimeMs, double>> arrivals_;  // (time, count) cohorts
  double arrivals_in_window_ = 0.0;
  double base_qps_ = -1.0;  // rate at last Ack; <0 until first Ack
  std::deque<std::pair<double, double>> latencies_;  // (latency, weight)
  bool feedback_lost_ = false;
  double frozen_qps_ = 0.0;       // CurrentQps captured when feedback was lost
  TimeMs frozen_at_ms_ = -1.0;    // when the frozen value was last fresh
  TimeMs stale_until_ms_ = -1.0;  // post-restore warm-up deadline
};

}  // namespace mudi

#endif  // SRC_CLUSTER_MONITOR_H_
