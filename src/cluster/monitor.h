// Per-device QPS/latency Monitor (paper §3.2 module 5, §6).
//
// Tracks the measured request rate and tail latency of the inference service
// on one device. Reports when the QPS change since the last tuning trigger
// exceeds the threshold (50%, §5.3.2) so the Tuner can re-scale resources,
// and exposes windowed weighted P99 for SLO-risk detection.
//
// Both windows are ring buffers over vectors that only ever grow, so once a
// monitor has seen its peak window the per-sample methods allocate nothing.
#ifndef SRC_CLUSTER_MONITOR_H_
#define SRC_CLUSTER_MONITOR_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/common/stats.h"
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
  // The window is copied into `*scratch` and sorted there: one buffer kept
  // by the caller serves every monitor it reads.
  double P99LatencyMs(std::vector<WeightedSample>* scratch) const;
  // P99LatencyMs(scratch) > threshold_ms. The P99 is one of the window's
  // latencies, so a window with none above the threshold is answered
  // without the copy and sort.
  bool P99ExceedsMs(double threshold_ms, std::vector<WeightedSample>* scratch) const;
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
  // Doubles the arrivals ring (it is full), keeping the cohorts in order.
  void GrowArrivals();
  // Appends to the latency window while it is below `latency_window`.
  void GrowLatencies(double latency_ms, double weight);

  Telemetry* telemetry_ = nullptr;
  int device_id_ = -1;
  Options options_;
  // Arrivals ring: (time, count) cohorts, oldest at arrivals_head_. The
  // vector's size is the ring capacity, 0 or a power of two.
  std::vector<std::pair<TimeMs, double>> arrivals_;
  size_t arrivals_head_ = 0;
  size_t arrivals_size_ = 0;
  double arrivals_in_window_ = 0.0;
  double base_qps_ = -1.0;  // rate at last Ack; <0 until first Ack
  // Latency window: (latency, weight) samples. It grows up to
  // latency_window; from then on latencies_head_ is the oldest sample, the
  // next one overwritten.
  std::vector<WeightedSample> latencies_;
  size_t latencies_head_ = 0;
  bool feedback_lost_ = false;
  double frozen_qps_ = 0.0;       // CurrentQps captured when feedback was lost
  TimeMs frozen_at_ms_ = -1.0;    // when the frozen value was last fresh
  TimeMs stale_until_ms_ = -1.0;  // post-restore warm-up deadline
};

}  // namespace mudi

#endif  // SRC_CLUSTER_MONITOR_H_
