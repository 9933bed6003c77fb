#include "src/cluster/monitor.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/float_eq.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

QpsMonitor::QpsMonitor() : QpsMonitor(Options{}) {}

QpsMonitor::QpsMonitor(Options options) : options_(options) {
  MUDI_CHECK_GT(options_.window_ms, 0.0);
  MUDI_CHECK_GT(options_.change_threshold, 0.0);
  MUDI_CHECK_GT(options_.latency_window, 0u);
}

void QpsMonitor::GrowArrivals() {
  std::vector<std::pair<TimeMs, double>> grown(arrivals_.empty() ? 16 : 2 * arrivals_.size());
  for (size_t i = 0; i < arrivals_size_; ++i) {
    grown[i] = arrivals_[(arrivals_head_ + i) & (arrivals_.size() - 1)];
  }
  arrivals_.swap(grown);
  arrivals_head_ = 0;
}

void QpsMonitor::GrowLatencies(double latency_ms, double weight) {
  latencies_.emplace_back(latency_ms, weight);
}

// MUDI_HOT_PATH  the per-sample methods run once per arrival cohort, per
// served cohort and per monitor read; once the rings have grown to their
// peak they allocate nothing (perf_test's alloc-hook proof).
void QpsMonitor::EvictOld(TimeMs now) {
  const size_t mask = arrivals_.size() - 1;
  while (arrivals_size_ > 0 && arrivals_[arrivals_head_].first < now - options_.window_ms) {
    arrivals_in_window_ -= arrivals_[arrivals_head_].second;
    arrivals_head_ = (arrivals_head_ + 1) & mask;
    --arrivals_size_;
  }
  if (arrivals_size_ == 0) {
    arrivals_in_window_ = 0.0;
  }
}

void QpsMonitor::RecordArrivals(TimeMs now, double count) {
  MUDI_CHECK_GE(count, 0.0);
  if (feedback_lost_) {
    return;  // Samples from the device never reach the monitor.
  }
  if (arrivals_size_ == arrivals_.size()) {
    GrowArrivals();
  }
  arrivals_[(arrivals_head_ + arrivals_size_) & (arrivals_.size() - 1)] = {now, count};
  ++arrivals_size_;
  arrivals_in_window_ += count;
  EvictOld(now);
}

void QpsMonitor::RecordLatency(double latency_ms, double weight) {
  MUDI_CHECK_GE(weight, 0.0);
  if (ExactEq(weight, 0.0) || feedback_lost_) {
    return;
  }
  if (latencies_.size() < options_.latency_window) {
    GrowLatencies(latency_ms, weight);
    return;
  }
  latencies_[latencies_head_] = {latency_ms, weight};
  if (++latencies_head_ == latencies_.size()) {
    latencies_head_ = 0;
  }
}

double QpsMonitor::CurrentQps(TimeMs now) {
  if (feedback_lost_ || now < stale_until_ms_) {
    return frozen_qps_;
  }
  EvictOld(now);
  return arrivals_in_window_ / options_.window_ms * kMsPerSecond;
}

double QpsMonitor::P99LatencyMs(std::vector<WeightedSample>* scratch) const {
  // Sorting a copy of the same multiset gives the same sequence (and so the
  // same summation order) whatever the ring's rotation.
  scratch->assign(latencies_.begin(), latencies_.end());
  return WeightedP99(scratch);
}

bool QpsMonitor::P99ExceedsMs(double threshold_ms, std::vector<WeightedSample>* scratch) const {
  return AnyValueAbove(latencies_, threshold_ms) && P99LatencyMs(scratch) > threshold_ms;
}
// MUDI_HOT_PATH_END

bool QpsMonitor::QpsChangedBeyondThreshold(TimeMs now) {
  if (feedback_lost_ || now < stale_until_ms_) {
    return false;  // A frozen estimate carries no new information.
  }
  double qps = CurrentQps(now);
  if (base_qps_ < 0.0) {
    return qps > 0.0;  // first observation always triggers initial tuning
  }
  double base = std::max(base_qps_, 1e-9);
  return std::abs(qps - base_qps_) / base > options_.change_threshold;
}

void QpsMonitor::SetFeedbackLost(bool lost, TimeMs now) {
  if (lost == feedback_lost_) {
    return;
  }
  if (lost) {
    frozen_qps_ = CurrentQps(now);
    frozen_at_ms_ = now;
    feedback_lost_ = true;
    stale_until_ms_ = -1.0;
  } else {
    feedback_lost_ = false;
    // Whatever survived in the window predates the outage; drop it and keep
    // serving the frozen value until a full window of fresh samples exists.
    arrivals_head_ = 0;
    arrivals_size_ = 0;
    arrivals_in_window_ = 0.0;
    latencies_.clear();
    latencies_head_ = 0;
    stale_until_ms_ = now + options_.window_ms;
  }
}

std::optional<TimeMs> QpsMonitor::StalenessMs(TimeMs now) const {
  if (feedback_lost_ || now < stale_until_ms_) {
    return now - frozen_at_ms_;
  }
  return std::nullopt;
}

void QpsMonitor::SetTelemetry(Telemetry* telemetry, int device_id) {
  telemetry_ = (telemetry != nullptr && telemetry->enabled()) ? telemetry : nullptr;
  device_id_ = device_id;
}

void QpsMonitor::AckQpsChange(TimeMs now) {
  double previous = base_qps_;
  base_qps_ = CurrentQps(now);
  if (telemetry_ != nullptr) {
    telemetry_->metrics().GetCounter("monitor.qps_reacks").Increment();
    MUDI_TRACE_INSTANT(telemetry_, "monitor", "qps_reack", device_id_, now,
                       telemetry::TraceArgs{telemetry::TraceArg::Num("qps", base_qps_),
                                            telemetry::TraceArg::Num("prev_qps", previous)});
  }
}

}  // namespace mudi
