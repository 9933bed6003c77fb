#include "src/telemetry/metrics_registry.h"

#include <algorithm>
#include <ostream>
#include <set>

#include "src/common/json.h"

namespace mudi {
namespace telemetry {

Histogram::Histogram(std::vector<double> upper_bounds) : upper_bounds_(std::move(upper_bounds)) {
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  bucket_counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  size_t i = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  ++bucket_counts_[i];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::ApproxQuantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    double next = cum + static_cast<double>(bucket_counts_[i]);
    if (next >= target && bucket_counts_[i] > 0) {
      double lo = i == 0 ? min_ : upper_bounds_[i - 1];
      double hi = i < upper_bounds_.size() ? upper_bounds_[i] : max_;
      lo = std::max(lo, min_);
      hi = std::min(hi, max_);
      if (hi < lo) {
        return lo;
      }
      double frac = (target - cum) / static_cast<double>(bucket_counts_[i]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return max_;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::GetGauge(const std::string& name) { return gauges_[name]; }

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(upper_bounds))).first;
  }
  return it->second;
}

std::vector<double> MetricsRegistry::DefaultLatencyBucketsMs() {
  std::vector<double> edges;
  for (double e = 1.0; e <= 60000.0; e *= 2.0) {
    edges.push_back(e);
  }
  return edges;
}

void MetricsRegistry::RecordSnapshot(double time_ms) {
  Snapshot snap;
  snap.time_ms = time_ms;
  for (const auto& [name, c] : counters_) {
    snap.values.emplace_back(name, c.value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.values.emplace_back(name, g.value());
  }
  for (const auto& [name, h] : histograms_) {
    snap.values.emplace_back(name + ".count", static_cast<double>(h.count()));
    snap.values.emplace_back(name + ".mean", h.mean());
  }
  std::sort(snap.values.begin(), snap.values.end());
  snapshots_.push_back(std::move(snap));
}

void MetricsRegistry::WriteSnapshotsCsv(std::ostream& os) const {
  std::set<std::string> columns;
  for (const auto& snap : snapshots_) {
    for (const auto& [key, value] : snap.values) {
      columns.insert(key);
    }
  }
  os << "time_ms";
  for (const auto& col : columns) {
    os << ',' << col;
  }
  os << '\n';
  for (const auto& snap : snapshots_) {
    os << snap.time_ms;
    // snap.values is sorted, columns is sorted: merge-scan.
    auto it = snap.values.begin();
    for (const auto& col : columns) {
      while (it != snap.values.end() && it->first < col) {
        ++it;
      }
      os << ',';
      if (it != snap.values.end() && it->first == col) {
        os << it->second;
      }
    }
    os << '\n';
  }
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    WriteJsonString(os, name);
    os << ':';
    WriteJsonNumber(os, c.value());
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    WriteJsonString(os, name);
    os << ':';
    WriteJsonNumber(os, g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    WriteJsonString(os, name);
    os << ":{\"count\":" << h.count() << ",\"mean\":";
    WriteJsonNumber(os, h.mean());
    os << ",\"min\":";
    WriteJsonNumber(os, h.min());
    os << ",\"max\":";
    WriteJsonNumber(os, h.max());
    os << ",\"p50\":";
    WriteJsonNumber(os, h.ApproxQuantile(0.5));
    os << ",\"p99\":";
    WriteJsonNumber(os, h.ApproxQuantile(0.99));
    os << '}';
  }
  os << "}}";
}

}  // namespace telemetry
}  // namespace mudi
