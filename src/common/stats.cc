#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace mudi {

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) {
    return 0.0;
  }
  double mean = Mean(values);
  double sq = 0.0;
  for (double v : values) {
    sq += (v - mean) * (v - mean);
  }
  return std::sqrt(sq / static_cast<double>(values.size()));
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  MUDI_CHECK(!sorted.empty());
  MUDI_CHECK_GE(p, 0.0);
  MUDI_CHECK_LE(p, 100.0);
  if (sorted.size() == 1) {
    return sorted[0];
  }
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Percentile(std::vector<double> values, double p) {
  MUDI_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, p);
}

double WeightedP99(std::vector<WeightedSample>* samples) {
  if (samples->empty()) {
    return 0.0;
  }
  std::sort(samples->begin(), samples->end());
  double total = 0.0;
  for (const auto& [value, w] : *samples) {
    total += w;
  }
  double target = 0.99 * total;
  double cum = 0.0;
  for (const auto& [value, w] : *samples) {
    cum += w;
    if (cum >= target) {
      return value;
    }
  }
  return samples->back().first;
}

bool AnyValueAbove(const std::vector<WeightedSample>& samples, double threshold) {
  return std::any_of(samples.begin(), samples.end(),
                     [threshold](const WeightedSample& s) { return s.first > threshold; });
}

std::optional<double> WeightedP99FromTail(std::vector<WeightedSample>* tail,
                                          double total_weight) {
  double cum = total_weight;
  for (const auto& [value, w] : *tail) {
    cum -= w;
  }
  double target = 0.99 * total_weight;
  if (tail->empty() || cum >= target) {
    return std::nullopt;  // the below-threshold prefix already reaches the P99
  }
  std::sort(tail->begin(), tail->end());
  for (const auto& [value, w] : *tail) {
    cum += w;
    if (cum >= target) {
      return value;
    }
  }
  return tail->back().first;
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, size_t num_points) {
  std::vector<CdfPoint> cdf;
  if (values.empty()) {
    return cdf;
  }
  std::sort(values.begin(), values.end());
  num_points = std::max<size_t>(num_points, 2);
  cdf.reserve(num_points);
  for (size_t i = 0; i < num_points; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(num_points - 1);
    size_t idx = std::min(values.size() - 1,
                          static_cast<size_t>(frac * static_cast<double>(values.size() - 1)));
    cdf.push_back({values[idx], static_cast<double>(idx + 1) / static_cast<double>(values.size())});
  }
  return cdf;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  MUDI_CHECK_GT(alpha, 0.0);
  MUDI_CHECK_LE(alpha, 1.0);
}

void Ewma::Add(double value) {
  if (!has_value_) {
    value_ = value;
    has_value_ = true;
  } else {
    value_ = alpha_ * value + (1.0 - alpha_) * value_;
  }
}

void Ewma::Reset() {
  value_ = 0.0;
  has_value_ = false;
}

SlidingWindow::SlidingWindow(size_t capacity) : capacity_(capacity) {
  MUDI_CHECK_GT(capacity, 0u);
}

void SlidingWindow::Add(double value) {
  if (values_.size() == capacity_) {
    values_.pop_front();
  }
  values_.push_back(value);
}

void SlidingWindow::Clear() { values_.clear(); }

double SlidingWindow::Mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum / static_cast<double>(values_.size());
}

double SlidingWindow::Percentile(double p) const {
  MUDI_CHECK(!values_.empty());
  std::vector<double> copy(values_.begin(), values_.end());
  return ::mudi::Percentile(std::move(copy), p);
}

void TimeWeightedMean::Add(double value, double duration) {
  MUDI_CHECK_GE(duration, 0.0);
  weighted_sum_ += value * duration;
  total_duration_ += duration;
}

double TimeWeightedMean::value() const {
  if (total_duration_ <= 0.0) {
    return 0.0;
  }
  return weighted_sum_ / total_duration_;
}

Histogram::Histogram(double lo, double hi, size_t num_buckets)
    : lo_(lo), hi_(hi), counts_(num_buckets, 0) {
  MUDI_CHECK_LT(lo, hi);
  MUDI_CHECK_GT(num_buckets, 0u);
}

void Histogram::Add(double value) {
  double frac = (value - lo_) / (hi_ - lo_);
  auto idx = static_cast<int64_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<int64_t>(idx, 0, static_cast<int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(idx)];
  ++total_;
}

double Histogram::BucketLow(size_t i) const {
  MUDI_CHECK_LT(i, counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::BucketHigh(size_t i) const {
  MUDI_CHECK_LT(i, counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) / static_cast<double>(counts_.size());
}

double Histogram::CumulativeFraction(size_t i) const {
  MUDI_CHECK_LT(i, counts_.size());
  if (total_ == 0) {
    return 0.0;
  }
  size_t cum = 0;
  for (size_t j = 0; j <= i; ++j) {
    cum += counts_[j];
  }
  return static_cast<double>(cum) / static_cast<double>(total_);
}

}  // namespace mudi
