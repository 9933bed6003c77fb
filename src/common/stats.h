// Statistics utilities shared across the simulator, the schedulers, and the
// experiment harness: percentiles, CDFs, running means, EWMA, histograms.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

namespace mudi {

// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& values);

// Population standard deviation; 0 for fewer than 2 values.
double StdDev(const std::vector<double>& values);

// Linear-interpolated percentile, p in [0, 100]. Copies and sorts internally.
double Percentile(std::vector<double> values, double p);

// Percentile over data the caller has already sorted ascending.
double PercentileSorted(const std::vector<double>& sorted, double p);

// A (value, weight) sample: a latency shared by `weight` requests.
using WeightedSample = std::pair<double, double>;

// Weighted P99: the smallest value whose cumulative weight reaches 99% of
// the total; 0 for no samples. Sorts `*samples` in place (ascending), so a
// caller that keeps the window reuses its own buffer and no copy is made.
double WeightedP99(std::vector<WeightedSample>* samples);

// True when some sample's value exceeds `threshold`. The weighted P99 is one
// of the values, so WeightedP99 can exceed a threshold only when this holds:
// a caller that needs just that comparison skips the sort when it fails.
bool AnyValueAbove(const std::vector<WeightedSample>& samples, double threshold);

// WeightedP99 of a window from its tail only. `tail` holds exactly the
// window's samples whose value is above some threshold, and `total_weight`
// is the weight of the whole window. Returns the window's WeightedP99 when
// that is one of the tail values (so it exceeds the threshold), and nullopt
// when it lies at or below the threshold. Sorts `*tail` in place.
//
// The answer is bit-identical to WeightedP99 over the whole window when
// every weight is a whole number and the total stays below 2^53: every
// partial sum is then an exact integer whatever the order of addition, so
// `total_weight - sum(tail)` is exactly the cumulative weight WeightedP99
// holds after its below-threshold prefix, and the walk on from there visits
// the same cumulative weights over the same sorted tail.
std::optional<double> WeightedP99FromTail(std::vector<WeightedSample>* tail, double total_weight);

// Empirical CDF evaluated at a fixed number of points, for plotting/reporting.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;  // P(X <= value)
};
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, size_t num_points = 50);

// Exponentially weighted moving average.
class Ewma {
 public:
  // alpha in (0, 1]: weight of the newest observation.
  explicit Ewma(double alpha);

  void Add(double value);
  double value() const { return value_; }
  bool has_value() const { return has_value_; }
  void Reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool has_value_ = false;
};

// Fixed-capacity sliding window used for tail-latency tracking; when full,
// the oldest sample is evicted.
class SlidingWindow {
 public:
  explicit SlidingWindow(size_t capacity);

  void Add(double value);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  void Clear();

  double Mean() const;
  // Linear-interpolated percentile over the current window contents.
  double Percentile(double p) const;

 private:
  size_t capacity_;
  std::deque<double> values_;
};

// Accumulates (value, duration) pairs and reports the time-weighted mean;
// used for utilization accounting.
class TimeWeightedMean {
 public:
  void Add(double value, double duration);
  double value() const;
  double total_duration() const { return total_duration_; }

 private:
  double weighted_sum_ = 0.0;
  double total_duration_ = 0.0;
};

// Simple fixed-bucket histogram over [lo, hi); out-of-range values clamp to
// the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t num_buckets);

  void Add(double value);
  size_t total_count() const { return total_; }
  const std::vector<size_t>& buckets() const { return counts_; }
  double BucketLow(size_t i) const;
  double BucketHigh(size_t i) const;
  // Fraction of samples at or below the upper edge of bucket i.
  double CumulativeFraction(size_t i) const;

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

}  // namespace mudi

#endif  // SRC_COMMON_STATS_H_
