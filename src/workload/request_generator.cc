#include "src/workload/request_generator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace mudi {

ConstantQps::ConstantQps(double qps) : qps_(qps) { MUDI_CHECK_GE(qps, 0.0); }

double ConstantQps::QpsAt(TimeMs) const { return qps_; }

FluctuatingQps::FluctuatingQps(Options options) : options_(options), rng_(options.seed) {
  MUDI_CHECK_LT(options_.min_qps, options_.max_qps);
  MUDI_CHECK_GT(options_.step_ms, 0.0);
  n_ = static_cast<size_t>(options_.horizon_ms / options_.step_ms) + 2;
  range_ = options_.max_qps - options_.min_qps;
  level_ = rng_.Uniform(options_.min_qps + 0.25 * range_, options_.max_qps - 0.25 * range_);
  drift_ = rng_.Uniform(-0.01, 0.01) * range_;
}

void FluctuatingQps::ExtendTo(size_t count) const {
  count = std::min(count, n_);
  while (samples_.size() < count) {
    samples_.push_back(level_);
    if (rng_.Uniform() < options_.inflection_prob) {
      drift_ = rng_.Uniform(-0.02, 0.02) * range_;
    }
    level_ += drift_ + rng_.Normal(0.0, options_.noise_frac * range_);
    if (level_ < options_.min_qps) {
      level_ = options_.min_qps;
      drift_ = std::abs(drift_);
    } else if (level_ > options_.max_qps) {
      level_ = options_.max_qps;
      drift_ = -std::abs(drift_);
    }
  }
}

double FluctuatingQps::QpsAt(TimeMs t) const {
  if (t <= 0.0) {
    ExtendTo(1);
    return samples_.front();
  }
  double pos = t / options_.step_ms;
  size_t idx = static_cast<size_t>(pos);
  if (idx + 1 >= n_) {
    ExtendTo(n_);
    return samples_.back();
  }
  ExtendTo(idx + 2);
  double frac = pos - static_cast<double>(idx);
  return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

ScaledQps::ScaledQps(std::shared_ptr<const QpsProfile> base, double factor)
    : base_(std::move(base)), factor_(factor) {
  MUDI_CHECK(base_ != nullptr);
  MUDI_CHECK_GE(factor, 0.0);
}

double ScaledQps::QpsAt(TimeMs t) const { return factor_ * base_->QpsAt(t); }

BurstyQps::BurstyQps(std::shared_ptr<const QpsProfile> base, std::vector<Burst> bursts)
    : base_(std::move(base)), bursts_(std::move(bursts)) {
  MUDI_CHECK(base_ != nullptr);
  for (const Burst& b : bursts_) {
    MUDI_CHECK_LT(b.start_ms, b.end_ms);
    MUDI_CHECK_GT(b.factor, 0.0);
  }
}

double BurstyQps::QpsAt(TimeMs t) const {
  double qps = base_->QpsAt(t);
  for (const Burst& b : bursts_) {
    if (t >= b.start_ms && t < b.end_ms) {
      qps *= b.factor;
    }
  }
  return qps;
}

TimeMs NextArrivalGap(const QpsProfile& profile, TimeMs now, Rng& rng) {
  double qps = profile.QpsAt(now);
  if (qps <= 0.0) {
    // No load right now; probe again after a second.
    return kMsPerSecond;
  }
  double mean_gap_ms = kMsPerSecond / qps;
  return rng.ExponentialMean(mean_gap_ms);
}

}  // namespace mudi
