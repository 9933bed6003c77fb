// Inference request-arrival generation.
//
// QpsProfile abstracts the request rate of a service over virtual time; the
// serving simulator draws per-interval Poisson counts (or exponential gaps)
// against it. Implementations cover the paper's scenarios: constant-rate
// Poisson (§7.1: mean inter-arrival 5 ms), the Alibaba-style fluctuating
// traces of Fig. 1(a) (random walk with inflection points, no periodicity),
// load scaling for Fig. 15, and transient bursts for Fig. 16.
#ifndef SRC_WORKLOAD_REQUEST_GENERATOR_H_
#define SRC_WORKLOAD_REQUEST_GENERATOR_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"

namespace mudi {

class QpsProfile {
 public:
  virtual ~QpsProfile() = default;
  // Instantaneous queries-per-second at virtual time t.
  virtual double QpsAt(TimeMs t) const = 0;
};

class ConstantQps : public QpsProfile {
 public:
  explicit ConstantQps(double qps);
  double QpsAt(TimeMs t) const override;

 private:
  double qps_;
};

// Random-walk QPS between [min_qps, max_qps] with occasional inflection
// points where the drift direction/steepness changes (Fig. 1(a) shape).
// The walk lives on a fixed step_ms grid and is drawn lazily, in grid order:
// QpsAt extends it only up to the highest sample a query has needed, so a
// 60 s run of a 6-hour trace draws 14 samples instead of 4 322. The draws
// are the ones an eager pass over the grid would make, so QpsAt(t) returns
// the same bits for every t whatever order the queries come in.
// Threading: the walk state is mutable behind the const QpsAt, which is
// sound because one experiment runs on one thread and its ServingPlane is
// the only caller during a run. Do not query one instance from two threads.
class FluctuatingQps : public QpsProfile {
 public:
  struct Options {
    double min_qps = 50.0;
    double max_qps = 400.0;
    TimeMs horizon_ms = 2.0 * kMsPerHour;
    TimeMs step_ms = 5.0 * kMsPerSecond;
    // Probability per step of an inflection (drift re-draw).
    double inflection_prob = 0.02;
    // Per-step noise as a fraction of the qps range.
    double noise_frac = 0.01;
    uint64_t seed = 1;
  };

  explicit FluctuatingQps(Options options);
  double QpsAt(TimeMs t) const override;

 private:
  // Draws grid samples in order until the first min(count, n_) exist.
  void ExtendTo(size_t count) const;

  Options options_;
  size_t n_ = 0;       // samples on the whole grid
  double range_ = 0.0;  // max_qps - min_qps
  // The walk's state after the last drawn sample (see the class comment).
  mutable Rng rng_;
  mutable double level_ = 0.0;
  mutable double drift_ = 0.0;  // per step, re-drawn at inflection points
  mutable std::vector<double> samples_;
};

// Multiplies an underlying profile by a constant factor (Fig. 15 loads).
class ScaledQps : public QpsProfile {
 public:
  ScaledQps(std::shared_ptr<const QpsProfile> base, double factor);
  double QpsAt(TimeMs t) const override;

 private:
  std::shared_ptr<const QpsProfile> base_;
  double factor_;
};

// Injects multiplicative bursts into a base profile during fixed windows
// (Fig. 16: QPS momentarily bursts to 3× at t=100 s).
class BurstyQps : public QpsProfile {
 public:
  struct Burst {
    TimeMs start_ms;
    TimeMs end_ms;
    double factor;
  };

  BurstyQps(std::shared_ptr<const QpsProfile> base, std::vector<Burst> bursts);
  double QpsAt(TimeMs t) const override;

 private:
  std::shared_ptr<const QpsProfile> base_;
  std::vector<Burst> bursts_;
};

// Draws the next exponential inter-arrival gap for the instantaneous rate at
// time `now` (thinning-free approximation: adequate when rate varies slowly
// relative to gaps, which holds for all profiles above).
TimeMs NextArrivalGap(const QpsProfile& profile, TimeMs now, Rng& rng);

}  // namespace mudi

#endif  // SRC_WORKLOAD_REQUEST_GENERATOR_H_
