// Deterministic random number generation for reproducible simulation.
//
// Every stochastic component takes an explicit Rng (or a seed) so that runs are
// bit-reproducible given a seed. Rng also supports cheap forking: Fork(tag)
// derives an independent child stream, so subsystems do not perturb each
// other's sequences when the workload mix changes.
//
// The engine and the hot samplers (Uniform, Normal, LogNormalFactor, Poisson
// below mean 12) are written out here, bit-identical to std::mt19937_64 and
// to libstdc++ 12's distributions over it (bits/random.tcc), so every digest
// recorded with the std versions still holds; DESIGN.md §12.6 gives the
// exactness argument per sampler. The rest keep the std distributions.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "src/common/check.h"
#include "src/common/float_eq.h"

namespace mudi {

// MT19937-64 with the output sequence of std::mt19937_64 for every seed. The
// 312-word refill (rng.cc) is written so that the compiler vectorizes it;
// tempering stays per read, so the state is the same 2.5 KB as std's.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateSize = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(uint64_t seed) {
    state_[0] = seed;
    for (size_t i = 1; i < kStateSize; ++i) {
      uint64_t prev = state_[i - 1];
      state_[i] = (prev ^ (prev >> 62)) * 6364136223846793005ull + i;
    }
  }

  result_type operator()() {
    if (index_ >= kStateSize) {
      Refill();
    }
    uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  // Regenerates all 312 state words (the twist); resets index_ to 0.
  void Refill();

  uint64_t state_[kStateSize];
  size_t index_ = kStateSize;
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(Scramble(seed)), seed_lineage_(Scramble(seed)) {}

  // Derives an independent stream from this rng's seed lineage and `tag`.
  Rng Fork(uint64_t tag) const { return Rng(seed_lineage_ ^ Scramble(tag)); }

  // Uniform double in [0, 1).
  double Uniform() { return Canonical(); }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    MUDI_CHECK_LT(lo, hi);
    return Canonical() * (hi - lo) + lo;
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    MUDI_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Standard normal scaled to (mean, stddev).
  double Normal(double mean, double stddev) { return StandardNormal() * stddev + mean; }

  // Log-normal multiplicative noise centred at 1.0 with the given sigma
  // (of the underlying normal). Used for observation noise in the oracle.
  double LogNormalFactor(double sigma) {
    return std::exp(StandardNormal() * sigma + -0.5 * sigma * sigma);
  }

  // Exponential with the given mean (not rate).
  double ExponentialMean(double mean) {
    MUDI_CHECK_GT(mean, 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Poisson-distributed count with the given mean.
  int64_t Poisson(double mean) {
    MUDI_CHECK_GE(mean, 0.0);
    if (ExactEq(mean, 0.0)) {
      return 0;
    }
    if (mean >= 12.0) {
      return std::poisson_distribution<int64_t>(mean)(engine_);
    }
    // libstdc++'s small-mean method: multiply uniforms until the product
    // falls to exp(-mean) or below.
    const double threshold = std::exp(-mean);
    int64_t count = 0;
    double product = 1.0;
    do {
      product *= Canonical();
      ++count;
    } while (product > threshold);
    return count - 1;
  }

  // Pareto (heavy-tailed) sample with scale x_m and shape alpha.
  double Pareto(double scale, double shape) {
    MUDI_CHECK_GT(scale, 0.0);
    MUDI_CHECK_GT(shape, 0.0);
    double u = Uniform();
    // Guard against u == 0 which would yield infinity.
    if (u < 1e-12) {
      u = 1e-12;
    }
    return scale / std::pow(u, 1.0 / shape);
  }

  // Samples an index according to non-negative weights (need not sum to 1).
  size_t WeightedIndex(const std::vector<double>& weights) {
    MUDI_CHECK(!weights.empty());
    double total = 0.0;
    for (double w : weights) {
      MUDI_CHECK_GE(w, 0.0);
      total += w;
    }
    MUDI_CHECK_GT(total, 0.0);
    double r = Uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r <= 0.0) {
        return i;
      }
    }
    return weights.size() - 1;
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  // generate_canonical<double, 53>: double(u) / 2^64, rounded to nearest,
  // clamped below 1. The unsigned-to-double conversion is done by hand: for
  // u >= 2^55 at least three bits are rounded off, so halving u with the
  // dropped bit kept as a sticky bit rounds identically and fits a signed
  // conversion; below 2^55 (one draw in 512) u converts directly.
  double Canonical() {
    uint64_t u = engine_();
    double r = u >= (uint64_t{1} << 55)
                   ? static_cast<double>(static_cast<int64_t>((u >> 1) | (u & 1))) * 0x1p-63
                   : static_cast<double>(static_cast<int64_t>(u)) * 0x1p-64;
    return r >= 1.0 ? 0x1.fffffffffffffp-1 : r;
  }

  // normal_distribution's Marsaglia polar method. It returns the second
  // value of each pair; the first is discarded, as a fresh std distribution
  // per call discarded it.
  double StandardNormal() {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * Canonical() - 1.0;
      y = 2.0 * Canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || ExactEq(r2, 0.0));
    return y * std::sqrt(-2 * std::log(r2) / r2);
  }

  // splitmix64 finalizer: decorrelates nearby seeds.
  static uint64_t Scramble(uint64_t x) {
    x += 0x9E3779B97f4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  Mt19937_64 engine_;
  uint64_t seed_lineage_ = 0;
};

}  // namespace mudi

#endif  // SRC_COMMON_RNG_H_
