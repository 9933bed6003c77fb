#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/retry.h"
#include "src/common/env.h"
#include "src/common/float_eq.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/sim/simulator.h"

namespace mudi {
namespace {

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, MeanOfEmptyIsZero) { EXPECT_EQ(Mean({}), 0.0); }

TEST(StatsTest, MeanBasic) { EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0); }

TEST(StatsTest, StdDevBasic) {
  EXPECT_DOUBLE_EQ(StdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0);
}

TEST(StatsTest, StdDevOfSingleValueIsZero) { EXPECT_EQ(StdDev({5.0}), 0.0); }

TEST(StatsTest, PercentileMedianInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
}

TEST(StatsTest, PercentileExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 5.0);
}

TEST(StatsTest, PercentileSingleValue) { EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0); }

TEST(StatsTest, P99OfUniformSequence) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(static_cast<double>(i));
  }
  EXPECT_NEAR(Percentile(v, 99.0), 99.01, 0.011);
}

TEST(StatsTest, WeightedP99SortsTheCallersBufferInPlace) {
  // cum(5) = 2, cum(7) = 3, cum(9) = 100 >= 0.99 * 100.
  std::vector<WeightedSample> samples = {{9.0, 97.0}, {5.0, 2.0}, {7.0, 1.0}};
  EXPECT_DOUBLE_EQ(WeightedP99(&samples), 9.0);
  EXPECT_EQ(samples, (std::vector<WeightedSample>{{5.0, 2.0}, {7.0, 1.0}, {9.0, 97.0}}));
  std::vector<WeightedSample> empty;
  EXPECT_DOUBLE_EQ(WeightedP99(&empty), 0.0);
}

TEST(StatsTest, AnyValueAboveIsStrict) {
  std::vector<WeightedSample> samples = {{5.0, 1.0}, {9.0, 1.0}};
  EXPECT_TRUE(AnyValueAbove(samples, 8.0));
  EXPECT_FALSE(AnyValueAbove(samples, 9.0));
  EXPECT_FALSE(AnyValueAbove({}, 0.0));
}

// Judges `window` against `threshold` both ways: WeightedP99 over the whole
// window, and WeightedP99FromTail over only the samples above the threshold
// with the total weight summed in arrival order, as the serving plane keeps
// its SLO windows. Both must agree on the verdict and on the P99's bits.
void ExpectTailJudgementMatchesFullWindow(const std::vector<WeightedSample>& window,
                                          double threshold) {
  std::vector<WeightedSample> full = window;
  double p99 = WeightedP99(&full);
  bool violated = p99 > threshold;

  std::vector<WeightedSample> tail;
  double total_weight = 0.0;
  for (const WeightedSample& s : window) {
    total_weight += s.second;
    if (s.first > threshold) {
      tail.push_back(s);
    }
  }
  std::optional<double> tail_p99 = WeightedP99FromTail(&tail, total_weight);
  ASSERT_EQ(tail_p99.has_value(), violated) << "window of " << window.size();
  if (violated) {
    EXPECT_EQ(std::bit_cast<uint64_t>(*tail_p99), std::bit_cast<uint64_t>(p99));
  }
}

TEST(StatsTest, WeightedP99FromTailMatchesFullWindowOnRandomIntegerWeights) {
  Rng rng(23);
  size_t violated = 0;
  size_t tail_but_not_violated = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto n = static_cast<size_t>(rng.UniformInt(1, 400));
    // Few distinct latencies make ties (equal values, equal pairs) common.
    double spread = rng.Uniform() < 0.3 ? 8.0 : 500.0;
    std::vector<WeightedSample> window;
    for (size_t i = 0; i < n; ++i) {
      double latency = std::floor(rng.Uniform(0.0, spread)) * 0.37;
      auto weight = static_cast<double>(rng.UniformInt(1, rng.Uniform() < 0.1 ? 5000 : 40));
      window.emplace_back(latency, weight);
    }
    // The threshold is often one of the window's own values, often near the
    // top, where the P99 sits.
    std::vector<WeightedSample> sorted = window;
    std::sort(sorted.begin(), sorted.end());
    auto last = static_cast<int64_t>(n) - 1;
    auto top_rank = static_cast<int64_t>(static_cast<double>(n) * 0.97);
    double pick = rng.Uniform();
    double threshold = rng.Uniform(0.0, spread * 0.37);
    if (pick < 0.4) {
      threshold = sorted[static_cast<size_t>(rng.UniformInt(top_rank, last))].first;
    } else if (pick < 0.7) {
      threshold = window[static_cast<size_t>(rng.UniformInt(0, last))].first;
    }
    ExpectTailJudgementMatchesFullWindow(window, threshold);
    bool any_above = AnyValueAbove(window, threshold);
    bool is_violated = WeightedP99(&sorted) > threshold;
    violated += is_violated ? 1 : 0;
    tail_but_not_violated += any_above && !is_violated ? 1 : 0;
  }
  // Every verdict path occurs often enough for the comparison to mean
  // something: violated, and a non-empty tail that does not violate.
  EXPECT_GT(violated, 200u);
  EXPECT_GT(tail_but_not_violated, 200u);
}

TEST(StatsTest, WeightedP99FromTailBoundaryCases) {
  // 0.99 * 100 is exactly 99: a below-SLO prefix weighing 99 reaches the
  // P99 by itself, so the window is not violated.
  ExpectTailJudgementMatchesFullWindow({{5.0, 60.0}, {50.0, 1.0}, {7.0, 39.0}}, 10.0);
  std::vector<WeightedSample> at_target = {{50.0, 1.0}};
  EXPECT_FALSE(WeightedP99FromTail(&at_target, 100.0));
  // One unit short: the first tail sample lands the cumulative weight
  // exactly on 99 and is the P99.
  std::vector<WeightedSample> short_by_one = {{40.0, 1.0}, {30.0, 1.0}};
  EXPECT_EQ(WeightedP99FromTail(&short_by_one, 100.0), std::optional<double>(30.0));
  ExpectTailJudgementMatchesFullWindow({{5.0, 98.0}, {40.0, 1.0}, {30.0, 1.0}}, 10.0);
  // Every sample above the SLO.
  ExpectTailJudgementMatchesFullWindow({{20.0, 3.0}, {15.0, 1.0}, {90.0, 2.0}}, 10.0);
  std::vector<WeightedSample> all_above = {{20.0, 3.0}, {15.0, 1.0}, {90.0, 2.0}};
  EXPECT_EQ(WeightedP99FromTail(&all_above, 6.0), std::optional<double>(90.0));
  // None above: nothing to sort, never violated.
  ExpectTailJudgementMatchesFullWindow({{5.0, 3.0}, {10.0, 1.0}}, 10.0);
  std::vector<WeightedSample> none;
  EXPECT_FALSE(WeightedP99FromTail(&none, 4.0));
  // A single sample, above and at the SLO.
  ExpectTailJudgementMatchesFullWindow({{11.0, 1.0}}, 10.0);
  ExpectTailJudgementMatchesFullWindow({{10.0, 1.0}}, 10.0);
  std::vector<WeightedSample> single = {{11.0, 1.0}};
  EXPECT_EQ(WeightedP99FromTail(&single, 1.0), std::optional<double>(11.0));
}

TEST(StatsTest, EmpiricalCdfMonotone) {
  std::vector<double> v{3.0, 1.0, 2.0, 5.0, 4.0};
  auto cdf = EmpiricalCdf(v, 10);
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(StatsTest, EmpiricalCdfEmptyInput) { EXPECT_TRUE(EmpiricalCdf({}).empty()); }

TEST(StatsTest, EwmaConvergesToConstant) {
  Ewma ewma(0.3);
  for (int i = 0; i < 100; ++i) {
    ewma.Add(10.0);
  }
  EXPECT_NEAR(ewma.value(), 10.0, 1e-9);
}

TEST(StatsTest, EwmaFirstValueDominates) {
  Ewma ewma(0.5);
  ewma.Add(4.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 4.0);
  ewma.Add(8.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 6.0);
}

TEST(StatsTest, EwmaReset) {
  Ewma ewma(0.5);
  ewma.Add(4.0);
  ewma.Reset();
  EXPECT_FALSE(ewma.has_value());
}

TEST(StatsTest, SlidingWindowEvictsOldest) {
  SlidingWindow window(3);
  window.Add(1.0);
  window.Add(2.0);
  window.Add(3.0);
  window.Add(4.0);  // evicts 1.0
  EXPECT_EQ(window.size(), 3u);
  EXPECT_DOUBLE_EQ(window.Mean(), 3.0);
}

TEST(StatsTest, SlidingWindowPercentile) {
  SlidingWindow window(10);
  for (int i = 1; i <= 10; ++i) {
    window.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(window.Percentile(50.0), 5.5, 1e-9);
}

TEST(StatsTest, TimeWeightedMeanWeighsByDuration) {
  TimeWeightedMean twm;
  twm.Add(1.0, 3.0);
  twm.Add(5.0, 1.0);
  EXPECT_DOUBLE_EQ(twm.value(), 2.0);
  EXPECT_DOUBLE_EQ(twm.total_duration(), 4.0);
}

TEST(StatsTest, TimeWeightedMeanEmptyIsZero) {
  TimeWeightedMean twm;
  EXPECT_EQ(twm.value(), 0.0);
}

TEST(StatsTest, HistogramBucketsAndCumulative) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) {
    h.Add(static_cast<double>(i) + 0.5);
  }
  EXPECT_EQ(h.total_count(), 10u);
  for (size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(h.buckets()[b], 1u);
  }
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(4), 0.5);
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(9), 1.0);
}

TEST(StatsTest, HistogramClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-100.0);
  h.Add(100.0);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(StatsTest, HistogramBucketEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(0), 2.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(4), 10.0);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng a(42);
  Rng fork_before = a.Fork(7);
  a.Uniform();
  a.Uniform();
  Rng fork_after = a.Fork(7);
  EXPECT_DOUBLE_EQ(fork_before.Uniform(), fork_after.Uniform());
}

TEST(RngTest, ForkDifferentTagsDiffer) {
  Rng a(42);
  Rng f1 = a.Fork(1);
  Rng f2 = a.Fork(2);
  EXPECT_NE(f1.Uniform(), f2.Uniform());
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, PoissonMeanApprox) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(4.0));
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(5);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ExponentialMeanApprox) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.ExponentialMean(7.0);
  }
  EXPECT_NEAR(sum / n, 7.0, 0.3);
}

TEST(RngTest, LogNormalFactorMeanIsOne) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.LogNormalFactor(0.05);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(RngTest, ParetoAtLeastScale) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(9);
  std::vector<double> weights{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.35);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5};
  auto copy = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

TEST(EnvTest, ParseNonNegativeIntTakesWholeDecimalStrings) {
  EXPECT_EQ(ParseNonNegativeInt("0"), 0);
  EXPECT_EQ(ParseNonNegativeInt("4096"), 4096);
  EXPECT_EQ(ParseNonNegativeInt("007"), 7);
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775807"), std::numeric_limits<int64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 5", "5 ", "10k", "abc", "0x10", "1.5"}) {
    EXPECT_EQ(ParseNonNegativeInt(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(EnvTest, ParseNonNegativeIntRejectsOutOfRange) {
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775808"), std::nullopt);
  EXPECT_EQ(ParseNonNegativeInt("99999999999999999999"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Rng against the std engine and distributions it replaces
// ---------------------------------------------------------------------------

// The reference Mt19937_64 and Rng's samplers must reproduce bit for bit.
using StdEngine = std::mt19937_64;  // NOLINT(mudi-determinism) differential-test reference only

// Rng as it was built on std: std::mt19937_64 under one libstdc++
// distribution constructed per call, seeded through the same splitmix64.
class StdReferenceRng {
 public:
  explicit StdReferenceRng(uint64_t seed) : engine_(Scramble(seed)) {}

  double Uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  double LogNormalFactor(double sigma) {
    return std::exp(std::normal_distribution<double>(-0.5 * sigma * sigma, sigma)(engine_));
  }
  double ExponentialMean(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  int64_t Poisson(double mean) {
    if (ExactEq(mean, 0.0)) {
      return 0;
    }
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  static uint64_t Scramble(uint64_t x) {
    x += 0x9E3779B97f4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  StdEngine engine_;
};

constexpr uint64_t kDifferentialSeeds[] = {1, 7, 11, 42, 0xFFFFFFFFFFFFFFFFull};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// After equal draws the two engines must also sit at the same state: the
// next two refills' worth of raw words agree. UniformInt over the whole
// int64 range returns a raw engine word offset by 2^63.
void ExpectSameEngineState(Rng& rng, StdReferenceRng& ref) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < 2 * Mt19937_64::kStateSize; ++i) {
    ASSERT_EQ(rng.UniformInt(kMin, kMax), ref.UniformInt(kMin, kMax)) << "word " << i;
  }
}

// Draws `n` values through `draw(rng)` and `draw(ref)` and compares their bits.
template <typename Draw>
void ExpectSameDoubles(uint64_t seed, size_t n, Draw draw) {
  Rng rng(seed);
  StdReferenceRng ref(seed);
  for (size_t i = 0; i < n; ++i) {
    double a = draw(rng);
    double b = draw(ref);
    ASSERT_EQ(Bits(a), Bits(b)) << "seed " << seed << " draw " << i << ": " << a << " vs " << b;
  }
  ExpectSameEngineState(rng, ref);
}

TEST(RngDifferentialTest, EngineMatchesStdAcrossRefills) {
  // 10^7 words per seed: 32 051 refills, including every word next to a
  // refill boundary.
  constexpr size_t kWords = 10'000'000;
  for (uint64_t seed : {uint64_t{0}, uint64_t{5489}, uint64_t{0x9E3779B97f4A7C15ull}}) {
    Mt19937_64 engine(seed);
    StdEngine reference(seed);
    for (size_t i = 0; i < kWords; ++i) {
      uint64_t a = engine();
      uint64_t b = reference();
      ASSERT_EQ(a, b) << "seed " << seed << " word " << i;
    }
  }
}

TEST(RngDifferentialTest, UniformMatchesGenerateCanonical) {
  // 10^6 draws per seed: about 2 000 take the u < 2^55 branch.
  for (uint64_t seed : kDifferentialSeeds) {
    ExpectSameDoubles(seed, 1'000'000, [](auto& r) { return r.Uniform(); });
  }
}

TEST(RngDifferentialTest, UniformRangeMatchesUniformRealDistribution) {
  for (uint64_t seed : kDifferentialSeeds) {
    ExpectSameDoubles(seed, 100'000, [](auto& r) { return r.Uniform(2.0, 5.0); });
    ExpectSameDoubles(seed, 100'000, [](auto& r) { return r.Uniform(-0.12, 0.12); });
    ExpectSameDoubles(seed, 100'000, [](auto& r) { return r.Uniform(0.1, 1.0); });
  }
}

TEST(RngDifferentialTest, NormalMatchesNormalDistribution) {
  for (uint64_t seed : kDifferentialSeeds) {
    ExpectSameDoubles(seed, 200'000, [](auto& r) { return r.Normal(0.0, 1.0); });
    ExpectSameDoubles(seed, 200'000, [](auto& r) { return r.Normal(3.0, 0.5); });
  }
}

TEST(RngDifferentialTest, LogNormalFactorMatchesNormalDistribution) {
  for (uint64_t seed : kDifferentialSeeds) {
    ExpectSameDoubles(seed, 200'000, [](auto& r) { return r.LogNormalFactor(0.04); });
    ExpectSameDoubles(seed, 200'000, [](auto& r) { return r.LogNormalFactor(0.5); });
  }
}

TEST(RngDifferentialTest, PoissonMatchesPoissonDistribution) {
  // Both sides of the mean-12 switch, the zero mean Rng short-circuits, and
  // a mean so small that almost every draw is 0 after one uniform.
  const double means[] = {0.0, 1e-9, 3.8, std::nextafter(12.0, 0.0), 12.0, 40.0};
  for (uint64_t seed : kDifferentialSeeds) {
    for (double mean : means) {
      Rng rng(seed);
      StdReferenceRng ref(seed);
      for (int i = 0; i < 50'000; ++i) {
        ASSERT_EQ(rng.Poisson(mean), ref.Poisson(mean))
            << "seed " << seed << " mean " << mean << " draw " << i;
      }
      ExpectSameEngineState(rng, ref);
    }
  }
}

TEST(RngDifferentialTest, PoissonStopsWhenProductEqualsThreshold) {
  // libstdc++ multiplies while the product is strictly above exp(-mean).
  // Find a seed whose first uniform u round-trips through mean = -log(u), so
  // that a first product exactly at the threshold ends the loop at 0.
  bool found = false;
  for (uint64_t seed = 1; seed <= 1000 && !found; ++seed) {
    double u = StdReferenceRng(seed).Uniform();
    double mean = -std::log(u);
    if (Bits(std::exp(-mean)) != Bits(u)) {
      continue;
    }
    found = true;
    Rng rng(seed);
    StdReferenceRng ref(seed);
    EXPECT_EQ(ref.Poisson(mean), 0) << "seed " << seed;
    EXPECT_EQ(rng.Poisson(mean), 0) << "seed " << seed;
    ExpectSameEngineState(rng, ref);
  }
  EXPECT_TRUE(found);
}

TEST(RngDifferentialTest, StdSamplersOverTheEngineMatch) {
  for (uint64_t seed : kDifferentialSeeds) {
    ExpectSameDoubles(seed, 100'000, [](auto& r) { return r.ExponentialMean(7.0); });
    ExpectSameDoubles(seed, 100'000,
                      [](auto& r) { return static_cast<double>(r.UniformInt(0, 3)); });
    ExpectSameDoubles(seed, 100'000,
                      [](auto& r) { return static_cast<double>(r.UniformInt(-5, 1'000'000)); });
    Rng rng(seed);
    StdReferenceRng ref(seed);
    for (int round = 0; round < 100; ++round) {
      std::vector<int> a(100);
      for (size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<int>(i);
      }
      std::vector<int> b = a;
      rng.Shuffle(a);
      ref.Shuffle(b);
      ASSERT_EQ(a, b) << "seed " << seed << " round " << round;
    }
    ExpectSameEngineState(rng, ref);
  }
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad batch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad batch");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInfeasible), "INFEASIBLE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOut) {
  StatusOr<std::string> v(std::string("hello"));
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

// ---------------------------------------------------------------------------
// JSON reader and writer
// ---------------------------------------------------------------------------

TEST(JsonCheckTest, ParsesScalarsArraysObjects) {
  StatusOr<JsonValue> doc =
      ParseJson(R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "s"})");
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array()[1].number(), 2.5);
  EXPECT_DOUBLE_EQ(a->array()[2].number(), -300.0);
  EXPECT_TRUE(doc->Find("b")->Find("c")->boolean());
  EXPECT_FALSE(doc->Find("b")->Find("c")->is_null());
  EXPECT_TRUE(doc->Find("b")->Find("d")->is_null());
  EXPECT_EQ(doc->Find("e")->string(), "s");
  EXPECT_TRUE(ParseJson(std::string(64, '[') + std::string(64, ']')).ok());
}

TEST(JsonCheckTest, ObjectMembersKeepDocumentOrder) {
  StatusOr<JsonValue> doc = ParseJson(R"({"z": 1, "a": 2, "z": 3, "u": "\u0041\u00e9"})");
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const std::vector<JsonValue::Member>& members = doc->object();
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "z");
  EXPECT_DOUBLE_EQ(doc->Find("z")->number(), 1.0);  // first match wins
  EXPECT_EQ(doc->Find("u")->string(), "A?");         // non-ASCII degrades to '?'
}

TEST(JsonCheckTest, RejectsMalformedInput) {
  const std::vector<std::string> malformed = {
      "",
      "{",
      "{\"a\": }",
      "[1, 2,]",
      "{\"a\": 1,}",
      "[1 2]",
      "{1: 2}",
      "\"unterminated",
      "{} trailing",
      "nul",
      "tru",
      "+1",
      ".5",
      "1.",
      "01",
      "1e",
      "-",
      "0x10",
      "\"\\x\"",
      "\"\\u12\"",
      "\"\\u00zz\"",
      "\"a\x01" "b\"",
      "\"tab\there\"",
      std::string(66, '[') + std::string(66, ']'),
  };
  for (const std::string& text : malformed) {
    StatusOr<JsonValue> doc = ParseJson(text);
    ASSERT_FALSE(doc.ok()) << "accepted: " << text;
    EXPECT_NE(doc.status().message().find("JSON parse error at line"), std::string::npos)
        << doc.status().message();
  }
}

TEST(JsonCheckTest, ReportsLineInParseErrors) {
  Status status = ParseJson("{\n\"a\": oops\n}").status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos) << status.message();
}

TEST(JsonCheckTest, WriterOutputParsesBack) {
  std::string every_byte;
  for (int c = 0x01; c <= 0x7f; ++c) {
    every_byte.push_back(static_cast<char>(c));
  }
  std::ostringstream os;
  os << '[';
  WriteJsonString(os, every_byte);
  os << ',';
  WriteJsonNumber(os, std::numeric_limits<double>::quiet_NaN());
  os << ',';
  WriteJsonNumber(os, -std::numeric_limits<double>::infinity());
  os << ',';
  WriteJsonNumber(os, 1.5e-7);
  os << ']';
  StatusOr<JsonValue> doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().message() << "\n" << os.str();
  ASSERT_EQ(doc->array().size(), 4u);
  EXPECT_EQ(doc->array()[0].string(), every_byte);
  EXPECT_DOUBLE_EQ(doc->array()[1].number(), 0.0);
  EXPECT_DOUBLE_EQ(doc->array()[2].number(), 0.0);
  EXPECT_DOUBLE_EQ(doc->array()[3].number(), 1.5e-7);

  StatusOr<JsonValue> raw = ParseJson(std::string("\"a") + '\x01' + "b\"");
  ASSERT_FALSE(raw.ok());
  EXPECT_NE(raw.status().message().find("control character"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, AlignsColumns) {
  Table t({"a", "long_header"});
  t.AddRow({"xx", "1"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(TableTest, PctFormatting) { EXPECT_EQ(Table::Pct(0.256, 1), "25.6%"); }

// ---------------------------------------------------------------------------
// Retry / backoff (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, ValidateAcceptsDefaultsAndRejectsBadBounds) {
  EXPECT_TRUE(RetryPolicy{}.Validate().ok());

  RetryPolicy inverted;
  inverted.initial_backoff_ms = 100.0;
  inverted.max_backoff_ms = 10.0;
  EXPECT_FALSE(inverted.Validate().ok());

  RetryPolicy shrinking;
  shrinking.multiplier = 0.5;
  EXPECT_FALSE(shrinking.Validate().ok());

  RetryPolicy wild_jitter;
  wild_jitter.jitter_frac = 1.5;
  EXPECT_FALSE(wild_jitter.Validate().ok());
}

TEST(RetryBackoffTest, GrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100.0;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 350.0;
  policy.jitter_frac = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 1, rng), 100.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 2, rng), 200.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 3, rng), 350.0);  // capped
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 10, rng), 350.0);
}

TEST(RetryBackoffTest, JitterIsBoundedAndSeedDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100.0;
  policy.jitter_frac = 0.25;
  Rng a(42);
  Rng b(42);
  for (int k = 1; k <= 5; ++k) {
    double base = 0.0;
    {
      RetryPolicy bare = policy;
      bare.jitter_frac = 0.0;
      Rng unused(0);
      base = BackoffDelayMs(bare, k, unused);
    }
    double da = BackoffDelayMs(policy, k, a);
    double db = BackoffDelayMs(policy, k, b);
    EXPECT_DOUBLE_EQ(da, db);  // same seed, same delays
    EXPECT_GE(da, base);
    EXPECT_LT(da, base * 1.25);
  }
}

TEST(RetrierTest, SucceedsAfterFailuresWithBackoff) {
  Simulator sim;
  RetryPolicy policy;
  policy.initial_backoff_ms = 100.0;
  policy.multiplier = 2.0;
  policy.jitter_frac = 0.0;
  Retrier retrier(&sim, policy, Rng(1));

  int calls = 0;
  Status final_status = InternalError("never finished");
  int final_attempts = 0;
  retrier.Start(
      10.0,
      [&]() -> Status {
        ++calls;
        if (calls < 3) {
          return UnavailableError("partitioned");
        }
        return Status::Ok();
      },
      [&](const Status& status, int attempts) {
        final_status = status;
        final_attempts = attempts;
      });
  sim.RunUntilIdle();
  EXPECT_EQ(calls, 3);
  EXPECT_TRUE(final_status.ok());
  EXPECT_EQ(final_attempts, 3);
  EXPECT_EQ(retrier.total_retries(), 2u);
  // initial delay 10 + backoffs 100 + 200
  EXPECT_DOUBLE_EQ(sim.Now(), 310.0);
  EXPECT_FALSE(retrier.active());
}

TEST(RetrierTest, MaxAttemptsExhaustionReportsLastError) {
  Simulator sim;
  RetryPolicy policy;
  policy.jitter_frac = 0.0;
  policy.max_attempts = 3;
  Retrier retrier(&sim, policy, Rng(1));

  int calls = 0;
  Status final_status;
  retrier.Start(
      0.0, [&]() -> Status { ++calls; return UnavailableError("still down"); },
      [&](const Status& status, int) { final_status = status; });
  sim.RunUntilIdle();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(final_status.code(), StatusCode::kUnavailable);
}

TEST(RetrierTest, DeadlineStopsTheLoop) {
  Simulator sim;
  RetryPolicy policy;
  policy.initial_backoff_ms = 100.0;
  policy.jitter_frac = 0.0;
  policy.deadline_ms = 150.0;  // allows the first backoff but not the second
  Retrier retrier(&sim, policy, Rng(1));

  int calls = 0;
  Status final_status;
  retrier.Start(
      0.0, [&]() -> Status { ++calls; return UnavailableError("down"); },
      [&](const Status& status, int) { final_status = status; });
  sim.RunUntilIdle();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(final_status.code(), StatusCode::kUnavailable);
}

TEST(RetrierTest, RestartCancelsInFlightLoop) {
  // Start() during an active loop abandons it without firing its DoneFn —
  // the crash-during-recovery shape: a second crash restarts the recovery
  // loop and only the final loop reports.
  Simulator sim;
  RetryPolicy policy;
  policy.jitter_frac = 0.0;
  Retrier retrier(&sim, policy, Rng(1));

  int first_loop_done = 0;
  retrier.Start(
      100.0, [&]() -> Status { return Status::Ok(); },
      [&](const Status&, int) { ++first_loop_done; });
  sim.ScheduleAfter(50.0, [&] {
    retrier.Start(
        10.0, [&]() -> Status { return Status::Ok(); },
        [&](const Status&, int) {});
  });
  sim.RunUntilIdle();
  EXPECT_EQ(first_loop_done, 0);   // the first loop never completed
  EXPECT_DOUBLE_EQ(sim.Now(), 60.0);  // second loop ran at 50 + 10
}

TEST(RetrierTest, CancelIsIdempotentAndStopsAttempts) {
  Simulator sim;
  Retrier retrier(&sim, RetryPolicy{}, Rng(1));
  int calls = 0;
  retrier.Start(
      100.0, [&]() -> Status { ++calls; return Status::Ok(); },
      [&](const Status&, int) {});
  retrier.Cancel();
  retrier.Cancel();
  sim.RunUntilIdle();
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(retrier.active());
}

}  // namespace
}  // namespace mudi
