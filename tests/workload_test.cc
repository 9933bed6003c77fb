#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/layers.h"
#include "src/workload/models.h"
#include "src/workload/request_generator.h"
#include "src/workload/training_trace.h"

namespace mudi {
namespace {

// ---------------------------------------------------------------------------
// Layers / NetworkArchitecture
// ---------------------------------------------------------------------------

TEST(LayersTest, AllLayerTypesNamed) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumLayerTypes; ++i) {
    names.insert(LayerTypeName(static_cast<LayerType>(i)));
  }
  EXPECT_EQ(names.size(), kNumLayerTypes);  // distinct names
  EXPECT_TRUE(names.count("conv"));
  EXPECT_TRUE(names.count("batch_normalization"));
  EXPECT_TRUE(names.count("other_layers"));
}

TEST(LayersTest, MakeArchitectureSetsCounts) {
  auto arch = MakeArchitecture({{LayerType::kConv, 5}, {LayerType::kFc, 2}});
  EXPECT_EQ(arch.count(LayerType::kConv), 5);
  EXPECT_EQ(arch.count(LayerType::kFc), 2);
  EXPECT_EQ(arch.count(LayerType::kPooling), 0);
  EXPECT_EQ(arch.total_layers(), 7);
}

TEST(LayersTest, FeatureVectorOrderMatchesEnum) {
  auto arch = MakeArchitecture({{LayerType::kConv, 3}, {LayerType::kOther, 9}});
  auto vec = arch.ToFeatureVector();
  ASSERT_EQ(vec.size(), kNumLayerTypes);
  EXPECT_DOUBLE_EQ(vec[static_cast<size_t>(LayerType::kConv)], 3.0);
  EXPECT_DOUBLE_EQ(vec[static_cast<size_t>(LayerType::kOther)], 9.0);
}

TEST(LayersTest, PlusIsElementwiseSum) {
  auto a = MakeArchitecture({{LayerType::kConv, 2}});
  auto b = MakeArchitecture({{LayerType::kConv, 3}, {LayerType::kFc, 1}});
  auto sum = a.Plus(b);
  EXPECT_EQ(sum.count(LayerType::kConv), 5);
  EXPECT_EQ(sum.count(LayerType::kFc), 1);
}

TEST(LayersTest, EqualityOperator) {
  auto a = MakeArchitecture({{LayerType::kConv, 2}});
  auto b = MakeArchitecture({{LayerType::kConv, 2}});
  auto c = MakeArchitecture({{LayerType::kConv, 3}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------------------------------------------------------------------------
// Model zoo (Tab. 1 and Tab. 3)
// ---------------------------------------------------------------------------

TEST(ModelZooTest, SixInferenceServicesInPaperOrder) {
  const auto& services = ModelZoo::InferenceServices();
  ASSERT_EQ(services.size(), 6u);
  EXPECT_EQ(services[0].name, "ResNet50");
  EXPECT_EQ(services[1].name, "Inception");
  EXPECT_EQ(services[2].name, "GPT2");
  EXPECT_EQ(services[3].name, "BERT");
  EXPECT_EQ(services[4].name, "RoBERTa");
  EXPECT_EQ(services[5].name, "YOLOS");
}

TEST(ModelZooTest, SlosMatchTable1) {
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("ResNet50").slo_ms, 150.0);
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("Inception").slo_ms, 120.0);
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("GPT2").slo_ms, 100.0);
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("BERT").slo_ms, 330.0);
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("RoBERTa").slo_ms, 110.0);
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("YOLOS").slo_ms, 2200.0);
}

TEST(ModelZooTest, ParamCountsMatchTable1) {
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("ResNet50").params_millions, 25.6);
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("GPT2").params_millions, 335.0);
  EXPECT_DOUBLE_EQ(ModelZoo::InferenceServiceByName("BERT").params_millions, 110.0);
}

TEST(ModelZooTest, NineTrainingTasksInPaperOrder) {
  const auto& tasks = ModelZoo::TrainingTasks();
  ASSERT_EQ(tasks.size(), 9u);
  EXPECT_EQ(tasks[0].name, "VGG16");
  EXPECT_EQ(tasks[4].name, "LSTM");
  EXPECT_EQ(tasks[8].name, "ResNet18");
}

TEST(ModelZooTest, MixFractionsMatchTable3) {
  // The paper's Tab. 3 "Frac." column literally sums to 102% (3×14 + 4×12 +
  // 10 + 2); we keep the published values and normalize at sampling time.
  double total = 0.0;
  for (const auto& t : ModelZoo::TrainingTasks()) {
    total += t.mix_fraction;
  }
  EXPECT_NEAR(total, 1.02, 1e-9);
  EXPECT_DOUBLE_EQ(ModelZoo::TrainingTaskByName("VGG16").mix_fraction, 0.14);
  EXPECT_DOUBLE_EQ(ModelZoo::TrainingTaskByName("YOLOv5").mix_fraction, 0.10);
  EXPECT_DOUBLE_EQ(ModelZoo::TrainingTaskByName("ResNet18").mix_fraction, 0.02);
}

TEST(ModelZooTest, ScalesMatchTable3) {
  EXPECT_EQ(ModelZoo::TrainingTaskByName("VGG16").scale, TaskScale::kSmall);
  EXPECT_EQ(ModelZoo::TrainingTaskByName("NCF").scale, TaskScale::kMedium);
  EXPECT_EQ(ModelZoo::TrainingTaskByName("BERT").scale, TaskScale::kLarge);
  EXPECT_EQ(ModelZoo::TrainingTaskByName("ResNet18").scale, TaskScale::kXLarge);
}

TEST(ModelZooTest, OptimizersMatchTable3) {
  EXPECT_EQ(ModelZoo::TrainingTaskByName("VGG16").optimizer, "Adam");
  EXPECT_EQ(ModelZoo::TrainingTaskByName("NCF").optimizer, "SGD");
  EXPECT_EQ(ModelZoo::TrainingTaskByName("LSTM").optimizer, "Adadelta");
  EXPECT_EQ(ModelZoo::TrainingTaskByName("BERT").optimizer, "AdamW");
}

TEST(ModelZooTest, BatchSizesMatchTable3) {
  EXPECT_EQ(ModelZoo::TrainingTaskByName("VGG16").batch_size, 512);
  EXPECT_EQ(ModelZoo::TrainingTaskByName("ResNet50").batch_size, 1024);
  EXPECT_EQ(ModelZoo::TrainingTaskByName("BERT").batch_size, 32);
  EXPECT_EQ(ModelZoo::TrainingTaskByName("ResNet18").batch_size, 128);
}

TEST(ModelZooTest, GPT2HasHighControlFlowFraction) {
  // §2.2.1: control flow up to 72% of GPT2's inference stage.
  EXPECT_NEAR(ModelZoo::InferenceServiceByName("GPT2").control_flow_fraction, 0.72, 1e-9);
}

TEST(ModelZooTest, AllSpecsHavePositiveOracleParameters) {
  for (const auto& s : ModelZoo::InferenceServices()) {
    EXPECT_GT(s.preprocess_ms_per_sample, 0.0) << s.name;
    EXPECT_GT(s.transfer_ms_per_sample, 0.0) << s.name;
    EXPECT_GT(s.exec_ms_per_sample_full, 0.0) << s.name;
    EXPECT_GT(s.weights_mb, 0.0) << s.name;
    EXPECT_GT(s.arch.total_layers(), 0) << s.name;
  }
  for (const auto& t : ModelZoo::TrainingTasks()) {
    EXPECT_GT(t.iter_ms_full, 0.0) << t.name;
    EXPECT_GT(t.saturation_gpu, 0.0) << t.name;
    EXPECT_GT(t.activation_mb, 0.0) << t.name;
    EXPECT_GT(t.arch.total_layers(), 0) << t.name;
  }
}

TEST(ModelZooTest, ProfilingGrids) {
  EXPECT_EQ(ProfilingBatchSizes(), (std::vector<int>{16, 32, 64, 128, 256, 512}));
  EXPECT_EQ(ProfilingGpuFractions().size(), 9u);
  EXPECT_DOUBLE_EQ(ProfilingGpuFractions().front(), 0.1);
  EXPECT_DOUBLE_EQ(ProfilingGpuFractions().back(), 0.9);
}

TEST(ModelZooTest, ObservedTypesAreFirstFive) {
  EXPECT_EQ(ModelZoo::kNumObservedTrainingTypes, 5u);
  // §7.1: profiling covers VGG16, SqueezeNet, ResNet50, NCF, LSTM.
  EXPECT_EQ(ModelZoo::TrainingTasks()[4].name, "LSTM");
  EXPECT_EQ(ModelZoo::TrainingTasks()[5].name, "AD-GCL");  // first unseen
}

TEST(ModelZooTest, TaskScaleNames) {
  EXPECT_STREQ(TaskScaleName(TaskScale::kSmall), "S");
  EXPECT_STREQ(TaskScaleName(TaskScale::kMedium), "M");
  EXPECT_STREQ(TaskScaleName(TaskScale::kLarge), "L");
  EXPECT_STREQ(TaskScaleName(TaskScale::kXLarge), "XL");
}

// ---------------------------------------------------------------------------
// Request generators
// ---------------------------------------------------------------------------

TEST(RequestGeneratorTest, ConstantQps) {
  ConstantQps qps(200.0);
  EXPECT_DOUBLE_EQ(qps.QpsAt(0.0), 200.0);
  EXPECT_DOUBLE_EQ(qps.QpsAt(1e9), 200.0);
}

TEST(RequestGeneratorTest, FluctuatingStaysInBounds) {
  FluctuatingQps::Options options;
  options.min_qps = 100.0;
  options.max_qps = 300.0;
  options.horizon_ms = 10.0 * kMsPerMinute;
  FluctuatingQps qps(options);
  for (TimeMs t = 0.0; t < options.horizon_ms; t += 1000.0) {
    EXPECT_GE(qps.QpsAt(t), 100.0 - 1e-9);
    EXPECT_LE(qps.QpsAt(t), 300.0 + 1e-9);
  }
}

TEST(RequestGeneratorTest, FluctuatingActuallyFluctuates) {
  FluctuatingQps::Options options;
  options.seed = 3;
  FluctuatingQps qps(options);
  double lo = 1e18, hi = -1e18;
  for (TimeMs t = 0.0; t < options.horizon_ms; t += 5000.0) {
    lo = std::min(lo, qps.QpsAt(t));
    hi = std::max(hi, qps.QpsAt(t));
  }
  EXPECT_GT(hi - lo, 0.2 * (options.max_qps - options.min_qps));
}

TEST(RequestGeneratorTest, FluctuatingDeterministicPerSeed) {
  FluctuatingQps::Options options;
  options.seed = 9;
  FluctuatingQps a(options), b(options);
  EXPECT_DOUBLE_EQ(a.QpsAt(12345.0), b.QpsAt(12345.0));
}

TEST(RequestGeneratorTest, FluctuatingBeyondHorizonClamps) {
  FluctuatingQps::Options options;
  options.horizon_ms = 1000.0;
  FluctuatingQps qps(options);
  EXPECT_DOUBLE_EQ(qps.QpsAt(1e12), qps.QpsAt(1e13));
}

// The pre-lazy constructor loop, kept verbatim as the reference: it draws
// the whole grid up front from the profile's own Rng.
std::vector<double> EagerFluctuatingSamples(const FluctuatingQps::Options& options) {
  Rng rng(options.seed);
  size_t n = static_cast<size_t>(options.horizon_ms / options.step_ms) + 2;
  std::vector<double> samples;
  samples.reserve(n);
  double range = options.max_qps - options.min_qps;
  double level = rng.Uniform(options.min_qps + 0.25 * range, options.max_qps - 0.25 * range);
  double drift = rng.Uniform(-0.01, 0.01) * range;
  for (size_t i = 0; i < n; ++i) {
    samples.push_back(level);
    if (rng.Uniform() < options.inflection_prob) {
      drift = rng.Uniform(-0.02, 0.02) * range;
    }
    level += drift + rng.Normal(0.0, options.noise_frac * range);
    if (level < options.min_qps) {
      level = options.min_qps;
      drift = std::abs(drift);
    } else if (level > options.max_qps) {
      level = options.max_qps;
      drift = -std::abs(drift);
    }
  }
  return samples;
}

// The pre-lazy QpsAt over the eager samples.
double EagerQpsAt(const std::vector<double>& samples, const FluctuatingQps::Options& options,
                  TimeMs t) {
  if (t <= 0.0) {
    return samples.front();
  }
  double pos = t / options.step_ms;
  size_t idx = static_cast<size_t>(pos);
  if (idx + 1 >= samples.size()) {
    return samples.back();
  }
  double frac = pos - static_cast<double>(idx);
  return samples[idx] * (1.0 - frac) + samples[idx + 1] * frac;
}

// Lazy generation must return the eager trace's bits for every t, whatever
// order the queries come in — exact equality, not DOUBLE_EQ.
TEST(RequestGeneratorTest, LazyFluctuatingMatchesEagerBitForBit) {
  FluctuatingQps::Options options;
  options.horizon_ms = 10.0 * kMsPerMinute;  // 122 grid samples
  std::vector<TimeMs> ascending;
  for (TimeMs t = 0.0; t < options.horizon_ms + 2.0 * options.step_ms; t += 1234.5) {
    ascending.push_back(t);
  }
  std::vector<TimeMs> descending(ascending.rbegin(), ascending.rend());
  const std::vector<TimeMs> at_or_before_zero = {0.0, -1.0, -1e9};
  const std::vector<TimeMs> past_horizon = {options.horizon_ms + options.step_ms, 1e12, 1e13};
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    options.seed = seed;
    std::vector<double> eager = EagerFluctuatingSamples(options);
    std::vector<TimeMs> shuffled = ascending;
    Rng shuffle_rng(seed + 100);
    for (size_t i = shuffled.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(shuffle_rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(shuffled[i - 1], shuffled[j]);
    }
    const std::vector<TimeMs>* orders[] = {&ascending, &descending, &at_or_before_zero,
                                           &past_horizon, &shuffled};
    for (const std::vector<TimeMs>* order : orders) {
      FluctuatingQps lazy(options);  // fresh instance per query order
      for (TimeMs t : *order) {
        EXPECT_EQ(lazy.QpsAt(t), EagerQpsAt(eager, options, t)) << "seed " << seed << " t " << t;
      }
      // Whatever was drawn first, the rest of the grid stays exact.
      for (TimeMs t : ascending) {
        EXPECT_EQ(lazy.QpsAt(t), EagerQpsAt(eager, options, t)) << "seed " << seed << " t " << t;
      }
    }
  }
}

TEST(RequestGeneratorTest, ScaledQpsMultiplies) {
  auto base = std::make_shared<ConstantQps>(100.0);
  ScaledQps scaled(base, 3.0);
  EXPECT_DOUBLE_EQ(scaled.QpsAt(0.0), 300.0);
}

TEST(RequestGeneratorTest, BurstAppliesOnlyInWindow) {
  auto base = std::make_shared<ConstantQps>(100.0);
  BurstyQps bursty(base, {{1000.0, 2000.0, 3.0}});
  EXPECT_DOUBLE_EQ(bursty.QpsAt(500.0), 100.0);
  EXPECT_DOUBLE_EQ(bursty.QpsAt(1500.0), 300.0);
  EXPECT_DOUBLE_EQ(bursty.QpsAt(2000.0), 100.0);  // end exclusive
}

TEST(RequestGeneratorTest, OverlappingBurstsCompound) {
  auto base = std::make_shared<ConstantQps>(10.0);
  BurstyQps bursty(base, {{0.0, 100.0, 2.0}, {50.0, 150.0, 3.0}});
  EXPECT_DOUBLE_EQ(bursty.QpsAt(75.0), 60.0);
}

TEST(RequestGeneratorTest, NextArrivalGapMatchesRate) {
  ConstantQps qps(200.0);  // mean gap 5 ms
  Rng rng(4);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += NextArrivalGap(qps, 0.0, rng);
  }
  EXPECT_NEAR(total / n, 5.0, 0.2);
}

TEST(RequestGeneratorTest, ZeroQpsProbesAgainLater) {
  ConstantQps qps(0.0);
  Rng rng(4);
  EXPECT_DOUBLE_EQ(NextArrivalGap(qps, 0.0, rng), kMsPerSecond);
}

// ---------------------------------------------------------------------------
// Training trace
// ---------------------------------------------------------------------------

TEST(TrainingTraceTest, GeneratesRequestedCount) {
  TrainingTraceOptions options;
  options.num_tasks = 123;
  auto trace = GenerateTrainingTrace(options);
  EXPECT_EQ(trace.size(), 123u);
}

TEST(TrainingTraceTest, ArrivalsSortedAndIdsSequential) {
  TrainingTraceOptions options;
  options.num_tasks = 50;
  auto trace = GenerateTrainingTrace(options);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival_ms, trace[i - 1].arrival_ms);
    EXPECT_EQ(trace[i].task_id, static_cast<int>(i));
  }
}

TEST(TrainingTraceTest, MixFractionsApproximated) {
  TrainingTraceOptions options;
  options.num_tasks = 5000;
  auto trace = GenerateTrainingTrace(options);
  std::vector<int> counts(ModelZoo::TrainingTasks().size(), 0);
  for (const auto& a : trace) {
    ++counts[a.type_index];
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    double frac = static_cast<double>(counts[i]) / 5000.0;
    // Sampling normalizes the published fractions (they sum to 1.02).
    EXPECT_NEAR(frac, ModelZoo::TrainingTasks()[i].mix_fraction / 1.02, 0.03) << i;
  }
}

TEST(TrainingTraceTest, WorkWithinScaleClassRange) {
  TrainingTraceOptions options;
  options.num_tasks = 500;
  options.duration_compression = 1.0;  // raw GPU-hours
  auto trace = GenerateTrainingTrace(options);
  for (const auto& a : trace) {
    double lo = 0.0, hi = 0.0;
    ScaleGpuHourRange(ModelZoo::TrainingTasks()[a.type_index].scale, &lo, &hi);
    double hours = a.work_full_gpu_ms / kMsPerHour;
    EXPECT_GE(hours, lo - 1e-9);
    EXPECT_LE(hours, hi + 1e-9);
  }
}

TEST(TrainingTraceTest, CompressionDividesWork) {
  TrainingTraceOptions a, b;
  a.num_tasks = b.num_tasks = 50;
  a.duration_compression = 1.0;
  b.duration_compression = 100.0;
  auto ta = GenerateTrainingTrace(a);
  auto tb = GenerateTrainingTrace(b);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(ta[i].work_full_gpu_ms / tb[i].work_full_gpu_ms, 100.0, 1e-6);
  }
}

TEST(TrainingTraceTest, DeterministicPerSeed) {
  TrainingTraceOptions options;
  options.num_tasks = 20;
  auto a = GenerateTrainingTrace(options);
  auto b = GenerateTrainingTrace(options);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].type_index, b[i].type_index);
  }
}

TEST(TrainingTraceTest, ScaleRangesMatchPaperCategorization) {
  double lo = 0.0, hi = 0.0;
  ScaleGpuHourRange(TaskScale::kSmall, &lo, &hi);
  EXPECT_LE(hi, 1.0);  // S < 1 GPU-hour
  ScaleGpuHourRange(TaskScale::kMedium, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 10.0);
  ScaleGpuHourRange(TaskScale::kXLarge, &lo, &hi);
  EXPECT_GE(lo, 100.0);  // XL > 100 GPU-hours
}

}  // namespace
}  // namespace mudi
