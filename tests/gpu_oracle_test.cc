#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/rng.h"
#include "src/gpu/perf_oracle.h"
#include "src/workload/models.h"

namespace mudi {
namespace {

const InferenceServiceSpec& Service(const char* name) {
  return ModelZoo::InferenceServiceByName(name);
}
const TrainingTaskSpec& Task(const char* name) { return ModelZoo::TrainingTaskByName(name); }

class PerfOracleTest : public ::testing::Test {
 protected:
  PerfOracle oracle_{42};
};

// ---------------------------------------------------------------------------
// Inference latency structure
// ---------------------------------------------------------------------------

TEST_F(PerfOracleTest, AllPhasesPositive) {
  auto lat = oracle_.InferenceBatchLatency(Service("GPT2"), 64, 0.5, {});
  EXPECT_GT(lat.preprocess_ms, 0.0);
  EXPECT_GT(lat.transfer_ms, 0.0);
  EXPECT_GT(lat.execute_ms, 0.0);
  EXPECT_DOUBLE_EQ(lat.total_ms(), lat.preprocess_ms + lat.transfer_ms + lat.execute_ms);
}

TEST_F(PerfOracleTest, LatencyDecreasesWithGpuFractionBelowKnee) {
  const auto& service = Service("ResNet50");
  double knee = PerfOracle::SaturationFraction(service, 64);
  double prev = 1e18;
  for (double g = 0.1; g < knee; g += 0.05) {
    double lat = oracle_.InferenceBatchLatency(service, 64, g, {}).total_ms();
    EXPECT_LT(lat, prev);
    prev = lat;
  }
}

TEST_F(PerfOracleTest, LatencyNearlyFlatBeyondKnee) {
  const auto& service = Service("ResNet50");
  double knee = PerfOracle::SaturationFraction(service, 64);
  double at_knee = oracle_.InferenceBatchLatency(service, 64, knee, {}).total_ms();
  double at_90 = oracle_.InferenceBatchLatency(service, 64, 0.9, {}).total_ms();
  // Beyond the knee: small residual improvement (< 10%), never an increase.
  EXPECT_LE(at_90, at_knee);
  EXPECT_GT(at_90, 0.9 * at_knee);
}

TEST_F(PerfOracleTest, PiecewiseShapeSteepThenFlat) {
  // Fig. 5 property: slope magnitude below the knee is much larger than
  // above it.
  const auto& service = Service("GPT2");
  double knee = PerfOracle::SaturationFraction(service, 128);
  double low1 = oracle_.InferenceBatchLatency(service, 128, 0.10, {}).total_ms();
  double low2 = oracle_.InferenceBatchLatency(service, 128, 0.20, {}).total_ms();
  double hi1 = oracle_.InferenceBatchLatency(service, 128, knee + 0.05, {}).total_ms();
  double hi2 = oracle_.InferenceBatchLatency(service, 128, knee + 0.15, {}).total_ms();
  double steep = std::abs(low2 - low1) / 0.10;
  double flat = std::abs(hi2 - hi1) / 0.10;
  EXPECT_GT(steep, 5.0 * flat);
}

TEST_F(PerfOracleTest, KneeGrowsWithBatch) {
  const auto& service = Service("ResNet50");
  EXPECT_LT(PerfOracle::SaturationFraction(service, 16),
            PerfOracle::SaturationFraction(service, 512));
}

TEST_F(PerfOracleTest, SaturationFractionBounded) {
  for (const auto& service : ModelZoo::InferenceServices()) {
    for (int b : ProfilingBatchSizes()) {
      double g = PerfOracle::SaturationFraction(service, b);
      EXPECT_GE(g, 0.10);
      EXPECT_LE(g, 1.0);
    }
  }
}

TEST_F(PerfOracleTest, LatencyGrowsWithBatch) {
  const auto& service = Service("BERT");
  double prev = 0.0;
  for (int b : ProfilingBatchSizes()) {
    double lat = oracle_.InferenceBatchLatency(service, b, 0.5, {}).total_ms();
    EXPECT_GT(lat, prev);
    prev = lat;
  }
}

TEST_F(PerfOracleTest, Gpt2SoloIsExecutionDominant) {
  // §2.2.1: GPT2 solo phases ≈ 4% / 10% / 86%.
  auto lat = oracle_.InferenceBatchLatency(Service("GPT2"), 64, 0.5, {});
  double total = lat.total_ms();
  EXPECT_LT(lat.preprocess_ms / total, 0.12);
  EXPECT_LT(lat.transfer_ms / total, 0.20);
  EXPECT_GT(lat.execute_ms / total, 0.70);
}

TEST_F(PerfOracleTest, ResNet50SoloIsTransferDominant) {
  // §2.2.1: ResNet50 solo phases ≈ 7% / 71% / 22%.
  auto lat = oracle_.InferenceBatchLatency(Service("ResNet50"), 64, 0.5, {});
  double total = lat.total_ms();
  EXPECT_GT(lat.transfer_ms / total, 0.45);
  EXPECT_LT(lat.preprocess_ms / total, 0.15);
}

// ---------------------------------------------------------------------------
// Interference structure (Fig. 3 vs Fig. 4)
// ---------------------------------------------------------------------------

TEST_F(PerfOracleTest, InferenceNeighborsInterfereMoreThanTraining) {
  for (const char* name : {"GPT2", "ResNet50"}) {
    const auto& service = Service(name);
    double solo = oracle_.InferenceBatchLatency(service, 64, 0.5, {}).total_ms();
    double with_inference =
        oracle_.InferenceBatchLatency(service, 64, 0.5, {}, /*other_inference_count=*/1)
            .total_ms();
    std::vector<ColocatedTraining> training{{&Task("VGG16"), 0.5}};
    double with_training =
        oracle_.InferenceBatchLatency(service, 64, 0.5, training).total_ms();
    EXPECT_GT(with_inference, with_training) << name;
    EXPECT_GT(with_training, solo) << name;
  }
}

TEST_F(PerfOracleTest, InterferenceMagnitudesMatchPaperBallpark) {
  // Fig. 3: E2E inference↔inference interference ≈ 3.19× (GPT2), 2.40× (RN50).
  // Fig. 4: inference↔training ≈ 1.67× / 1.21×. Accept generous bands.
  auto ratio = [&](const char* name, bool vs_training) {
    const auto& service = Service(name);
    double solo = oracle_.InferenceBatchLatency(service, 64, 0.5, {}).total_ms();
    double colo;
    if (vs_training) {
      std::vector<ColocatedTraining> training{{&Task("ResNet50"), 0.5}};
      colo = oracle_.InferenceBatchLatency(service, 64, 0.5, training).total_ms();
    } else {
      colo = oracle_.InferenceBatchLatency(service, 64, 0.5, {}, 1).total_ms();
    }
    return colo / solo;
  };
  EXPECT_GT(ratio("GPT2", false), 2.0);
  EXPECT_LT(ratio("GPT2", false), 5.0);
  EXPECT_GT(ratio("GPT2", true), 1.1);
  EXPECT_LT(ratio("GPT2", true), 2.6);
  EXPECT_GT(ratio("ResNet50", false), 1.6);
  EXPECT_LT(ratio("ResNet50", false), 4.0);
  EXPECT_GT(ratio("ResNet50", true), 1.05);
  EXPECT_LT(ratio("ResNet50", true), 2.0);
}

TEST_F(PerfOracleTest, PreprocessPhaseSuffersMostFromInferenceNeighbor) {
  const auto& service = Service("ResNet50");
  auto solo = oracle_.InferenceBatchLatency(service, 64, 0.5, {});
  auto colo = oracle_.InferenceBatchLatency(service, 64, 0.5, {}, 1);
  double pre_ratio = colo.preprocess_ms / solo.preprocess_ms;
  double xfer_ratio = colo.transfer_ms / solo.transfer_ms;
  EXPECT_GT(pre_ratio, 3.0);  // paper: 4.93×
  EXPECT_GT(pre_ratio, xfer_ratio);
}

TEST_F(PerfOracleTest, MoreColocatedTrainingMoreInterference) {
  const auto& service = Service("BERT");
  std::vector<ColocatedTraining> one{{&Task("VGG16"), 0.3}};
  std::vector<ColocatedTraining> two{{&Task("VGG16"), 0.3}, {&Task("ResNet50"), 0.3}};
  double l1 = oracle_.InferenceBatchLatency(service, 64, 0.5, one).total_ms();
  double l2 = oracle_.InferenceBatchLatency(service, 64, 0.5, two).total_ms();
  EXPECT_GT(l2, l1);
}

// ---------------------------------------------------------------------------
// Training iteration time
// ---------------------------------------------------------------------------

TEST_F(PerfOracleTest, SoloTrainingAtFullGpuMatchesSpec) {
  InferenceLoad none;
  double iter = oracle_.TrainingIterationMs(Task("VGG16"), 1.0, none, {});
  EXPECT_NEAR(iter, Task("VGG16").iter_ms_full, Task("VGG16").iter_ms_full * 0.05);
}

TEST_F(PerfOracleTest, TrainingSlowsWithSmallerShare) {
  InferenceLoad none;
  double full = oracle_.TrainingIterationMs(Task("BERT"), 1.0, none, {});
  double half = oracle_.TrainingIterationMs(Task("BERT"), 0.5, none, {});
  double tenth = oracle_.TrainingIterationMs(Task("BERT"), 0.1, none, {});
  EXPECT_GT(half, full);
  EXPECT_GT(tenth, half);
  // BERT saturates the full GPU: share 0.1 is ~10x slower.
  EXPECT_NEAR(tenth / full, 10.0, 2.0);
}

TEST_F(PerfOracleTest, SmallModelSaturatesEarly) {
  // NCF saturates at 0.5: share beyond it gives little.
  InferenceLoad none;
  double at_half = oracle_.TrainingIterationMs(Task("NCF"), 0.5, none, {});
  double at_full = oracle_.TrainingIterationMs(Task("NCF"), 1.0, none, {});
  EXPECT_LT((at_half - at_full) / at_half, 0.08);
}

TEST_F(PerfOracleTest, InferenceLoadSlowsTraining) {
  InferenceLoad none;
  InferenceLoad load{&Service("ResNet50"), 64, 0.5, 200.0};
  double solo = oracle_.TrainingIterationMs(Task("YOLOv5"), 0.5, none, {});
  double colo = oracle_.TrainingIterationMs(Task("YOLOv5"), 0.5, load, {});
  EXPECT_GT(colo, solo);
  EXPECT_LT(colo / solo, 2.2);  // moderate interference (§2.2.1 takeaway)
}

TEST_F(PerfOracleTest, TrainingInterferenceNonMonotonicInBatch) {
  // §5.3.1: the batch size's effect on training throughput is not monotone —
  // PCIe per-batch pressure falls with b while compute-burst pressure grows.
  // Most visible for a compute-heavy service with high pair affinity.
  const auto& task = Task("ResNet50");
  std::vector<double> iters;
  for (int b : ProfilingBatchSizes()) {
    InferenceLoad load{&Service("YOLOS"), b, 0.5, 200.0};
    iters.push_back(oracle_.TrainingIterationMs(task, 0.5, load, {}));
  }
  bool increasing = true, decreasing = true;
  for (size_t i = 1; i < iters.size(); ++i) {
    increasing &= iters[i] >= iters[i - 1];
    decreasing &= iters[i] <= iters[i - 1];
  }
  EXPECT_FALSE(increasing);
  EXPECT_FALSE(decreasing);
}

TEST_F(PerfOracleTest, OtherTrainingAddsInterference) {
  InferenceLoad none;
  std::vector<ColocatedTraining> other{{&Task("VGG16"), 0.4}};
  double solo = oracle_.TrainingIterationMs(Task("LSTM"), 0.4, none, {});
  double colo = oracle_.TrainingIterationMs(Task("LSTM"), 0.4, none, other);
  EXPECT_GT(colo, solo);
}

// ---------------------------------------------------------------------------
// Affinity (the hidden architecture-dependent coefficient)
// ---------------------------------------------------------------------------

TEST_F(PerfOracleTest, AffinityInUnitInterval) {
  for (const auto& service : ModelZoo::InferenceServices()) {
    for (const auto& task : ModelZoo::TrainingTasks()) {
      double a = oracle_.PairAffinity(service, task.arch);
      EXPECT_GE(a, 0.0) << service.name << "/" << task.name;
      EXPECT_LE(a, 1.0) << service.name << "/" << task.name;
    }
  }
}

TEST_F(PerfOracleTest, AffinityDeterministic) {
  PerfOracle other(42);
  for (const auto& task : ModelZoo::TrainingTasks()) {
    EXPECT_DOUBLE_EQ(oracle_.PairAffinity(Service("GPT2"), task.arch),
                     other.PairAffinity(Service("GPT2"), task.arch));
  }
}

TEST_F(PerfOracleTest, AffinityVariesAcrossTasks) {
  double lo = 1.0, hi = 0.0;
  for (const auto& task : ModelZoo::TrainingTasks()) {
    double a = oracle_.PairAffinity(Service("ResNet50"), task.arch);
    lo = std::min(lo, a);
    hi = std::max(hi, a);
  }
  EXPECT_GT(hi - lo, 0.05);  // pairs genuinely differ → placement matters
}

TEST_F(PerfOracleTest, AffinitySeedChangesGroundTruth) {
  PerfOracle other(777);
  bool any_diff = false;
  for (const auto& task : ModelZoo::TrainingTasks()) {
    if (std::abs(oracle_.PairAffinity(Service("BERT"), task.arch) -
                 other.PairAffinity(Service("BERT"), task.arch)) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(PerfOracleTest, AffinityDependsOnArchitecture) {
  auto small = MakeArchitecture({{LayerType::kFc, 1}});
  auto big = MakeArchitecture({{LayerType::kConv, 100},
                               {LayerType::kBatchNorm, 100},
                               {LayerType::kActivation, 100},
                               {LayerType::kLinear, 50},
                               {LayerType::kOther, 50}});
  EXPECT_LT(oracle_.PairAffinity(Service("ResNet50"), small),
            oracle_.PairAffinity(Service("ResNet50"), big));
}

// ---------------------------------------------------------------------------
// Observation noise
// ---------------------------------------------------------------------------

// The oracle reads zoo pairs' affinity from a table built at construction;
// copies of the same specs are not zoo elements, so they take PairAffinity
// itself. Both must give the same bits for every zoo pair, on both sides.
TEST_F(PerfOracleTest, AffinityTableMatchesPairAffinityForEveryZooPair) {
  for (const InferenceServiceSpec& service : ModelZoo::InferenceServices()) {
    InferenceServiceSpec service_copy = service;
    for (const TrainingTaskSpec& task : ModelZoo::TrainingTasks()) {
      TrainingTaskSpec task_copy = task;
      SCOPED_TRACE(service.name + " x " + task.name);
      for (double g : {0.2, 0.7}) {
        auto table = oracle_.InferenceBatchLatency(service, 32, g, {{&task, g}});
        auto formula = oracle_.InferenceBatchLatency(service_copy, 32, g, {{&task_copy, g}});
        EXPECT_EQ(std::bit_cast<uint64_t>(table.execute_ms),
                  std::bit_cast<uint64_t>(formula.execute_ms));
        InferenceLoad load{&service, 32, 1.0 - g, 200.0};
        InferenceLoad load_copy{&service_copy, 32, 1.0 - g, 200.0};
        double table_iter = oracle_.TrainingIterationMs(task, g, load, {});
        double formula_iter = oracle_.TrainingIterationMs(task_copy, g, load_copy, {});
        EXPECT_EQ(std::bit_cast<uint64_t>(table_iter), std::bit_cast<uint64_t>(formula_iter));
      }
    }
  }
}

TEST_F(PerfOracleTest, ObservationsAreNoisyButUnbiased) {
  Rng rng(5);
  const auto& service = Service("Inception");
  double truth = oracle_.InferenceBatchLatency(service, 64, 0.5, {}).total_ms();
  double sum = 0.0;
  bool any_diff = false;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    double obs = oracle_.ObserveInferenceBatchLatency(service, 64, 0.5, {}, rng).total_ms();
    sum += obs;
    any_diff |= obs != truth;
  }
  EXPECT_TRUE(any_diff);
  EXPECT_NEAR(sum / n, truth, truth * 0.01);
}

TEST_F(PerfOracleTest, TrainingObservationNoisyButUnbiased) {
  Rng rng(6);
  InferenceLoad none;
  double truth = oracle_.TrainingIterationMs(Task("NCF"), 0.5, none, {});
  double sum = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    sum += oracle_.ObserveTrainingIterationMs(Task("NCF"), 0.5, none, {}, rng);
  }
  EXPECT_NEAR(sum / n, truth, truth * 0.01);
}

// Parameterized sweep: core monotonicity invariants over every service ×
// batch combination.
class OracleSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(OracleSweepTest, LatencyMonotoneNonIncreasingInFraction) {
  PerfOracle oracle(42);
  const auto& service = ModelZoo::InferenceServices()[std::get<0>(GetParam())];
  int batch = std::get<1>(GetParam());
  double prev = 1e18;
  for (double g : ProfilingGpuFractions()) {
    double lat = oracle.InferenceBatchLatency(service, batch, g, {}).total_ms();
    EXPECT_LE(lat, prev + 1e-9) << service.name << " b=" << batch << " g=" << g;
    prev = lat;
  }
}

TEST_P(OracleSweepTest, ColocationNeverSpeedsUpInference) {
  PerfOracle oracle(42);
  const auto& service = ModelZoo::InferenceServices()[std::get<0>(GetParam())];
  int batch = std::get<1>(GetParam());
  std::vector<ColocatedTraining> training{{&ModelZoo::TrainingTasks()[2], 0.4}};
  double solo = oracle.InferenceBatchLatency(service, batch, 0.5, {}).total_ms();
  double colo = oracle.InferenceBatchLatency(service, batch, 0.5, training).total_ms();
  EXPECT_GE(colo, solo);
}

INSTANTIATE_TEST_SUITE_P(AllServicesAllBatches, OracleSweepTest,
                         ::testing::Combine(::testing::Range<size_t>(0, 6),
                                            ::testing::Values(16, 64, 256, 512)));

}  // namespace
}  // namespace mudi
