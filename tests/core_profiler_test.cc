#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/interference_modeler.h"
#include "src/core/latency_profiler.h"
#include "src/core/online_multiplexer.h"
#include "src/gpu/perf_oracle.h"
#include "src/ml/fit_cache.h"
#include "src/ml/model_selection.h"
#include "src/workload/models.h"

namespace mudi {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  PerfOracle oracle_{42};
};

TEST_F(ProfilerTest, CurveKeyOrderingSortsTrainingTypes) {
  CurveKey a{0, 16, {1, 2}};
  CurveKey b{0, 16, {2, 1}};
  EXPECT_TRUE(a < b || b < a);  // distinct as stored (caller sorts)
  CurveKey c{0, 32, {1, 2}};
  EXPECT_TRUE(a < c);
}

TEST_F(ProfilerTest, ProfiledCurveApproximatesOracle) {
  LatencyProfiler profiler(oracle_);
  ProfiledCurve curve = profiler.ProfileCurve(/*service=*/0, /*batch=*/64, {0});
  // The fitted piece-wise model should track the profiled samples closely.
  for (size_t i = 0; i < curve.sample_fractions.size(); ++i) {
    double rel = std::abs(curve.model.Eval(curve.sample_fractions[i]) -
                          curve.sample_latencies[i]) /
                 curve.sample_latencies[i];
    EXPECT_LT(rel, 0.20) << "g=" << curve.sample_fractions[i];
  }
  // Latency-vs-GPU% slopes are negative, steep segment first.
  EXPECT_LT(curve.model.k1, 0.0);
  EXPECT_LT(curve.model.k1, curve.model.k2);
}

TEST_F(ProfilerTest, CutoffWithinProfiledRange) {
  LatencyProfiler profiler(oracle_);
  ProfiledCurve curve = profiler.ProfileCurve(2, 128, {1});
  EXPECT_GT(curve.model.x0, 0.05);
  EXPECT_LT(curve.model.x0, 0.95);
}

TEST_F(ProfilerTest, ProfileAllCoversGrid) {
  LatencyProfiler profiler(oracle_);
  profiler.ProfileAll(/*num_training_types=*/2);
  // 6 services × 6 batches × (solo + 2 types).
  EXPECT_EQ(profiler.curves().size(), 6u * 6u * 3u);
  EXPECT_GT(profiler.total_measurements(), 0u);
}

TEST_F(ProfilerTest, FindCurveExactMatchOnly) {
  LatencyProfiler profiler(oracle_);
  profiler.ProfileAll(1);
  EXPECT_NE(profiler.FindCurve(CurveKey{0, 16, {0}}), nullptr);
  EXPECT_NE(profiler.FindCurve(CurveKey{0, 16, {}}), nullptr);  // solo
  EXPECT_EQ(profiler.FindCurve(CurveKey{0, 16, {3}}), nullptr);  // unprofiled
  EXPECT_EQ(profiler.FindCurve(CurveKey{0, 48, {0}}), nullptr);  // off-grid batch
}

TEST_F(ProfilerTest, MultiTrainingProfiles) {
  LatencyProfiler::Options options;
  options.repeats_per_point = 5;
  LatencyProfiler profiler(oracle_, options);
  profiler.ProfileMultiTraining(/*num_training_types=*/2, /*include_triples=*/false);
  // Pairs with repetition from 2 types: {0,0},{0,1},{1,1} per service × batch.
  EXPECT_EQ(profiler.curves().size(), 6u * 6u * 3u);
  EXPECT_NE(profiler.FindCurve(CurveKey{0, 16, {0, 1}}), nullptr);
}

TEST_F(ProfilerTest, ColocatedCurveLiesAboveSolo) {
  LatencyProfiler profiler(oracle_);
  ProfiledCurve solo = profiler.ProfileCurve(0, 64, {});
  ProfiledCurve colo = profiler.ProfileCurve(0, 64, {2});
  for (double g : {0.2, 0.5, 0.8}) {
    EXPECT_GT(colo.model.Eval(g), solo.model.Eval(g) * 0.98);
  }
}

// ---------------------------------------------------------------------------
// InterferenceModeler
// ---------------------------------------------------------------------------

// Offline profiling + model selection is the expensive step; share one
// instance across the modeler/predictor tests.
class ModelerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    oracle_ptr_ = std::make_unique<PerfOracle>(42);
    LatencyProfiler::Options options;
    options.repeats_per_point = 8;
    profiler_ptr_ = std::make_unique<LatencyProfiler>(*oracle_ptr_, options);
    profiler_ptr_->ProfileAll(ModelZoo::kNumObservedTrainingTypes);
    modeler_ptr_ = std::make_unique<InterferenceModeler>();
    modeler_ptr_->AddSamplesFromProfiler(*profiler_ptr_);
    modeler_ptr_->Fit();
  }

  // Reverse order of construction: the profiler refers to the oracle.
  static void TearDownTestSuite() {
    modeler_ptr_.reset();
    profiler_ptr_.reset();
    oracle_ptr_.reset();
  }

  PerfOracle& oracle_ = *oracle_ptr_;
  LatencyProfiler& profiler() { return *profiler_ptr_; }
  InterferenceModeler& modeler() { return *modeler_ptr_; }

  static std::unique_ptr<PerfOracle> oracle_ptr_;
  static std::unique_ptr<LatencyProfiler> profiler_ptr_;
  static std::unique_ptr<InterferenceModeler> modeler_ptr_;
};

std::unique_ptr<PerfOracle> ModelerTest::oracle_ptr_;
std::unique_ptr<LatencyProfiler> ModelerTest::profiler_ptr_;
std::unique_ptr<InterferenceModeler> ModelerTest::modeler_ptr_;

TEST_F(ModelerTest, FeatureEncodingAppendsLogBatch) {
  auto arch = MakeArchitecture({{LayerType::kConv, 4}});
  auto features = InterferenceModeler::EncodeFeatures(arch, 256);
  ASSERT_EQ(features.size(), kNumLayerTypes + 1);
  EXPECT_DOUBLE_EQ(features.back(), 8.0);
  EXPECT_DOUBLE_EQ(features[0], 4.0);
}

TEST_F(ModelerTest, SoloCurvesAreSkipped) {
  InterferenceModeler fresh;
  ProfiledCurve solo;
  solo.key = CurveKey{0, 16, {}};
  fresh.AddSample(solo);
  EXPECT_EQ(fresh.num_samples(0), 0u);
}

TEST_F(ModelerTest, SampleCountsPerService) {
  // 6 batches × 5 observed types per service.
  for (size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(modeler().num_samples(s), 30u);
  }
}

TEST_F(ModelerTest, PredictsObservedPairsAccurately) {
  // On a profiled (seen) pair, prediction should be close to the fitted fit.
  const ProfiledCurve* truth = profiler().FindCurve(CurveKey{0, 64, {1}});
  ASSERT_NE(truth, nullptr);
  auto pred = modeler().Predict(0, ModelZoo::TrainingTasks()[1].arch, 64);
  // Compare curve evaluations at moderate fractions.
  for (double g : {0.3, 0.6, 0.9}) {
    double rel = std::abs(pred.Eval(g) - truth->model.Eval(g)) /
                 std::max(1.0, std::abs(truth->model.Eval(g)));
    EXPECT_LT(rel, 0.35) << g;
  }
}

TEST_F(ModelerTest, GeneralizesToUnseenTrainingTypes) {
  // Fig. 11 property: predicting curve parameters for the four *unseen*
  // tasks from architecture features, average E2E error below ~30%.
  LatencyProfiler::Options options;
  options.repeats_per_point = 8;
  options.seed = 999;
  LatencyProfiler test_profiler(oracle_, options);
  double total_rel = 0.0;
  int count = 0;
  for (size_t type = ModelZoo::kNumObservedTrainingTypes;
       type < ModelZoo::TrainingTasks().size(); ++type) {
    for (size_t s = 0; s < 3; ++s) {
      ProfiledCurve truth = test_profiler.ProfileCurve(s, 64, {type});
      auto pred = modeler().Predict(s, ModelZoo::TrainingTasks()[type].arch, 64);
      for (size_t i = 0; i < truth.sample_fractions.size(); ++i) {
        double g = truth.sample_fractions[i];
        total_rel += std::abs(pred.Eval(g) - truth.sample_latencies[i]) /
                     truth.sample_latencies[i];
        ++count;
      }
    }
  }
  EXPECT_LT(total_rel / count, 0.30);
}

TEST_F(ModelerTest, PredictionStructurallySane) {
  for (size_t s = 0; s < 6; ++s) {
    for (const auto& task : ModelZoo::TrainingTasks()) {
      auto pred = modeler().Predict(s, task.arch, 64);
      EXPECT_LE(pred.k1, 0.0);
      EXPECT_LE(pred.k2, 0.0);
      EXPECT_GE(pred.x0, 0.05);
      EXPECT_LE(pred.x0, 0.95);
      EXPECT_GT(pred.y0, 0.0);
    }
  }
}

TEST_F(ModelerTest, SelectedModelNamesNonEmpty) {
  for (size_t p = 0; p < kNumCurveParams; ++p) {
    EXPECT_FALSE(modeler().SelectedModelName(0, static_cast<CurveParam>(p)).empty());
  }
}

TEST_F(ModelerTest, IncrementalRefitAfterNewSamples) {
  // Adding samples for an unseen type then refitting must not regress the
  // structural sanity and should incorporate the new colocation.
  LatencyProfiler::Options options;
  options.repeats_per_point = 8;
  LatencyProfiler extra(oracle_, options);
  size_t unseen = ModelZoo::kNumObservedTrainingTypes;
  for (int b : ProfilingBatchSizes()) {
    modeler().AddSample(extra.ProfileCurve(0, b, {unseen}));
  }
  modeler().Fit();
  auto pred = modeler().Predict(0, ModelZoo::TrainingTasks()[unseen].arch, 64);
  EXPECT_LE(pred.k1, 0.0);
  EXPECT_GT(pred.y0, 0.0);
}

TEST_F(ProfilerTest, SaveLoadRoundTrip) {
  LatencyProfiler::Options options;
  options.repeats_per_point = 5;
  LatencyProfiler profiler(oracle_, options);
  profiler.ProfileAll(/*num_training_types=*/1);
  ASSERT_TRUE(profiler.SaveToFile("/tmp/mudi_profiles_test.csv").ok());

  LatencyProfiler loaded(oracle_, options);
  ASSERT_TRUE(loaded.LoadFromFile("/tmp/mudi_profiles_test.csv").ok());
  EXPECT_EQ(loaded.curves().size(), profiler.curves().size());
  for (const auto& [key, curve] : profiler.curves()) {
    const ProfiledCurve* other = loaded.FindCurve(key);
    ASSERT_NE(other, nullptr);
    EXPECT_NEAR(other->model.k1, curve.model.k1, 1e-4 + 1e-4 * std::abs(curve.model.k1));
    EXPECT_NEAR(other->model.x0, curve.model.x0, 1e-6);
    EXPECT_EQ(other->sample_fractions.size(), curve.sample_fractions.size());
  }
}

TEST_F(ProfilerTest, LoadMissingFileFails) {
  LatencyProfiler profiler(oracle_);
  Status status = profiler.LoadFromFile("/tmp/definitely_missing_mudi_profiles.csv");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ProfilerTest, LoadRejectsMalformedFile) {
  {
    std::ofstream out("/tmp/mudi_bad_profiles.csv");
    out << "service,batch,types,x0,y0,k1,k2,fractions,latencies\n";
    out << "0,64,,0.3,50\n";  // wrong field count
  }
  LatencyProfiler profiler(oracle_);
  Status status = profiler.LoadFromFile("/tmp/mudi_bad_profiles.csv");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CurveParamTest, Names) {
  EXPECT_STREQ(CurveParamName(CurveParam::kK1), "k1");
  EXPECT_STREQ(CurveParamName(CurveParam::kK2), "k2");
  EXPECT_STREQ(CurveParamName(CurveParam::kCutoffX), "delta0");
  EXPECT_STREQ(CurveParamName(CurveParam::kCutoffY), "l0");
}

// The selection Mudi runs on its real offline profile (MudiPolicy defaults:
// oracle seed 42, default profiler options, the observed training types),
// checked against a reference kept here: unbounded cross-validation of every
// learner, strict `<` in factory order. The bounded selection must pick the
// same learner with the same cv_error bits, and the batch path must equal a
// per-task SelectBestModel down to the refit model's predictions.
TEST(ModelSelectionDifferentialTest, BoundedSelectionMatchesUnboundedReference) {
  PerfOracle oracle(42);
  LatencyProfiler profiler(oracle);
  profiler.ProfileAll(ModelZoo::kNumObservedTrainingTypes);

  // The modeler's per-service training sets, rebuilt as AddSample builds them.
  const size_t num_services = ModelZoo::InferenceServices().size();
  std::vector<std::vector<std::vector<double>>> x(num_services);
  std::vector<std::array<std::vector<double>, kNumCurveParams>> y(num_services);
  for (const auto& [key, curve] : profiler.curves()) {
    if (key.training_types.empty()) {
      continue;
    }
    NetworkArchitecture cumulative;
    for (size_t type : key.training_types) {
      cumulative = cumulative.Plus(ModelZoo::TrainingTasks()[type].arch);
    }
    x[key.service_index].push_back(InterferenceModeler::EncodeFeatures(cumulative, key.batch));
    auto& ys = y[key.service_index];
    ys[static_cast<size_t>(CurveParam::kK1)].push_back(std::log(std::max(-curve.model.k1, 1e-3)));
    ys[static_cast<size_t>(CurveParam::kK2)].push_back(std::log(std::max(-curve.model.k2, 1e-3)));
    ys[static_cast<size_t>(CurveParam::kCutoffX)].push_back(curve.model.x0);
    ys[static_cast<size_t>(CurveParam::kCutoffY)].push_back(
        std::log(std::max(curve.model.y0, 1e-3)));
  }

  FitCache::Global().Clear();  // so Fit really runs the batch selection
  InterferenceModeler modeler;
  modeler.AddSamplesFromProfiler(profiler);
  modeler.Fit();

  const std::vector<RegressorFactory> zoo = DefaultRegressorZoo();
  size_t selections = 0;
  // FNV-1a 64 over the bits of every learner's unbounded error, byte by byte
  // little-endian: it pins the exact fit path of learners that never win.
  uint64_t cv_digest = 0xcbf29ce484222325ull;
  for (size_t s = 0; s < num_services; ++s) {
    if (x[s].size() < 4) {
      continue;  // the modeler skips these services too
    }
    for (size_t p = 0; p < kNumCurveParams; ++p) {
      const CurveParam param = static_cast<CurveParam>(p);
      SCOPED_TRACE(testing::Message() << "service " << s << " " << CurveParamName(param));
      const std::vector<double>& ys = y[s][p];

      double ref_err = std::numeric_limits<double>::infinity();
      size_t ref = zoo.size();
      for (size_t f = 0; f < zoo.size(); ++f) {
        double err = KFoldRelativeError(zoo[f], x[s], ys, 5);
        const uint64_t bits = std::bit_cast<uint64_t>(err);
        for (int b = 0; b < 8; ++b) {
          cv_digest = (cv_digest ^ ((bits >> (8 * b)) & 0xff)) * 0x100000001b3ull;
        }
        if (err < ref_err) {
          ref_err = err;
          ref = f;
        }
      }
      ASSERT_LT(ref, zoo.size());
      const std::string ref_name = zoo[ref]()->name();

      std::shared_ptr<const CachedFit> cached =
          FitCache::Global().Find(FingerprintSamples(x[s], ys, 5));
      ASSERT_NE(cached, nullptr) << "rebuilt samples differ from the modeler's";
      EXPECT_EQ(modeler.SelectedModelName(s, param), ref_name);
      EXPECT_EQ(cached->model_name, ref_name);
      EXPECT_EQ(std::bit_cast<uint64_t>(cached->cv_error), std::bit_cast<uint64_t>(ref_err));

      ModelSelectionResult single = SelectBestModel(zoo, x[s], ys, 5);
      EXPECT_EQ(single.model_name, cached->model_name);
      EXPECT_EQ(std::bit_cast<uint64_t>(single.cv_error),
                std::bit_cast<uint64_t>(cached->cv_error));
      for (const std::vector<double>& row : x[s]) {
        EXPECT_EQ(std::bit_cast<uint64_t>(single.model->Predict(row)),
                  std::bit_cast<uint64_t>(cached->model->Predict(row)));
      }
      ++selections;
    }
  }
  EXPECT_GT(selections, 0u);
  EXPECT_EQ(selections, 24u);
  EXPECT_EQ(cv_digest, 0x8b5ffbc2c99b16efull) << "cv digest 0x" << std::hex << cv_digest;
  EXPECT_EQ(modeler.last_fit_computed(), selections);
  EXPECT_EQ(modeler.last_fit_cached(), 0u);
}

// ---------------------------------------------------------------------------
// InterferencePredictor (exact-profile vs learner path)
// ---------------------------------------------------------------------------

class PredictorTest : public ModelerTest {};

TEST_F(PredictorTest, UsesExactProfileWhenAvailable) {
  InterferencePredictor predictor(profiler_ptr_.get(), modeler_ptr_.get());
  const ProfiledCurve* profiled = profiler().FindCurve(CurveKey{1, 32, {0}});
  ASSERT_NE(profiled, nullptr);
  auto pred = predictor.PredictCurve(1, {0}, 32);
  EXPECT_DOUBLE_EQ(pred.k1, profiled->model.k1);
  EXPECT_DOUBLE_EQ(pred.x0, profiled->model.x0);
}

TEST_F(PredictorTest, FallsBackToLearnerForUnseenMix) {
  InterferencePredictor predictor(profiler_ptr_.get(), modeler_ptr_.get());
  size_t unseen = ModelZoo::kNumObservedTrainingTypes + 1;
  auto pred = predictor.PredictCurve(1, {unseen}, 32);
  EXPECT_LE(pred.k1, 0.0);
  EXPECT_GT(pred.y0, 0.0);
}

TEST_F(PredictorTest, ScoreOrderingConsistentWithGroundTruth) {
  // The score must rank training types consistently with the oracle's true
  // co-located latency: compare the most- and least-interfering observed
  // types (ground truth) and check the predictor orders them the same way.
  InterferencePredictor predictor(profiler_ptr_.get(), modeler_ptr_.get());
  const auto& service = ModelZoo::InferenceServices()[0];
  const auto& tasks = ModelZoo::TrainingTasks();
  // Ground-truth sensitivity: average |dL/dg| across the profiling batch
  // sizes, measured by finite differences on the noise-free oracle.
  auto true_slope = [&](size_t type) {
    double sum = 0.0;
    for (int b : ProfilingBatchSizes()) {
      std::vector<ColocatedTraining> colocated{{&tasks[type], 0.5}};
      double l_lo = oracle_.InferenceBatchLatency(service, b, 0.15, colocated).total_ms();
      double l_hi = oracle_.InferenceBatchLatency(service, b, 0.85, colocated).total_ms();
      sum += std::abs(l_hi - l_lo) / 0.7;
    }
    return sum / static_cast<double>(ProfilingBatchSizes().size());
  };
  size_t worst_type = 0, best_type = 0;
  double worst_lat = -1.0, best_lat = 1e18;
  for (size_t t = 0; t < ModelZoo::kNumObservedTrainingTypes; ++t) {
    double slope = true_slope(t);
    if (slope > worst_lat) {
      worst_lat = slope;
      worst_type = t;
    }
    if (slope < best_lat) {
      best_lat = slope;
      best_type = t;
    }
  }
  ASSERT_NE(worst_type, best_type);
  EXPECT_GT(predictor.InterferenceScore(0, {worst_type}),
            predictor.InterferenceScore(0, {best_type}));
}

TEST_F(PredictorTest, ScoreCachedAndConsistent) {
  InterferencePredictor predictor(profiler_ptr_.get(), modeler_ptr_.get());
  double first = predictor.InterferenceScore(2, {1, 0});
  double second = predictor.InterferenceScore(2, {0, 1});  // order-insensitive
  EXPECT_DOUBLE_EQ(first, second);
}

}  // namespace
}  // namespace mudi
