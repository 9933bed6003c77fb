// Micro-benchmarks of the hot substrate paths (google-benchmark): the
// event engine, the performance oracle, piece-wise fitting, the GP
// surrogate, and the interference learners. These bound how far the cluster
// simulation scales (events/sec) and how cheap Mudi's decision math is. The
// *Fit benchmarks time one learner fit at Initialize's cross-validation shape
// (24 rows of 12 features), and BM_SelectBestModelFit one whole model
// selection over the 30 rows those folds come from, and
// BM_InterferenceModelerColdFit the whole cold fit of Initialize on the real
// offline profile; `--benchmark_filter='Fit(/|$)'` runs just those.
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/core/interference_modeler.h"
#include "src/core/latency_profiler.h"
#include "src/gpu/perf_oracle.h"
#include "src/ml/fit_cache.h"
#include "src/ml/gaussian_process.h"
#include "src/ml/mlp.h"
#include "src/ml/model_selection.h"
#include "src/ml/piecewise_linear.h"
#include "src/ml/random_forest.h"
#include "src/sim/simulator.h"

namespace {

using namespace mudi;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.ScheduleAt(static_cast<double>(i), [&fired] { ++fired; });
    }
    state.ResumeTiming();
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(10000)->Arg(100000);

void BM_OracleInferenceLatency(benchmark::State& state) {
  PerfOracle oracle(42);
  const auto& service = ModelZoo::InferenceServices()[0];
  const auto& task = ModelZoo::TrainingTasks()[0];
  std::vector<ColocatedTraining> colocated{{&task, 0.5}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle.InferenceBatchLatency(service, 64, 0.5, colocated).total_ms());
  }
}
BENCHMARK(BM_OracleInferenceLatency);

void BM_OracleTrainingIteration(benchmark::State& state) {
  PerfOracle oracle(42);
  const auto& service = ModelZoo::InferenceServices()[2];
  const auto& task = ModelZoo::TrainingTasks()[1];
  InferenceLoad load{&service, 64, 0.5, 200.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.TrainingIterationMs(task, 0.4, load, {}));
  }
}
BENCHMARK(BM_OracleTrainingIteration);

void BM_PiecewiseFit(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> x, y;
  PiecewiseLinearModel truth{-80.0, -4.0, 0.4, 50.0};
  for (double g = 0.1; g <= 0.91; g += 0.1) {
    x.push_back(g);
    y.push_back(truth.Eval(g) * rng.LogNormalFactor(0.03));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitPiecewiseLinear(x, y));
  }
}
BENCHMARK(BM_PiecewiseFit);

void BM_GpPosteriorUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    GaussianProcess gp;
    for (size_t i = 0; i < n; ++i) {
      gp.AddObservation({static_cast<double>(i) / n}, static_cast<double>(i % 3));
    }
    benchmark::DoNotOptimize(gp.Predict({0.5}).mean);
  }
}
BENCHMARK(BM_GpPosteriorUpdate)->Arg(10)->Arg(25);

void BM_RandomForestPredict(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(12);
    for (auto& v : row) {
      v = rng.Uniform();
    }
    y.push_back(row[0] * 3.0 + row[5]);
    x.push_back(std::move(row));
  }
  RandomForestRegressor model;
  model.Fit(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(x[17]));
  }
}
BENCHMARK(BM_RandomForestPredict);

// Interference Modeler training data: `rows` profiled colocations, 12
// features each. 24 rows is one cross-validation fold's training set, 30 the
// whole sample set it is cut from.
void MakeFitShapeData(size_t rows, std::vector<std::vector<double>>* x,
                      std::vector<double>* y) {
  Rng rng(11);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> row(12);
    for (auto& v : row) {
      v = rng.Uniform();
    }
    y->push_back(row[0] * 3.0 - row[5] * row[7] + 1.0);
    x->push_back(std::move(row));
  }
}

void BM_MlpFit(benchmark::State& state) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeFitShapeData(24, &x, &y);
  MlpOptions options;
  options.epochs = 300;  // DefaultRegressorZoo's selection-time budget
  for (auto _ : state) {
    MlpRegressor model(options);
    model.Fit(x, y);
    benchmark::DoNotOptimize(model.Predict(x[3]));
  }
}
BENCHMARK(BM_MlpFit);

void BM_RandomForestFit(benchmark::State& state) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeFitShapeData(24, &x, &y);
  for (auto _ : state) {
    RandomForestRegressor model;
    model.Fit(x, y);
    benchmark::DoNotOptimize(model.Predict(x[3]));
  }
}
BENCHMARK(BM_RandomForestFit);

// One selection of InterferenceModeler::Fit: 5-fold cross-validation of every
// learner in the zoo, each bounded by the best error so far, then the refit.
void BM_SelectBestModelFit(benchmark::State& state) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeFitShapeData(30, &x, &y);
  const std::vector<RegressorFactory> zoo = DefaultRegressorZoo();
  for (auto _ : state) {
    ModelSelectionResult result = SelectBestModel(zoo, x, y);
    benchmark::DoNotOptimize(result.cv_error);
  }
}
BENCHMARK(BM_SelectBestModelFit);

// Mudi's cold Initialize fit: all 24 selections of InterferenceModeler::Fit on
// the offline profile MudiPolicy builds (oracle seed 42, default profiler
// options, the observed training types), with the fit cache cleared so every
// selection is computed. The synthetic *Fit data above has no all-zero
// feature columns and few ties, so it under-reports changes to those paths.
// CPU time is the whole process's: the fit fans out over FitPool workers.
void BM_InterferenceModelerColdFit(benchmark::State& state) {
  PerfOracle oracle(42);
  LatencyProfiler profiler(oracle);
  profiler.ProfileAll(ModelZoo::kNumObservedTrainingTypes);
  for (auto _ : state) {
    FitCache::Global().Clear();
    InterferenceModeler modeler;
    modeler.AddSamplesFromProfiler(profiler);
    modeler.Fit();
    benchmark::DoNotOptimize(modeler.last_fit_computed());
  }
}
BENCHMARK(BM_InterferenceModelerColdFit)->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
