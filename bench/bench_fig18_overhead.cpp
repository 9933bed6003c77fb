// Fig. 18 reproduction: Mudi's computational overheads.
// (a) CDF of GP-LCB tuning iterations to convergence (paper: over half the
//     cases within 17 iterations, max 24 physical / 25 simulated, < 1.92 s).
// (b) Distribution of cluster-wide multiplexing-decision time (placement):
//     paper: < 18 ms avg 14 ms (physical), < 31 ms avg 19 ms (simulated).
// Also includes google-benchmark micro-measurements of the two decision
// paths in isolation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/core/mudi_policy.h"

namespace {

using namespace mudi;

void ReportOverheads(const char* title, const ExperimentResult& result) {
  std::printf("== Fig. 18 %s ==\n", title);
  if (!result.tuning_iterations.empty()) {
    std::vector<double> iters(result.tuning_iterations.begin(),
                              result.tuning_iterations.end());
    Table cdf({"percentile", "tuning iterations"});
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      cdf.AddRow({Table::Num(p, 0), Table::Num(Percentile(iters, p), 0)});
    }
    std::printf("(a) GP-LCB iterations to convergence (%zu tuning runs):\n%s",
                iters.size(), cdf.ToString().c_str());
  }
  if (!result.placement_overheads_ms.empty()) {
    std::vector<double> overheads = result.placement_overheads_ms;
    Table dist({"metric", "decision time (ms)"});
    dist.AddRow({"mean", Table::Num(Mean(overheads), 3)});
    dist.AddRow({"P50", Table::Num(Percentile(overheads, 50.0), 3)});
    dist.AddRow({"P99", Table::Num(Percentile(overheads, 99.0), 3)});
    dist.AddRow({"max", Table::Num(*std::max_element(overheads.begin(), overheads.end()), 3)});
    std::printf("(b) cluster-wide multiplexing decision time (%zu placements):\n%s\n",
                overheads.size(), dist.ToString().c_str());
  }
}

// Micro-benchmark: one cluster-wide placement decision (device scoring).
void BM_PlacementDecision(benchmark::State& state) {
  static PerfOracle oracle(42);
  static MudiPolicy* policy = [] {
    auto* p = new MudiPolicy(oracle);
    return p;
  }();
  static ExperimentOptions options = [] {
    ExperimentOptions o = PhysicalClusterOptions(1);
    return o;
  }();
  static ClusterExperiment* experiment = new ClusterExperiment(options, policy);
  policy->Initialize(*experiment);

  TrainingTaskInfo info = MakeTaskInfo(1, static_cast<size_t>(state.range(0) % 9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->SelectDevice(*experiment, info));
  }
}
BENCHMARK(BM_PlacementDecision)->Arg(2)->Arg(6)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  {
    ExperimentOptions options = PhysicalClusterOptions(ScaledCount(300));
    auto results = RunSystems(options, {"Mudi"});
    ReportOverheads("(physical-scale cluster)", results.at("Mudi"));
  }
  {
    ExperimentOptions options = SimulatedClusterOptions(ScaledCount(1500));
    auto results = RunSystems(options, {"Mudi"});
    ReportOverheads("(simulated 1000-GPU cluster)", results.at("Mudi"));
  }
  std::printf("Paper: >50%% of tunings converge within 17 iterations, all within 25\n"
              "(<1.92 s); decision time <18 ms avg 14 ms (physical), <31 ms avg 19 ms\n"
              "(simulated). Our decision path is an in-process function call, so absolute\n"
              "times are lower; the iteration CDF is directly comparable.\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
