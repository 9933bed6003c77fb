#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"

namespace mudi {
namespace {

// Small, fast experiment configuration shared by the integration tests:
// 2 nodes × 2 GPUs, constant 200-QPS replicas, a dozen short tasks.
ExperimentOptions TinyOptions(size_t num_tasks = 12, uint64_t seed = 3) {
  ExperimentOptions options;
  options.num_nodes = 2;
  options.gpus_per_node = 2;
  options.num_services = 4;
  options.seed = seed;
  options.trace.num_tasks = num_tasks;
  options.trace.mean_interarrival_ms = 2.0 * kMsPerSecond;
  options.trace.duration_compression = 8000.0;  // tasks finish in seconds
  options.trace.seed = seed + 1;
  return options;
}

ExperimentResult RunPolicy(const std::string& name, const ExperimentOptions& options) {
  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy(name, profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  return experiment.Run();
}

// Parameterized over every end-to-end system.
class SystemIntegrationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SystemIntegrationTest, CompletesAllTasks) {
  ExperimentResult result = RunPolicy(GetParam(), TinyOptions());
  EXPECT_EQ(result.CompletedTasks(), 12u) << GetParam();
  EXPECT_GT(result.makespan_ms, 0.0);
}

TEST_P(SystemIntegrationTest, MetricsWithinPhysicalBounds) {
  ExperimentResult result = RunPolicy(GetParam(), TinyOptions());
  EXPECT_GE(result.avg_sm_util, 0.0);
  EXPECT_LE(result.avg_sm_util, 1.0);
  EXPECT_GE(result.avg_mem_util, 0.0);
  EXPECT_LE(result.avg_mem_util, 1.0);
  EXPECT_GE(result.OverallSloViolationRate(), 0.0);
  EXPECT_LE(result.OverallSloViolationRate(), 1.0);
  for (const auto& task : result.tasks) {
    if (task.completed()) {
      EXPECT_GE(task.waiting_ms(), 0.0);
      EXPECT_GT(task.ct_ms(), 0.0);
      EXPECT_GE(task.ct_ms(), task.waiting_ms());
    }
  }
}

TEST_P(SystemIntegrationTest, DeterministicGivenSeed) {
  ExperimentResult a = RunPolicy(GetParam(), TinyOptions());
  ExperimentResult b = RunPolicy(GetParam(), TinyOptions());
  EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_DOUBLE_EQ(a.MeanCtMs(), b.MeanCtMs());
  EXPECT_DOUBLE_EQ(a.OverallSloViolationRate(), b.OverallSloViolationRate());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemIntegrationTest,
                         ::testing::Values("Mudi", "GSLICE", "gpulets", "MuxFlow", "Random",
                                           "Optimal"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Behavioural expectations
// ---------------------------------------------------------------------------

TEST(ExperimentBehaviourTest, MudiHoldsSlosOnTinyCluster) {
  ExperimentResult result = RunPolicy("Mudi", TinyOptions(16, 5));
  EXPECT_LT(result.OverallSloViolationRate(), 0.05);
}

TEST(ExperimentBehaviourTest, MudiBeatsRandomOnTrainingEfficiency) {
  ExperimentOptions options = TinyOptions(20, 7);
  ExperimentResult mudi = RunPolicy("Mudi", options);
  ExperimentResult random = RunPolicy("Random", options);
  // Random's even split starves either side; Mudi should not be much worse
  // on CT and should hold SLOs at least as well.
  EXPECT_LE(mudi.OverallSloViolationRate(), random.OverallSloViolationRate() + 0.02);
}

TEST(ExperimentBehaviourTest, UtilSeriesRecordedWhenEnabled) {
  ExperimentOptions options = TinyOptions(6, 9);
  options.record_util_series = true;
  ExperimentResult result = RunPolicy("GSLICE", options);
  EXPECT_FALSE(result.util_series.empty());
  for (const auto& sample : result.util_series) {
    EXPECT_GE(sample.sm_util, 0.0);
    EXPECT_LE(sample.sm_util, 1.0);
  }
}

TEST(ExperimentBehaviourTest, DeviceSeriesTracesConfiguredDevice) {
  ExperimentOptions options = TinyOptions(6, 9);
  options.trace_device_id = 0;
  ExperimentResult result = RunPolicy("Mudi", options);
  EXPECT_FALSE(result.device_series.empty());
  for (const auto& sample : result.device_series) {
    EXPECT_GT(sample.batch, 0);
    EXPECT_GT(sample.inference_fraction, 0.0);
  }
}

TEST(ExperimentBehaviourTest, HorizonStopsEarly) {
  ExperimentOptions options = TinyOptions(100, 11);
  options.horizon_ms = 10.0 * kMsPerSecond;
  ExperimentResult result = RunPolicy("GSLICE", options);
  EXPECT_LT(result.CompletedTasks(), 100u);
}

TEST(ExperimentBehaviourTest, QueuePoliciesAllRun) {
  for (QueuePolicy policy : {QueuePolicy::kFcfs, QueuePolicy::kShortestJobFirst,
                             QueuePolicy::kPriority, QueuePolicy::kFairShare}) {
    ExperimentOptions options = TinyOptions(10, 13);
    options.queue_policy = policy;
    ExperimentResult result = RunPolicy("Mudi", options);
    EXPECT_EQ(result.CompletedTasks(), 10u) << QueuePolicyName(policy);
  }
}

TEST(ExperimentBehaviourTest, HigherLoadRaisesViolationsForBaselines) {
  ExperimentOptions base = TinyOptions(10, 15);
  ExperimentOptions heavy = TinyOptions(10, 15);
  // Constant-QPS default comes from the experiment; scale via factory.
  heavy.qps_factory = [](size_t, int) -> std::shared_ptr<const QpsProfile> {
    return std::make_shared<ConstantQps>(200.0 * 3.0);
  };
  ExperimentResult normal = RunPolicy("gpulets", base);
  ExperimentResult stressed = RunPolicy("gpulets", heavy);
  EXPECT_GE(stressed.OverallSloViolationRate(), normal.OverallSloViolationRate());
}

TEST(ExperimentBehaviourTest, MudiMorePacksMultipleTrainings) {
  ExperimentOptions options = TinyOptions(12, 17);
  // Burst of simultaneous arrivals so co-location pressure exists.
  options.trace.mean_interarrival_ms = 100.0;
  ExperimentResult more = RunPolicy("Mudi-more", options);
  EXPECT_EQ(more.CompletedTasks(), 12u);
  // With 4 devices and 12 near-simultaneous tasks, Mudi-more should wait
  // less than plain Mudi (which queues beyond 4 concurrent tasks).
  ExperimentResult plain = RunPolicy("Mudi", options);
  EXPECT_LE(more.MeanWaitingMs(), plain.MeanWaitingMs() + 1.0);
}

TEST(ExperimentBehaviourTest, AblationVariantsRun) {
  for (const char* name : {"Mudi-cluster-only", "Mudi-device-only"}) {
    ExperimentResult result = RunPolicy(name, TinyOptions(8, 19));
    EXPECT_EQ(result.CompletedTasks(), 8u) << name;
    EXPECT_EQ(result.policy_name, name);
  }
}

TEST(ExperimentBehaviourTest, OverheadsRecorded) {
  ExperimentOptions options = TinyOptions(8, 21);
  perf::PerfCollector collector;
  options.perf = &collector;
  ExperimentResult result = RunPolicy("Mudi", options);
  // Fig. 18(b) reads the decision time from the harness's region.
  EXPECT_GT(collector.regions().at("policy.select_device").count(), 0u);
  EXPECT_FALSE(result.tuning_iterations.empty());
  for (size_t iters : result.tuning_iterations) {
    EXPECT_LE(iters, 25u);  // §7.5: tuning converges within 25 iterations
  }
}

// Forwards every hook to the wrapped policy and counts the calls.
class CountingPolicy : public MultiplexPolicy {
 public:
  explicit CountingPolicy(MultiplexPolicy* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  void Initialize(SchedulingEnv& env) override {
    ++initialize;
    inner_->Initialize(env);
  }
  std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) override {
    ++select_device;
    return inner_->SelectDevice(env, task);
  }
  void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                        const TrainingTaskInfo& task) override {
    ++on_placed;
    inner_->OnTrainingPlaced(env, device_id, task);
  }
  void OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) override {
    inner_->OnTrainingCompleted(env, device_id, task_id);
  }
  void OnQpsChange(SchedulingEnv& env, int device_id) override {
    ++on_qps_change;
    inner_->OnQpsChange(env, device_id);
  }
  void OnDeviceFailed(SchedulingEnv& env, int device_id,
                      const std::vector<TrainingTaskInfo>& displaced) override {
    inner_->OnDeviceFailed(env, device_id, displaced);
  }
  void OnDeviceRecovered(SchedulingEnv& env, int device_id) override {
    inner_->OnDeviceRecovered(env, device_id);
  }
  void OnControlPlaneRestart(SchedulingEnv& env) override { inner_->OnControlPlaneRestart(env); }
  int MaxTrainingsPerDevice() const override { return inner_->MaxTrainingsPerDevice(); }
  bool SupportsMemorySwap() const override { return inner_->SupportsMemorySwap(); }

  uint64_t initialize = 0;
  uint64_t select_device = 0;
  uint64_t on_placed = 0;
  uint64_t on_qps_change = 0;

 private:
  MultiplexPolicy* inner_;
};

// The harness times each policy decision once, in its `policy.*` regions:
// every call must land in its region exactly once, for every system.
TEST(ExperimentBehaviourTest, HookRegionsCountEveryCall) {
  for (const char* name : {"Mudi", "GSLICE", "gpulets", "MuxFlow", "Random", "Optimal"}) {
    ExperimentOptions options = TinyOptions(8, 21);
    perf::PerfCollector collector;
    options.perf = &collector;
    PerfOracle profiling_oracle(options.oracle_seed);
    auto inner = MakePolicy(name, profiling_oracle);
    CountingPolicy policy(inner.get());
    ClusterExperiment experiment(options, &policy);
    experiment.Run();
    auto count = [&](const char* region) { return collector.regions().at(region).count(); };
    EXPECT_EQ(count("policy.initialize"), policy.initialize) << name;
    EXPECT_EQ(count("policy.select_device"), policy.select_device) << name;
    EXPECT_EQ(count("policy.on_placed"), policy.on_placed) << name;
    EXPECT_EQ(count("policy.on_qps_change"), policy.on_qps_change) << name;
    // Non-vacuous: the run made decisions of every timed kind.
    EXPECT_EQ(policy.initialize, 1u) << name;
    EXPECT_GT(policy.select_device, 0u) << name;
    EXPECT_GT(policy.on_placed, 0u) << name;
    EXPECT_GT(policy.on_qps_change, 0u) << name;
  }
}

TEST(ExperimentBehaviourTest, SwapAccountingPresentForMudi) {
  ExperimentOptions options = TinyOptions(10, 23);
  ExperimentResult result = RunPolicy("Mudi", options);
  // Swap fractions exist per hosted service (values may be zero).
  EXPECT_EQ(result.swap_time_fraction.size(), 4u);
  for (const auto& [name, frac] : result.swap_time_fraction) {
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
  }
}

TEST(ExperimentBehaviourTest, ScaleQpsMultipliesFactory) {
  ExperimentOptions options = PhysicalClusterOptions(1);
  auto before = options.qps_factory(0, 0)->QpsAt(0.0);
  ScaleQps(options, 2.0);
  auto after = options.qps_factory(0, 0)->QpsAt(0.0);
  EXPECT_DOUBLE_EQ(after, 2.0 * before);
}

// ---------------------------------------------------------------------------
// Arrival sweeps
// ---------------------------------------------------------------------------

// The simulated-cluster preset cut to 4 nodes x 4 GPUs, serving only.
ExperimentOptions SixteenDeviceServingOptions(TimeMs horizon_ms) {
  ExperimentOptions options = SimulatedClusterOptions(/*num_tasks=*/0, /*seed=*/7);
  options.num_nodes = 4;
  options.gpus_per_node = 4;
  options.horizon_ms = horizon_ms;
  options.arrival_tick_ms = 20.0;
  return options;
}

TEST(ExperimentBehaviourTest, ArrivalSweepFiresOncePerTickInstant) {
  ExperimentOptions options = SixteenDeviceServingOptions(1.0 * kMsPerSecond);
  // At zero QPS a tick draws no request, so no batch or timeout events follow.
  options.qps_factory = [](size_t, int) -> std::shared_ptr<const QpsProfile> {
    return std::make_shared<ConstantQps>(0.0);
  };
  perf::PerfCollector collector;
  options.perf = &collector;
  RunPolicy("GSLICE", options);
  // One sweep event at each of the 50 tick instants (20, 40, ..., 1000 ms)
  // plus the utilisation sample at 1 s; an event per replica would be 800.
  EXPECT_EQ(collector.counters().at("sim.events_fired"), 50u + 1u);
}

// 200 QPS, except none in [off_from_ms, off_to_ms).
class GatedQps : public QpsProfile {
 public:
  GatedQps(TimeMs off_from_ms, TimeMs off_to_ms)
      : off_from_ms_(off_from_ms), off_to_ms_(off_to_ms) {}
  double QpsAt(TimeMs t) const override {
    return t >= off_from_ms_ && t < off_to_ms_ ? 0.0 : 200.0;
  }

 private:
  TimeMs off_from_ms_;
  TimeMs off_to_ms_;
};

TEST(ExperimentBehaviourTest, ArrivalSweepSurvivesNodeFailure) {
  // Node 1 (devices 4-7) fails at 2 s and recovers at 8 s. Its replicas see
  // no traffic while down, so after the failure instant (which reroutes
  // their queues) every request a survivor measures comes from its own
  // arrival ticks.
  constexpr TimeMs kDownMs = 2.0 * kMsPerSecond;
  constexpr TimeMs kUpMs = 8.0 * kMsPerSecond;
  auto on_failed_node = [](int d) { return d >= 4 && d < 8; };
  auto options_until = [&](TimeMs horizon_ms) {
    ExperimentOptions options = SixteenDeviceServingOptions(horizon_ms);
    options.qps_factory = [on_failed_node](size_t, int d) -> std::shared_ptr<const QpsProfile> {
      return std::make_shared<GatedQps>(on_failed_node(d) ? kDownMs : 0.0,
                                        on_failed_node(d) ? kUpMs : 0.0);
    };
    options.fault_plan.FailNode(1, kDownMs, kUpMs - kDownMs);
    return options;
  };
  struct Observed {
    ExperimentResult result;
    std::vector<double> qps;
    std::vector<double> p99;
  };
  auto run = [&](TimeMs horizon_ms) {
    ExperimentOptions options = options_until(horizon_ms);
    PerfOracle profiling_oracle(options.oracle_seed);
    auto policy = MakePolicy("GSLICE", profiling_oracle);
    ClusterExperiment experiment(options, policy.get());
    Observed observed{experiment.Run(), {}, {}};
    for (int d = 0; d < 16; ++d) {
      EXPECT_EQ(experiment.device(d).healthy(), !on_failed_node(d) || horizon_ms >= kUpMs) << d;
      observed.qps.push_back(experiment.MeasuredQps(d));
      observed.p99.push_back(experiment.MeasuredP99(d));
    }
    return observed;
  };

  // Mid-outage, the 5 s rate window (2.5 s, 7.5 s] lies wholly inside the
  // outage.
  Observed outage = run(7.5 * kMsPerSecond);
  EXPECT_EQ(outage.result.faults.device_failures, 4u);
  for (int d = 0; d < 16; ++d) {
    if (!on_failed_node(d)) {
      EXPECT_GT(outage.qps[static_cast<size_t>(d)], 0.0) << d;
    }
  }

  // Six seconds after recovery, the window holds only post-recovery
  // arrivals, and each recovered replica's monitor (reset at recovery) has
  // latencies of requests it served.
  Observed recovered = run(14.0 * kMsPerSecond);
  EXPECT_EQ(recovered.result.faults.devices_recovered, 4u);
  for (size_t d = 0; d < 16; ++d) {
    EXPECT_GT(recovered.qps[d], 0.0) << d;
    EXPECT_GT(recovered.p99[d], 0.0) << d;
  }

  Observed again = run(14.0 * kMsPerSecond);
  EXPECT_EQ(again.qps, recovered.qps);
  EXPECT_EQ(again.p99, recovered.p99);
  ASSERT_EQ(again.result.per_service.size(), recovered.result.per_service.size());
  for (const auto& [name, m] : recovered.result.per_service) {
    const ServiceMetrics& other = again.result.per_service.at(name);
    EXPECT_EQ(other.served_requests, m.served_requests) << name;
    EXPECT_EQ(other.mean_latency_ms, m.mean_latency_ms) << name;
    EXPECT_EQ(other.windows_total, m.windows_total) << name;
  }
}

}  // namespace
}  // namespace mudi
