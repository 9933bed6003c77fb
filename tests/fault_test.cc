// Fault-injection subsystem tests: plan validation, injector edge semantics,
// and end-to-end failure recovery through ClusterExperiment.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/fault/control_fault_plan.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/sim/simulator.h"

namespace mudi {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, BuildersProduceExpectedSpecs) {
  FaultPlan plan;
  plan.FailDevice(2, 100.0, 50.0)
      .FailDevicePermanently(3, 200.0)
      .FailNode(1, 300.0, 40.0)
      .AddStraggler(0, 150.0, 60.0, 2.0)
      .LoseFeedback(1, 180.0, 30.0);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kTransientDeviceFailure);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kPermanentDeviceFailure);
  EXPECT_LE(plan.faults[1].duration_ms, 0.0);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kNodeFailure);
  EXPECT_EQ(plan.faults[2].node_id, 1);
  EXPECT_EQ(plan.faults[3].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(plan.faults[3].severity, 2.0);
  EXPECT_EQ(plan.faults[4].kind, FaultKind::kMonitorFeedbackLoss);
  EXPECT_TRUE(plan.Validate(4, 2).ok());
}

TEST(FaultPlanTest, ValidateRejectsBadSpecs) {
  // NaN passes every plain `x < bound` check, so the NaN inputs each need
  // their own finiteness check.
  const std::vector<std::pair<const char*, FaultPlan>> bad = {
      {"device out of range", FaultPlan().FailDevice(9, 10.0, 5.0)},
      {"node out of range", FaultPlan().FailNode(5, 10.0, 5.0)},
      {"negative timestamp", FaultPlan().FailDevice(0, -1.0, 5.0)},
      {"severity < 1", FaultPlan().AddStraggler(0, 10.0, 5.0, 0.5)},
      {"episode needs a duration", FaultPlan().AddStraggler(0, 10.0, 0.0, 2.0)},
      {"window needs a duration", FaultPlan().LoseFeedback(0, 10.0, -5.0)},
      {"NaN severity", FaultPlan().AddStraggler(0, 10.0, 5.0, kNaN)},
      {"NaN timestamp", FaultPlan().FailDevice(0, kNaN, 5.0)},
      {"NaN duration", FaultPlan().FailDevice(0, 10.0, kNaN)},
      {"endless outage", FaultPlan().FailNode(0, 10.0, std::numeric_limits<double>::infinity())},
  };
  for (const auto& [why, plan] : bad) {
    EXPECT_FALSE(plan.Validate(4, 2).ok()) << why;
  }
}

TEST(FaultPlanTest, StandardChaosPlanValidatesForCommonShapes) {
  EXPECT_TRUE(StandardChaosPlan(12, 3).Validate(12, 3).ok());
  EXPECT_TRUE(StandardChaosPlan(4, 2).Validate(4, 2).ok());
  EXPECT_TRUE(StandardChaosPlan(1000, 250).Validate(1000, 250).ok());
  EXPECT_TRUE(StandardChaosPlan(1, 1).Validate(1, 1).ok());
  EXPECT_FALSE(StandardChaosPlan(12, 3).empty());
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

struct SinkEvent {
  std::string what;
  int device_id;
  double value;  // factor for stragglers, permanent flag for down
  TimeMs at;
};

class RecordingSink : public FaultSink {
 public:
  void OnDeviceDown(int device_id, bool permanent, TimeMs now) override {
    Record({"down", device_id, permanent ? 1.0 : 0.0, now});
  }
  void OnDeviceUp(int device_id, TimeMs now) override { Record({"up", device_id, 0.0, now}); }
  void OnStragglerFactor(int device_id, double factor, TimeMs now) override {
    Record({"straggler", device_id, factor, now});
  }
  void OnFeedbackLost(int device_id, TimeMs now) override {
    Record({"feedback_lost", device_id, 0.0, now});
  }
  void OnFeedbackRestored(int device_id, TimeMs now) override {
    Record({"feedback_restored", device_id, 0.0, now});
  }

  std::vector<SinkEvent> events;
  std::vector<std::string>* timeline = nullptr;  // when set, shared with a control sink

 private:
  void Record(const SinkEvent& e) {
    events.push_back(e);
    if (timeline != nullptr) {
      timeline->push_back(e.what);
    }
  }
};

TEST(FaultInjectorTest, EmptyPlanSchedulesNothing) {
  Simulator sim;
  RecordingSink sink;
  FaultInjector injector(&sim, &sink, nullptr, 4, 2);
  EXPECT_TRUE(injector.Arm(FaultPlan{}).ok());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(injector.faults_injected(), 0u);
}

TEST(FaultInjectorTest, ArmRejectsInvalidAndPastFaults) {
  Simulator sim;
  RecordingSink sink;
  FaultInjector injector(&sim, &sink, nullptr, 4, 2);
  FaultPlan bad;
  bad.FailDevice(99, 10.0, 5.0);
  EXPECT_FALSE(injector.Arm(bad).ok());
  FaultPlan nan_time;
  nan_time.FailDevice(0, kNaN, 5.0);  // an error, not a simulator CHECK
  EXPECT_FALSE(injector.Arm(nan_time).ok());
  FaultPlan no_sink;
  no_sink.CrashScheduler(10.0, 1.0);  // no ControlFaultSink attached
  EXPECT_FALSE(injector.Arm(no_sink).ok());
  EXPECT_EQ(sim.pending_events(), 0u);

  sim.RunUntil(100.0);
  FaultPlan past;
  past.FailDevice(0, 50.0, 5.0);  // already in the past
  EXPECT_FALSE(injector.Arm(past).ok());
}

TEST(FaultInjectorTest, OverlappingFailuresCollapseToOneEdgePair) {
  Simulator sim;
  RecordingSink sink;
  FaultInjector injector(&sim, &sink, nullptr, 2, 1);  // one node of two devices
  FaultPlan plan;
  plan.FailDevice(0, 10.0, 50.0);   // device 0 down 10..60
  plan.FailNode(0, 30.0, 100.0);    // both devices down 30..130
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim.RunUntilIdle();

  // Device 0: one down edge at 10, one up edge at 130 (not at 60).
  std::vector<SinkEvent> d0;
  for (const auto& e : sink.events) {
    if (e.device_id == 0 && (e.what == "down" || e.what == "up")) {
      d0.push_back(e);
    }
  }
  ASSERT_EQ(d0.size(), 2u);
  EXPECT_EQ(d0[0].what, "down");
  EXPECT_DOUBLE_EQ(d0[0].at, 10.0);
  EXPECT_EQ(d0[1].what, "up");
  EXPECT_DOUBLE_EQ(d0[1].at, 130.0);
  // Device 1 rides only the node fault: 30..130.
  std::vector<SinkEvent> d1;
  for (const auto& e : sink.events) {
    if (e.device_id == 1 && (e.what == "down" || e.what == "up")) {
      d1.push_back(e);
    }
  }
  ASSERT_EQ(d1.size(), 2u);
  EXPECT_DOUBLE_EQ(d1[0].at, 30.0);
  EXPECT_DOUBLE_EQ(d1[1].at, 130.0);

  EXPECT_DOUBLE_EQ(injector.TotalDowntimeMs(130.0), 120.0 + 100.0);
}

TEST(FaultInjectorTest, PermanentFailurePinsDeviceDown) {
  Simulator sim;
  RecordingSink sink;
  FaultInjector injector(&sim, &sink, nullptr, 2, 1);
  FaultPlan plan;
  plan.FailDevice(0, 10.0, 20.0);        // transient 10..30
  plan.FailDevicePermanently(0, 15.0);   // permanent from 15
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim.RunUntilIdle();

  EXPECT_TRUE(injector.device_down(0));
  EXPECT_TRUE(injector.device_permanently_down(0));
  // No "up" event was ever delivered for device 0.
  for (const auto& e : sink.events) {
    EXPECT_NE(e.what, "up");
  }
  EXPECT_DOUBLE_EQ(injector.TotalDowntimeMs(100.0), 90.0);
}

TEST(FaultInjectorTest, ConcurrentStragglersMultiply) {
  Simulator sim;
  RecordingSink sink;
  FaultInjector injector(&sim, &sink, nullptr, 1, 1);
  FaultPlan plan;
  plan.AddStraggler(0, 10.0, 40.0, 2.0);  // 10..50
  plan.AddStraggler(0, 20.0, 10.0, 3.0);  // 20..30
  ASSERT_TRUE(injector.Arm(plan).ok());

  sim.RunUntil(25.0);
  EXPECT_DOUBLE_EQ(injector.straggler_factor(0), 6.0);
  sim.RunUntil(35.0);
  EXPECT_DOUBLE_EQ(injector.straggler_factor(0), 2.0);
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(injector.straggler_factor(0), 1.0);

  // The sink saw the effective factor at every change: 2, 6, 2, 1.
  std::vector<double> factors;
  for (const auto& e : sink.events) {
    if (e.what == "straggler") {
      factors.push_back(e.value);
    }
  }
  EXPECT_EQ(factors, (std::vector<double>{2.0, 6.0, 2.0, 1.0}));
}

TEST(FaultInjectorTest, FeedbackLossWindowsNest) {
  Simulator sim;
  RecordingSink sink;
  FaultInjector injector(&sim, &sink, nullptr, 1, 1);
  FaultPlan plan;
  plan.LoseFeedback(0, 10.0, 40.0);  // 10..50
  plan.LoseFeedback(0, 20.0, 10.0);  // 20..30, nested
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim.RunUntilIdle();

  std::vector<SinkEvent> fb;
  for (const auto& e : sink.events) {
    if (e.what == "feedback_lost" || e.what == "feedback_restored") {
      fb.push_back(e);
    }
  }
  ASSERT_EQ(fb.size(), 2u);  // nested window produced no extra edges
  EXPECT_EQ(fb[0].what, "feedback_lost");
  EXPECT_DOUBLE_EQ(fb[0].at, 10.0);
  EXPECT_EQ(fb[1].what, "feedback_restored");
  EXPECT_DOUBLE_EQ(fb[1].at, 50.0);
}

// ---------------------------------------------------------------------------
// End-to-end recovery through ClusterExperiment
// ---------------------------------------------------------------------------

ExperimentOptions SmallClusterOptions(size_t num_tasks) {
  ExperimentOptions options = PhysicalClusterOptions(num_tasks, 5);
  options.num_nodes = 2;
  options.gpus_per_node = 2;
  options.trace.duration_compression = 2000.0;
  return options;
}

ExperimentResult RunMudi(const ExperimentOptions& options) {
  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy("Mudi", profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  return experiment.Run();
}

TEST(FaultRecoveryTest, TransientFailureRecoversAndAllTasksComplete) {
  ExperimentOptions options = SmallClusterOptions(10);
  options.fault_plan.FailDevice(1, 30.0 * kMsPerSecond, 45.0 * kMsPerSecond);

  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy("Mudi", profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  ExperimentResult result = experiment.Run();

  EXPECT_EQ(result.CompletedTasks(), 10u);
  EXPECT_EQ(result.faults.faults_injected, 1u);
  EXPECT_EQ(result.faults.device_failures, 1u);
  EXPECT_EQ(result.faults.devices_recovered, 1u);
  EXPECT_NEAR(result.faults.total_downtime_ms, 45.0 * kMsPerSecond, 1.0);
  // The device rejoined the registry as healthy.
  auto status = experiment.registry().GetRequired("/devices/1/status");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, "up");
  EXPECT_TRUE(experiment.device(1).healthy());
}

TEST(FaultRecoveryTest, PermanentFailureDisplacesReplacesAndCompletes) {
  ExperimentOptions options = SmallClusterOptions(16);
  options.fault_plan.FailDevicePermanently(3, 120.0 * kMsPerSecond);

  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy("Mudi", profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  ExperimentResult result = experiment.Run();

  // Every task completes even though a quarter of the cluster died: the
  // displaced trainings rolled back to their checkpoints and were re-placed
  // on surviving devices.
  EXPECT_EQ(result.CompletedTasks(), 16u);
  EXPECT_GE(result.faults.trainings_displaced, 1u);
  EXPECT_EQ(result.faults.trainings_replaced, result.faults.trainings_displaced);
  EXPECT_GT(result.faults.work_lost_ms, 0.0);  // checkpoint rollback redid work
  // Re-placement can be instantaneous in virtual time when survivors have
  // free capacity, so the mean is only required to be well-defined.
  EXPECT_GE(result.faults.mean_replacement_ms, 0.0);
  EXPECT_FALSE(experiment.device(3).healthy());

  // Registry: status pinned to "failed", task subtree wiped.
  auto status = experiment.registry().GetRequired("/devices/3/status");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, "failed");
  for (const auto& t : result.tasks) {
    auto entry = experiment.registry().GetRequired("/devices/3/tasks/" +
                                                   std::to_string(t.task_id));
    EXPECT_FALSE(entry.ok());
  }

  // Per-task accounting: displaced tasks carry failure counts and lost work.
  size_t failures = 0;
  double lost = 0.0;
  for (const auto& t : result.tasks) {
    failures += t.failures;
    lost += t.work_lost_ms;
  }
  EXPECT_EQ(failures, result.faults.trainings_displaced);
  EXPECT_DOUBLE_EQ(lost, result.faults.work_lost_ms);
}

TEST(FaultRecoveryTest, ChaosRunsAreDeterministic) {
  ExperimentOptions options = SmallClusterOptions(8);
  options.fault_plan = StandardChaosPlan(4, 2);

  ExperimentResult a = RunMudi(options);
  ExperimentResult b = RunMudi(options);

  EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_DOUBLE_EQ(a.OverallSloViolationRate(), b.OverallSloViolationRate());
  EXPECT_EQ(a.TotalWindowsViolatedFailure(), b.TotalWindowsViolatedFailure());
  EXPECT_EQ(a.faults.trainings_displaced, b.faults.trainings_displaced);
  EXPECT_DOUBLE_EQ(a.faults.work_lost_ms, b.faults.work_lost_ms);
  EXPECT_DOUBLE_EQ(a.faults.total_downtime_ms, b.faults.total_downtime_ms);
  EXPECT_DOUBLE_EQ(a.faults.failed_requests, b.faults.failed_requests);
  EXPECT_DOUBLE_EQ(a.faults.rerouted_requests, b.faults.rerouted_requests);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].completion_ms, b.tasks[i].completion_ms);
    EXPECT_EQ(a.tasks[i].failures, b.tasks[i].failures);
  }
}

TEST(FaultRecoveryTest, StragglerInflatesServingLatency) {
  ExperimentOptions options = SmallClusterOptions(0);
  options.horizon_ms = 80.0 * kMsPerSecond;

  ExperimentResult clean = RunMudi(options);

  ExperimentOptions slow = options;
  slow.fault_plan.AddStraggler(0, 10.0 * kMsPerSecond, 65.0 * kMsPerSecond, 3.0);
  ExperimentResult straggled = RunMudi(slow);

  EXPECT_EQ(straggled.faults.faults_injected, 1u);
  // Device 0's service sees 3x-inflated batch latencies for most of the run.
  PerfOracle probe(options.oracle_seed);
  auto policy = MakePolicy("Mudi", probe);
  ClusterExperiment shape(options, policy.get());
  const std::string service = shape.ServiceOnDevice(0).name;
  ASSERT_TRUE(straggled.per_service.count(service));
  ASSERT_TRUE(clean.per_service.count(service));
  EXPECT_GT(straggled.per_service.at(service).mean_latency_ms,
            clean.per_service.at(service).mean_latency_ms);
}

TEST(FaultRecoveryTest, RequestsRerouteToSurvivingReplicas) {
  // Single-service cluster: when one replica dies its traffic must land on
  // the survivors, not vanish.
  ExperimentOptions options = SmallClusterOptions(0);
  options.num_services = 1;
  options.horizon_ms = 60.0 * kMsPerSecond;
  options.fault_plan.FailDevice(0, 10.0 * kMsPerSecond, 40.0 * kMsPerSecond);

  ExperimentResult result = RunMudi(options);
  EXPECT_GT(result.faults.rerouted_requests, 0.0);
  // Failure-attributed violations never exceed total violations.
  EXPECT_LE(result.TotalWindowsViolatedFailure(),
            result.TotalWindowsViolatedFailure() + result.TotalWindowsViolatedLoad());
}

TEST(FaultRecoveryTest, EmptyPlanLeavesFaultMetricsZero) {
  ExperimentOptions options = SmallClusterOptions(6);
  ExperimentResult result = RunMudi(options);
  EXPECT_FALSE(result.faults.any());
  EXPECT_EQ(result.faults.device_failures, 0u);
  EXPECT_DOUBLE_EQ(result.faults.total_downtime_ms, 0.0);
  EXPECT_EQ(result.TotalWindowsViolatedFailure(), 0u);
  EXPECT_EQ(result.CompletedTasks(), 6u);
}

// ---------------------------------------------------------------------------
// FaultPlan: control-plane kinds and the KvStore degradation (the
// ControlFault* suites group the control half of FaultPlan / FaultInjector)
// ---------------------------------------------------------------------------

TEST(ControlFaultPlanTest, BuildersProduceExpectedSpecs) {
  FaultPlan plan;
  plan.DegradeWatches(100.0, 50.0, 0.1)
      .StaleReads(0.2, 4)
      .Partition(10.0 * kMsPerSecond, 5.0 * kMsPerSecond)
      .LoseWatches(20.0 * kMsPerSecond)
      .CrashScheduler(30.0 * kMsPerSecond, 2.0 * kMsPerSecond);
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.degrade.watch_delay_ms, 100.0);
  EXPECT_DOUBLE_EQ(plan.degrade.stale_read_prob, 0.2);
  EXPECT_EQ(plan.degrade.stale_rev_lag, 4u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kKvPartition);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kWatchLoss);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kSchedulerCrash);
  EXPECT_DOUBLE_EQ(plan.faults[2].duration_ms, 2.0 * kMsPerSecond);
  EXPECT_TRUE(plan.HasControlFaults());
  EXPECT_TRUE(plan.Validate(1, 1).ok());  // control kinds target no device
  EXPECT_FALSE(StandardChaosPlan(4, 2).HasControlFaults());
}

TEST(ControlFaultPlanTest, ValidateRejectsBadSpecs) {
  const std::vector<std::pair<const char*, FaultPlan>> bad = {
      {"negative delay", FaultPlan().DegradeWatches(-1.0, 0.0, 0.0)},
      {"dropping everything deadlocks", FaultPlan().DegradeWatches(0.0, 0.0, 1.0)},
      {"stale reads need a lag bound", FaultPlan().StaleReads(0.5, 0)},
      {"a window needs a duration", FaultPlan().Partition(10.0, 0.0)},
      {"negative restart delay", FaultPlan().CrashScheduler(10.0, -1.0)},
      {"NaN partition time", FaultPlan().Partition(kNaN, 5.0)},
      {"NaN watch delay", FaultPlan().DegradeWatches(kNaN, 0.0, 0.0)},
      {"NaN jitter", FaultPlan().DegradeWatches(0.0, kNaN, 0.0)},
      {"NaN drop probability", FaultPlan().DegradeWatches(0.0, 0.0, kNaN)},
      {"NaN stale-read probability", FaultPlan().StaleReads(kNaN, 4)},
  };
  for (const auto& [why, plan] : bad) {
    EXPECT_FALSE(plan.Validate(1, 1).ok()) << why;
  }
}

TEST(ControlFaultPlanTest, StandardControlChaosPlanValidates) {
  FaultPlan plan = StandardControlChaosPlan();
  EXPECT_TRUE(plan.Validate(1, 1).ok());
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.degrade.any());
  EXPECT_GE(plan.size(), 4u);
}

// ---------------------------------------------------------------------------
// FaultInjector: control-plane kinds
// ---------------------------------------------------------------------------

class RecordingCtrlSink : public ControlFaultSink {
 public:
  struct Event {
    std::string what;
    TimeMs at;
    double arg;
  };

  void OnKvPartitionStart(TimeMs now) override { Record({"partition_start", now, 0.0}); }
  void OnKvPartitionEnd(TimeMs now) override { Record({"partition_end", now, 0.0}); }
  void OnWatchesLost(TimeMs now) override { Record({"watch_loss", now, 0.0}); }
  void OnSchedulerCrash(TimeMs restart_delay_ms, TimeMs now) override {
    Record({"crash", now, restart_delay_ms});
  }

  std::vector<Event> events;
  std::vector<std::string>* timeline = nullptr;  // when set, shared with a device sink

 private:
  void Record(const Event& e) {
    events.push_back(e);
    if (timeline != nullptr) {
      timeline->push_back(e.what);
    }
  }
};

TEST(ControlFaultInjectorTest, EmptyPlanSchedulesNothing) {
  Simulator sim;
  RecordingCtrlSink sink;
  FaultInjector injector(&sim, nullptr, &sink, 1, 1);
  EXPECT_TRUE(injector.Arm(FaultPlan{}).ok());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(injector.ctrl_events_injected(), 0u);
}

TEST(ControlFaultInjectorTest, ArmRejectsInvalidAndPastEvents) {
  Simulator sim;
  RecordingCtrlSink sink;
  FaultInjector injector(&sim, nullptr, &sink, 1, 1);
  FaultPlan bad;
  bad.Partition(10.0, 0.0);
  EXPECT_FALSE(injector.Arm(bad).ok());
  FaultPlan nan_time;
  nan_time.LoseWatches(kNaN);  // an error, not a simulator CHECK
  EXPECT_FALSE(injector.Arm(nan_time).ok());
  FaultPlan no_sink;
  no_sink.FailDevice(0, 10.0, 5.0);  // no device FaultSink attached
  EXPECT_FALSE(injector.Arm(no_sink).ok());
  EXPECT_EQ(sim.pending_events(), 0u);

  sim.RunUntil(100.0);
  FaultPlan past;
  past.LoseWatches(50.0);
  EXPECT_FALSE(injector.Arm(past).ok());
}

TEST(ControlFaultInjectorTest, OverlappingPartitionsCollapseToOneEdgePair) {
  Simulator sim;
  RecordingCtrlSink sink;
  FaultInjector injector(&sim, nullptr, &sink, 1, 1);
  FaultPlan plan;
  plan.Partition(100.0, 100.0);  // 100..200
  plan.Partition(150.0, 100.0);  // 150..250, overlapping
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim.RunUntilIdle();

  ASSERT_EQ(sink.events.size(), 2u);  // one edge pair, not two
  EXPECT_EQ(sink.events[0].what, "partition_start");
  EXPECT_DOUBLE_EQ(sink.events[0].at, 100.0);
  EXPECT_EQ(sink.events[1].what, "partition_end");
  EXPECT_DOUBLE_EQ(sink.events[1].at, 250.0);
  EXPECT_EQ(injector.ctrl_events_injected(), 2u);
  EXPECT_EQ(injector.faults_injected(), 0u);
  EXPECT_EQ(injector.partitions(), 1u);
  EXPECT_FALSE(injector.partitioned());
}

TEST(ControlFaultInjectorTest, BackToBackPartitionsKeepSeparateEdges) {
  Simulator sim;
  RecordingCtrlSink sink;
  FaultInjector injector(&sim, nullptr, &sink, 1, 1);
  FaultPlan plan;
  plan.Partition(100.0, 50.0);  // 100..150
  plan.Partition(200.0, 50.0);  // 200..250, disjoint
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim.RunUntilIdle();
  ASSERT_EQ(sink.events.size(), 4u);
  EXPECT_EQ(injector.partitions(), 2u);
}

// Faults at one instant fire in plan order, across both sinks. The standard
// schedules tie at 210 s: StandardChaosPlan's feedback restore and
// StandardControlChaosPlan's first scheduler crash. ClusterExperiment arms
// the control schedule first, so the crash fires first
// (TelemetryExperimentTest.ControlFaultsFireBeforeSameInstantDeviceFaults).
TEST(FaultInjectorTest, SameInstantFaultsFireInPlanOrder) {
  FaultPlan control;
  control.CrashScheduler(210.0, 2.0);
  FaultPlan device;
  device.LoseFeedback(0, 180.0, 30.0);  // restored at 210
  for (bool control_first : {true, false}) {
    SCOPED_TRACE(control_first ? "control first" : "device first");
    FaultPlan plan = control_first ? control : device;
    for (const FaultSpec& spec : (control_first ? device : control).faults) {
      plan.Add(spec);
    }
    Simulator sim;
    std::vector<std::string> timeline;
    RecordingSink sink;
    RecordingCtrlSink ctrl_sink;
    sink.timeline = &timeline;
    ctrl_sink.timeline = &timeline;
    FaultInjector injector(&sim, &sink, &ctrl_sink, 1, 1);
    ASSERT_TRUE(injector.Arm(plan).ok());
    sim.RunUntilIdle();
    EXPECT_EQ(timeline, control_first
                            ? (std::vector<std::string>{"feedback_lost", "crash",
                                                        "feedback_restored"})
                            : (std::vector<std::string>{"feedback_lost", "feedback_restored",
                                                        "crash"}));
  }
}

// ---------------------------------------------------------------------------
// End-to-end control-plane recovery through ClusterExperiment
// ---------------------------------------------------------------------------

TEST(CtrlFaultRecoveryTest, EmptyCtrlPlanLeavesCtrlMetricsZero) {
  ExperimentOptions options = SmallClusterOptions(6);
  ExperimentResult result = RunMudi(options);
  EXPECT_FALSE(result.ctrl.any());
  EXPECT_EQ(result.ctrl.configs_published, 0u);
  EXPECT_EQ(result.ctrl.retries, 0u);
  EXPECT_EQ(result.ctrl.scheduler_crashes, 0u);

  // A device-only plan shares the injector but still builds no control
  // plane: configs keep applying directly.
  options.fault_plan = StandardChaosPlan(4, 2);
  ExperimentResult device_only = RunMudi(options);
  EXPECT_GT(device_only.faults.faults_injected, 0u);
  EXPECT_FALSE(device_only.ctrl.any());
  EXPECT_EQ(device_only.ctrl.configs_published, 0u);
}

TEST(CtrlFaultRecoveryTest, SchedulerCrashRecoversAndTasksComplete) {
  ExperimentOptions options = SmallClusterOptions(10);
  options.ctrl_fault_plan.CrashScheduler(15.0 * kMsPerSecond, 2.0 * kMsPerSecond);

  ExperimentResult result = RunMudi(options);
  EXPECT_EQ(result.CompletedTasks(), 10u);
  EXPECT_EQ(result.ctrl.scheduler_crashes, 1u);
  EXPECT_EQ(result.ctrl.scheduler_recoveries, 1u);
  // Recovery takes at least the restart delay (crash -> scan start).
  EXPECT_GE(result.ctrl.total_recovery_ms, 2.0 * kMsPerSecond);
}

TEST(CtrlFaultRecoveryTest, CrashDuringRecoveryRestartsTheLoop) {
  ExperimentOptions options = SmallClusterOptions(10);
  // The first crash's replacement would only begin scanning at t=40s; the
  // second crash at t=20s kills it mid-recovery and restarts with a 1s
  // delay. Exactly one recovery completes, and its latency is measured from
  // the first crash (the span the scheduler was actually absent).
  options.ctrl_fault_plan.CrashScheduler(10.0 * kMsPerSecond, 30.0 * kMsPerSecond);
  options.ctrl_fault_plan.CrashScheduler(20.0 * kMsPerSecond, 1.0 * kMsPerSecond);

  ExperimentResult result = RunMudi(options);
  EXPECT_EQ(result.CompletedTasks(), 10u);
  EXPECT_EQ(result.ctrl.scheduler_crashes, 2u);
  EXPECT_EQ(result.ctrl.scheduler_recoveries, 1u);
  EXPECT_GE(result.ctrl.total_recovery_ms, 11.0 * kMsPerSecond);
  EXPECT_LT(result.ctrl.total_recovery_ms, 30.0 * kMsPerSecond);
}

TEST(CtrlFaultRecoveryTest, PartitionStretchesRecoveryThroughRetry) {
  ExperimentOptions options = SmallClusterOptions(10);
  // The recovery scan starts at t=11s, inside a partition that heals at
  // t=16s: every scan before then fails Unavailable and must back off
  // through src/sim/retry.h.
  options.ctrl_fault_plan.CrashScheduler(10.0 * kMsPerSecond, 1.0 * kMsPerSecond);
  options.ctrl_fault_plan.Partition(10.5 * kMsPerSecond, 5.5 * kMsPerSecond);

  ExperimentResult result = RunMudi(options);
  EXPECT_EQ(result.CompletedTasks(), 10u);
  EXPECT_EQ(result.ctrl.scheduler_recoveries, 1u);
  EXPECT_GE(result.ctrl.retries, 1u);
  EXPECT_GE(result.ctrl.unavailable_reads, 1u);
  EXPECT_GE(result.ctrl.total_recovery_ms, 6.0 * kMsPerSecond);
}

TEST(CtrlFaultRecoveryTest, ConfigsFlowThroughDegradedWatches) {
  ExperimentOptions options = SmallClusterOptions(8);
  options.ctrl_fault_plan.DegradeWatches(/*delay_ms=*/50.0, /*jitter_ms=*/25.0,
                                         /*drop_prob=*/0.05);

  ExperimentResult result = RunMudi(options);
  EXPECT_EQ(result.CompletedTasks(), 8u);
  EXPECT_GT(result.ctrl.configs_published, 0u);
  EXPECT_GT(result.ctrl.configs_applied, 0u);
  EXPECT_LE(result.ctrl.configs_applied, result.ctrl.configs_published);
  // Publication accounting is closed: every config was delivered, dropped,
  // or lost to a partition.
  EXPECT_EQ(result.ctrl.watch_delivered + result.ctrl.watch_dropped +
                result.ctrl.watch_lost_partition,
            result.ctrl.configs_published);
}

TEST(CtrlFaultRecoveryTest, WatchLossReestablishesAndCatchesUp) {
  ExperimentOptions options = SmallClusterOptions(10);
  options.ctrl_fault_plan.DegradeWatches(50.0, 0.0, 0.0);
  options.ctrl_fault_plan.LoseWatches(15.0 * kMsPerSecond);

  ExperimentResult result = RunMudi(options);
  EXPECT_EQ(result.CompletedTasks(), 10u);
  EXPECT_EQ(result.ctrl.watch_losses, 1u);
  // Config delivery kept working after re-establishment.
  EXPECT_GT(result.ctrl.configs_applied, 0u);
}

TEST(CtrlFaultRecoveryTest, CtrlChaosRunsAreDeterministic) {
  ExperimentOptions options = SmallClusterOptions(8);
  options.ctrl_fault_plan.DegradeWatches(100.0, 100.0, 0.1);
  options.ctrl_fault_plan.StaleReads(0.2, 4);
  options.ctrl_fault_plan.Partition(10.0 * kMsPerSecond, 5.0 * kMsPerSecond);
  options.ctrl_fault_plan.LoseWatches(20.0 * kMsPerSecond);
  options.ctrl_fault_plan.CrashScheduler(25.0 * kMsPerSecond, 2.0 * kMsPerSecond);

  ExperimentResult a = RunMudi(options);
  ExperimentResult b = RunMudi(options);

  EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_DOUBLE_EQ(a.OverallSloViolationRate(), b.OverallSloViolationRate());
  EXPECT_EQ(a.ctrl.configs_published, b.ctrl.configs_published);
  EXPECT_EQ(a.ctrl.configs_applied, b.ctrl.configs_applied);
  EXPECT_EQ(a.ctrl.watch_dropped, b.ctrl.watch_dropped);
  EXPECT_EQ(a.ctrl.stale_reads, b.ctrl.stale_reads);
  EXPECT_EQ(a.ctrl.retries, b.ctrl.retries);
  EXPECT_DOUBLE_EQ(a.ctrl.total_recovery_ms, b.ctrl.total_recovery_ms);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].completion_ms, b.tasks[i].completion_ms);
  }
}

}  // namespace
}  // namespace mudi
