#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/float_eq.h"
#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/fault/control_fault_plan.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace_reader.h"
#include "src/telemetry/trace_recorder.h"

namespace mudi {
namespace {

using telemetry::MetricsRegistry;
using telemetry::ParsedTrace;
using telemetry::TraceArg;
using telemetry::TraceArgs;
using telemetry::TraceEvent;
using telemetry::TraceRecorder;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterSemantics) {
  MetricsRegistry registry;
  telemetry::Counter& c = registry.GetCounter("events");
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.Increment();
  c.Increment(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Get-or-create returns the same object (stable address).
  EXPECT_EQ(&registry.GetCounter("events"), &c);
  EXPECT_DOUBLE_EQ(registry.GetCounter("events").value(), 3.5);
}

TEST(MetricsRegistryTest, GaugeSemantics) {
  MetricsRegistry registry;
  telemetry::Gauge& g = registry.GetGauge("depth");
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.Add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.Set(0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsRegistryTest, HistogramBucketsAndStats) {
  MetricsRegistry registry;
  telemetry::Histogram& h = registry.GetHistogram("lat", {1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(5.0);    // bucket 1 (<= 10)
  h.Observe(10.0);   // bucket 1 (inclusive upper edge)
  h.Observe(50.0);   // bucket 2 (<= 100)
  h.Observe(500.0);  // overflow bucket

  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 565.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);

  // Quantiles are monotone and within the observed range.
  double p50 = h.ApproxQuantile(0.5);
  double p99 = h.ApproxQuantile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, 0.0);
  EXPECT_GE(p99, p50);

  // Bucket spec is only consulted on creation.
  EXPECT_EQ(&registry.GetHistogram("lat", {42.0}), &h);
  EXPECT_EQ(h.upper_bounds().size(), 3u);
}

TEST(MetricsRegistryTest, SnapshotsAndCsv) {
  MetricsRegistry registry;
  registry.GetCounter("a").Increment(1.0);
  registry.RecordSnapshot(100.0);
  registry.GetCounter("a").Increment(1.0);
  registry.GetGauge("b").Set(9.0);  // appears mid-run
  registry.RecordSnapshot(200.0);

  ASSERT_EQ(registry.snapshots().size(), 2u);
  EXPECT_DOUBLE_EQ(registry.snapshots()[0].time_ms, 100.0);
  EXPECT_DOUBLE_EQ(registry.snapshots()[1].time_ms, 200.0);

  std::ostringstream csv;
  registry.WriteSnapshotsCsv(csv);
  std::string text = csv.str();
  // Header carries the union of columns; two data rows follow.
  EXPECT_NE(text.find("time_ms"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("b"), std::string::npos);
  size_t lines = 0;
  for (char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(MetricsRegistryTest, JsonContainsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("hits").Increment(4.0);
  registry.GetGauge("level").Set(0.5);
  registry.GetHistogram("wait", {10.0}).Observe(3.0);
  std::ostringstream os;
  registry.WriteJson(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"level\""), std::string::npos);
  EXPECT_NE(json.find("\"wait\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceRecorder: ring buffer, Chrome JSON, binary round trip
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RingBufferWraparound) {
  TraceRecorder::Options options;
  options.ring_capacity = 4;
  TraceRecorder recorder(options);
  for (int i = 0; i < 6; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    recorder.Instant("cat", name, /*tid=*/0, /*ts_ms=*/double(i));
  }
  EXPECT_EQ(recorder.total_recorded(), 6u);
  EXPECT_EQ(recorder.dropped_events(), 2u);
  EXPECT_EQ(recorder.size(), 4u);

  std::vector<TraceEvent> events = recorder.ChronologicalEvents();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two overwritten; survivors come out oldest-first.
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
  EXPECT_EQ(events[3].name, "e5");
}

TEST(TraceRecorderTest, UnboundedModeDropsNothing) {
  TraceRecorder recorder;
  for (int i = 0; i < 100; ++i) {
    recorder.Instant("c", "e", 0, double(i));
  }
  EXPECT_EQ(recorder.size(), 100u);
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TraceRecorder MakeSampleRecorder() {
  TraceRecorder recorder;
  recorder.SetProcessName("test-process");
  recorder.SetThreadName(0, "gpu0");
  recorder.SetThreadName(1, "gpu1");
  recorder.Complete("serving", "batch", 0, 10.0, 5.5,
                    TraceArgs{TraceArg::Num("requests", 32.0)});
  recorder.Instant("placement", "place", 1, 12.25,
                   TraceArgs{TraceArg::Num("task_id", 7.0),
                             TraceArg::Str("type", "ResNet50 \"quoted\"\n")});
  recorder.Counter("sm_util", 0, 20.0, 0.75);
  return recorder;
}

void ExpectSampleTrace(const ParsedTrace& trace) {
  EXPECT_EQ(trace.process_name, "test-process");
  ASSERT_EQ(trace.thread_names.size(), 2u);
  EXPECT_EQ(trace.thread_names.at(0), "gpu0");
  EXPECT_EQ(trace.thread_names.at(1), "gpu1");
  ASSERT_EQ(trace.events.size(), 3u);

  const TraceEvent& complete = trace.events[0];
  EXPECT_EQ(complete.phase, telemetry::kPhaseComplete);
  EXPECT_EQ(complete.cat, "serving");
  EXPECT_EQ(complete.name, "batch");
  EXPECT_EQ(complete.tid, 0);
  EXPECT_NEAR(complete.ts_ms, 10.0, 1e-9);
  EXPECT_NEAR(complete.dur_ms, 5.5, 1e-9);
  ASSERT_EQ(complete.args.size(), 1u);
  EXPECT_EQ(complete.args[0].key, "requests");
  EXPECT_TRUE(complete.args[0].is_number);
  EXPECT_NEAR(complete.args[0].number, 32.0, 1e-9);

  const TraceEvent& instant = trace.events[1];
  EXPECT_EQ(instant.phase, telemetry::kPhaseInstant);
  EXPECT_EQ(instant.tid, 1);
  EXPECT_NEAR(instant.ts_ms, 12.25, 1e-9);
  ASSERT_EQ(instant.args.size(), 2u);
  EXPECT_FALSE(instant.args[1].is_number);
  EXPECT_EQ(instant.args[1].text, "ResNet50 \"quoted\"\n");  // escaping survives

  const TraceEvent& counter = trace.events[2];
  EXPECT_EQ(counter.phase, telemetry::kPhaseCounter);
  EXPECT_EQ(counter.name, "sm_util");
  ASSERT_EQ(counter.args.size(), 1u);
  EXPECT_NEAR(counter.args[0].number, 0.75, 1e-9);
}

TEST(TraceRecorderTest, ChromeJsonRoundTrip) {
  TraceRecorder recorder = MakeSampleRecorder();
  std::ostringstream os;
  recorder.ExportChromeJson(os);
  std::string json = os.str();
  // Well-formed enough for the strict reader (balanced structure, quoting).
  std::istringstream is(json);
  ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(telemetry::ParseChromeTraceJson(is, &trace, &error)) << error;
  ExpectSampleTrace(trace);
}

TEST(TraceRecorderTest, BinaryRoundTrip) {
  TraceRecorder recorder = MakeSampleRecorder();
  std::ostringstream os;
  recorder.WriteBinary(os);
  std::istringstream is(os.str());
  ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(telemetry::ReadBinaryTrace(is, &trace, &error)) << error;
  ExpectSampleTrace(trace);
}

TEST(TraceRecorderTest, DroppedCountSurvivesExport) {
  TraceRecorder::Options options;
  options.ring_capacity = 2;
  TraceRecorder recorder(options);
  for (int i = 0; i < 5; ++i) {
    recorder.Instant("c", "e", 0, double(i));
  }
  std::ostringstream os;
  recorder.ExportChromeJson(os);
  std::istringstream is(os.str());
  ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(telemetry::ParseChromeTraceJson(is, &trace, &error)) << error;
  EXPECT_EQ(trace.dropped_events, 3u);
  EXPECT_EQ(trace.total_recorded, 5u);
}

TEST(TraceRecorderTest, NonFiniteArgsExportAsValidJson) {
  TraceRecorder recorder;
  recorder.Instant("c", "e", 0, 1.0,
                   TraceArgs{TraceArg::Num("nan", std::numeric_limits<double>::quiet_NaN()),
                             TraceArg::Num("inf", std::numeric_limits<double>::infinity())});
  std::ostringstream os;
  recorder.ExportChromeJson(os);
  std::istringstream is(os.str());
  ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(telemetry::ParseChromeTraceJson(is, &trace, &error)) << error << "\n" << os.str();
  ASSERT_EQ(trace.events.size(), 1u);
  ASSERT_EQ(trace.events[0].args.size(), 2u);
  EXPECT_EQ(trace.events[0].args[0].number, 0.0);
  EXPECT_EQ(trace.events[0].args[1].number, 0.0);
}

TEST(TraceReaderTest, DeeplyNestedJsonFailsWithoutCrashing) {
  constexpr size_t kDepth = 100000;
  std::istringstream is("{\"traceEvents\":" + std::string(kDepth, '[') +
                        std::string(kDepth, ']') + "}");
  ParsedTrace trace;
  std::string error;
  EXPECT_FALSE(telemetry::ParseChromeTraceJson(is, &trace, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Experiment integration: determinism, non-perturbation, summary agreement
// ---------------------------------------------------------------------------

ExperimentOptions TinyOptions(size_t num_tasks, uint64_t seed) {
  ExperimentOptions options;
  options.num_nodes = 2;
  options.gpus_per_node = 2;
  options.num_services = 4;
  options.seed = seed;
  options.trace.num_tasks = num_tasks;
  options.trace.mean_interarrival_ms = 2.0 * kMsPerSecond;
  options.trace.duration_compression = 8000.0;
  options.trace.seed = seed + 1;
  return options;
}

ExperimentResult RunTraced(const std::string& policy_name, ExperimentOptions options,
                           std::vector<TraceEvent>* events_out,
                           std::string* chrome_json_out = nullptr) {
  options.telemetry.enabled = true;
  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy(policy_name, profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  ExperimentResult result = experiment.Run();
  if (events_out != nullptr) {
    *events_out = experiment.telemetry_sink().trace().ChronologicalEvents();
  }
  if (chrome_json_out != nullptr) {
    std::ostringstream os;
    experiment.telemetry_sink().trace().ExportChromeJson(os);
    *chrome_json_out = os.str();
  }
  return result;
}

TEST(TelemetryExperimentTest, TimestampsDeterministicAcrossIdenticalRuns) {
  if (!Telemetry::CompiledWithTracing()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  std::vector<TraceEvent> a_events, b_events;
  ExperimentResult a = RunTraced("Mudi", TinyOptions(6, 31), &a_events);
  ExperimentResult b = RunTraced("Mudi", TinyOptions(6, 31), &b_events);
  EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
  ASSERT_FALSE(a_events.empty());
  ASSERT_EQ(a_events.size(), b_events.size());
  for (size_t i = 0; i < a_events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a_events[i].ts_ms, b_events[i].ts_ms) << i;
    EXPECT_DOUBLE_EQ(a_events[i].dur_ms, b_events[i].dur_ms) << i;
    EXPECT_EQ(a_events[i].tid, b_events[i].tid) << i;
    EXPECT_EQ(a_events[i].name, b_events[i].name) << i;
    EXPECT_EQ(a_events[i].cat, b_events[i].cat) << i;
  }
}

TEST(TelemetryExperimentTest, TelemetryDoesNotPerturbResults) {
  ExperimentOptions plain_options = TinyOptions(6, 33);
  PerfOracle plain_oracle(plain_options.oracle_seed);
  auto plain_policy = MakePolicy("Mudi", plain_oracle);
  ClusterExperiment plain_exp(plain_options, plain_policy.get());
  ExperimentResult plain = plain_exp.Run();

  std::vector<TraceEvent> events;
  ExperimentResult traced = RunTraced("Mudi", TinyOptions(6, 33), &events);

  EXPECT_DOUBLE_EQ(plain.makespan_ms, traced.makespan_ms);
  EXPECT_DOUBLE_EQ(plain.MeanCtMs(), traced.MeanCtMs());
  EXPECT_DOUBLE_EQ(plain.MeanWaitingMs(), traced.MeanWaitingMs());
  EXPECT_DOUBLE_EQ(plain.OverallSloViolationRate(), traced.OverallSloViolationRate());
  EXPECT_DOUBLE_EQ(plain.avg_sm_util, traced.avg_sm_util);
  EXPECT_DOUBLE_EQ(plain.avg_mem_util, traced.avg_mem_util);
}

TEST(TelemetryExperimentTest, TraceCoversLifecycleAcrossDevices) {
  if (!Telemetry::CompiledWithTracing()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  std::vector<TraceEvent> events;
  ExperimentResult result = RunTraced("Mudi", TinyOptions(8, 35), &events);
  ASSERT_EQ(result.CompletedTasks(), 8u);

  std::set<int> serving_lanes, placement_lanes;
  bool saw_arrival = false, saw_tune = false, saw_training_span = false;
  for (const TraceEvent& e : events) {
    if (e.cat == "serving" && e.phase == telemetry::kPhaseComplete) {
      serving_lanes.insert(e.tid);
    }
    if (e.cat == "placement") {
      placement_lanes.insert(e.tid);
    }
    saw_arrival |= e.cat == "training" && e.name == "task_arrival";
    saw_tune |= e.cat == "tuning";
    saw_training_span |= e.cat == "training" && e.phase == telemetry::kPhaseComplete;
  }
  EXPECT_GE(serving_lanes.size(), 2u);  // >= 2 device lanes carry serving spans
  EXPECT_GE(placement_lanes.size(), 2u);
  EXPECT_TRUE(saw_arrival);
  EXPECT_TRUE(saw_tune);
  EXPECT_TRUE(saw_training_span);
}

TEST(TelemetryExperimentTest, TraceSummaryUtilizationAgreesWithExperiment) {
  if (!Telemetry::CompiledWithTracing()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  std::string json;
  ExperimentResult result = RunTraced("Mudi", TinyOptions(6, 37), nullptr, &json);

  std::istringstream is(json);
  ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(telemetry::ParseChromeTraceJson(is, &trace, &error)) << error;
  telemetry::TraceSummary summary = telemetry::SummarizeTrace(trace);

  ASSERT_GT(result.avg_sm_util, 0.0);
  EXPECT_NEAR(summary.cluster_avg_sm_util, result.avg_sm_util,
              0.01 * result.avg_sm_util);
  EXPECT_NEAR(summary.cluster_avg_mem_util, result.avg_mem_util,
              0.01 * std::max(result.avg_mem_util, 1e-6));
}

TEST(TraceSummaryTest, DowntimeAttributionPairsFaultInstants) {
  // Hand-built trace: device 1 down 100..400 ms, device 2 down at 600 ms and
  // never recovered (interval runs to span end, here the last event at 1000).
  ParsedTrace trace;
  auto instant = [](int tid, double ts, const char* name) {
    TraceEvent e;
    e.phase = telemetry::kPhaseInstant;
    e.tid = tid;
    e.ts_ms = ts;
    e.cat = "fault";
    e.name = name;
    return e;
  };
  trace.events.push_back(instant(1, 100.0, "device_down"));
  trace.events.push_back(instant(1, 400.0, "device_up"));
  trace.events.push_back(instant(2, 600.0, "device_down"));
  TraceEvent end;
  end.phase = telemetry::kPhaseInstant;
  end.tid = 0;
  end.ts_ms = 1000.0;
  end.cat = "slo";
  end.name = "window_violation";
  trace.events.push_back(end);

  telemetry::TraceSummary summary = telemetry::SummarizeTrace(trace);
  EXPECT_DOUBLE_EQ(summary.lanes.at(1).downtime_ms, 300.0);
  EXPECT_DOUBLE_EQ(summary.lanes.at(2).downtime_ms, 400.0);
  EXPECT_DOUBLE_EQ(summary.lanes.at(0).downtime_ms, 0.0);
  EXPECT_DOUBLE_EQ(summary.total_downtime_ms, 700.0);
  EXPECT_EQ(summary.lanes.at(1).decision_counts.at("fault/device_down"), 1u);
}

TEST(TelemetryExperimentTest, TraceDowntimeMatchesFaultMetrics) {
  if (!Telemetry::CompiledWithTracing()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  ExperimentOptions options = TinyOptions(6, 41);
  options.horizon_ms = 60.0 * kMsPerSecond;  // both fault edges fire before end
  options.fault_plan.FailDevice(1, 20.0 * kMsPerSecond, 30.0 * kMsPerSecond);
  std::vector<TraceEvent> events;
  ExperimentResult result = RunTraced("Mudi", options, &events);

  ASSERT_EQ(result.faults.device_failures, 1u);
  ASSERT_EQ(result.faults.devices_recovered, 1u);
  ParsedTrace trace;
  trace.events = events;
  telemetry::TraceSummary summary = telemetry::SummarizeTrace(trace);
  // The fault category shows up, and the reader's downtime attribution
  // reproduces the injector's accounting for the recovered interval.
  EXPECT_GE(summary.events_by_category.at("fault"), 2u);
  EXPECT_NEAR(summary.lanes.at(1).downtime_ms, 30.0 * kMsPerSecond, 1e-6);
  EXPECT_NEAR(summary.total_downtime_ms, result.faults.total_downtime_ms, 1e-6);
}

// Run() arms ctrl_fault_plan before fault_plan, so where the standard
// schedules tie at 210 s the scheduler crash fires before the feedback
// restore, in the trace as in the simulation.
TEST(TelemetryExperimentTest, ControlFaultsFireBeforeSameInstantDeviceFaults) {
  if (!Telemetry::CompiledWithTracing()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  ExperimentOptions options = TinyOptions(6, 41);
  options.horizon_ms = 215.0 * kMsPerSecond;
  options.fault_plan = StandardChaosPlan(4, 2);
  options.ctrl_fault_plan = StandardControlChaosPlan();
  std::vector<TraceEvent> events;
  RunTraced("Mudi", options, &events);
  std::vector<std::string> at_tie;
  for (const TraceEvent& e : events) {
    if (ExactEq(e.ts_ms, 210.0 * kMsPerSecond) && (e.cat == "fault" || e.cat == "ctrl")) {
      at_tie.push_back(e.name);
    }
  }
  EXPECT_EQ(at_tie, (std::vector<std::string>{"scheduler_crash", "feedback_restored"}));
}

TEST(TelemetryExperimentTest, MetricsCountersMatchResult) {
  ExperimentOptions options = TinyOptions(6, 39);
  options.telemetry.enabled = true;
  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy("Mudi", profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  ExperimentResult result = experiment.Run();

  const auto& metrics = experiment.telemetry_sink().metrics();
  const auto& counters = metrics.counters();
  ASSERT_TRUE(counters.count("training.completions"));
  EXPECT_DOUBLE_EQ(counters.at("training.completions").value(),
                   static_cast<double>(result.CompletedTasks()));
  ASSERT_TRUE(counters.count("training.arrivals"));
  EXPECT_DOUBLE_EQ(counters.at("training.arrivals").value(), 6.0);
  ASSERT_TRUE(counters.count("slo.windows_total"));
  EXPECT_GT(counters.at("slo.windows_total").value(), 0.0);
  // The simulator's dispatch stats flow into the registry too.
  ASSERT_TRUE(counters.count("sim.events_fired"));
  EXPECT_GT(counters.at("sim.events_fired").value(), 0.0);
  EXPECT_FALSE(metrics.snapshots().empty());
}

TEST(TelemetryExperimentTest, DisabledTelemetryRecordsNothing) {
  ExperimentOptions options = TinyOptions(4, 41);
  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy("GSLICE", profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  (void)experiment.Run();
  EXPECT_EQ(experiment.telemetry(), nullptr);
  EXPECT_TRUE(experiment.telemetry_sink().metrics().counters().empty());
  EXPECT_EQ(experiment.telemetry_sink().trace().size(), 0u);
}

// A malformed MUDI_TRACE_RING is a hard error, not a silent fallback to an
// unbounded trace or a truncated ring.
TEST(TelemetryOptionsDeathTest, MalformedTraceRingIsAHardError) {
  for (const char* bad : {"abc", "-1", "10k", "99999999999999999999"}) {
    EXPECT_DEATH(
        {
          setenv("MUDI_TRACE_RING", bad, /*overwrite=*/1);
          TelemetryOptions options;
          options.ApplyEnvOverrides();
        },
        "parsed >= 0")
        << "MUDI_TRACE_RING=" << bad;
  }
}

TEST(TelemetryOptionsTest, TraceRingTakesANonNegativeInteger) {
  std::optional<std::string> saved = GetEnv("MUDI_TRACE_RING");
  setenv("MUDI_TRACE_RING", "4096", /*overwrite=*/1);
  TelemetryOptions options;
  options.ApplyEnvOverrides();
  EXPECT_EQ(options.trace_ring_capacity, 4096u);
  if (saved.has_value()) {
    setenv("MUDI_TRACE_RING", saved->c_str(), /*overwrite=*/1);
  } else {
    unsetenv("MUDI_TRACE_RING");
  }
}

}  // namespace
}  // namespace mudi
