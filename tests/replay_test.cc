// Tests for the decision-trace record/replay subsystem (src/replay/):
//   * header + binary-framing round-trips are bit-exact for every record
//     kind (doubles stored as raw IEEE-754 bits);
//   * the strict parser rejects truncated, corrupt, and trailing-garbage
//     traces — a partial trace must never replay silently;
//   * ReplaySource serves per-key FIFOs with sticky-last fallback and
//     counts hits/sticky-hits/misses;
//   * an end-to-end recorded run captures decisions, observations, curves,
//     and the run summary, and a counterfactual what-if over that trace
//     reproduces the same policy exactly while a different policy diverges
//     at a decision trace_diff can pinpoint.
//
// This file is allowlisted by mudi-trace-sink: it drives TraceWriter
// directly to build corruption fixtures.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/gpu/perf_oracle.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/decision_trace.h"
#include "src/replay/probe_key.h"
#include "src/replay/replay_run.h"
#include "src/replay/replay_source.h"
#include "src/replay/trace_diff.h"

namespace mudi {
namespace replay {
namespace {

TraceHeader SampleHeader() {
  TraceHeader header;
  header.policy = "Mudi";
  header.mode = "record";
  header.seed = 17;
  header.oracle_seed = 42;
  header.num_devices = 4;
  header.num_services = 4;
  header.service_offset = 0;
  return header;
}

// One trace exercising every record kind, with deliberately awkward doubles
// (exact binary fractions would hide rounding bugs, so mix in values like
// 0.1 that don't round-trip through decimal).
std::string SampleTraceBytes() {
  TraceWriter writer(SampleHeader());

  writer.AppendDeviceTable({{0, 0, 16384.0, 1.0}, {1, 1, 16384.0, 0.9}});

  TraceCurve curve;
  curve.service_index = 1;
  curve.batch = 8;
  curve.training_types = {2, 5};
  curve.k1 = 0.5;
  curve.k2 = 1.25;
  curve.x0 = 0.4;
  curve.y0 = 12.5;
  curve.sample_fractions = {0.1, 0.5, 0.9};
  curve.sample_latencies = {3.0, 9.5, 27.25};
  writer.AppendCurve(curve);

  TracePrediction prediction;
  prediction.seq = 1;
  prediction.service_index = 1;
  prediction.batch = 8;
  prediction.mix = {2, 2, 5};
  prediction.k1 = 0.3;
  prediction.k2 = 2.125;
  prediction.x0 = 0.6;
  prediction.y0 = 14.0;
  writer.AppendPrediction(prediction);

  TraceObservation obs;
  obs.seq = 2;
  obs.sim_ms = 125.5;
  obs.obs_kind = static_cast<uint8_t>(ObsKind::kProbeTraining);
  obs.device_id = 3;
  obs.key = 0xdeadbeefcafeull;
  obs.value = 7.1;
  writer.AppendObservation(obs);

  TraceQpsFeedback feedback;
  feedback.seq = 3;
  feedback.sim_ms = 126.0;
  feedback.device_id = 2;
  feedback.is_p99 = 1;
  feedback.value = 41.5;
  writer.AppendQpsFeedback(feedback);

  TraceDecision decision;
  decision.seq = 4;
  decision.sim_ms = 130.0;
  decision.hook = static_cast<uint8_t>(HookKind::kSelectDevice);
  decision.device_id = -1;
  decision.task_id = 9;
  decision.type_index = 2;
  decision.chosen_device = 1;
  decision.wall_us = 42.7;
  decision.displaced = {{7, 3}};
  decision.actions = {{static_cast<uint8_t>(ActionKind::kApplyInferenceConfig), 1, 8, 0.625}};
  decision.candidates = {{0, 1.5}, {1, 0.75}};
  SnapshotDevice dev;
  dev.device_id = 0;
  dev.healthy = 1;
  dev.slowdown = 1.1;
  dev.has_inference = 1;
  dev.service_index = 0;
  dev.inf_batch = 4;
  dev.inf_fraction = 0.5;
  dev.inf_mem_mb = 2048.0;
  SnapshotTraining training;
  training.task_id = 9;
  training.type_index = 2;
  training.gpu_fraction = 0.25;
  training.mem_required_mb = 4096.0;
  training.mem_swapped_mb = 512.0;
  training.paused = 1;
  dev.trainings = {training};
  decision.snapshot = {dev};
  writer.AppendDecision(decision);

  TraceRunSummary summary;
  summary.makespan_ms = 1000.25;
  summary.tasks_completed = 16;
  TraceServiceSummary svc;
  svc.service = "svc0";
  svc.windows_total = 10;
  svc.windows_violated = 2;
  svc.windows_violated_failure = 1;
  svc.served_requests = 1234.0;
  svc.mean_latency_ms = 3.3;
  summary.services = {svc};
  writer.AppendRunSummary(summary);

  writer.Finish();
  return writer.TakeBuffer();
}

// ---------------------------------------------------------------------------
// Header round-trip + validation
// ---------------------------------------------------------------------------

TEST(TraceHeaderTest, EncodeDecodeRoundTrip) {
  TraceHeader header = SampleHeader();
  header.mode = "counterfactual";
  header.base_policy = "GSLICE";
  // Seeds cross the JSON header as numbers, so exact round-trip holds for
  // values below 2^53 (IEEE double mantissa) — far beyond any CLI seed.
  header.seed = 0x1feedface5ull;
  StatusOr<TraceHeader> decoded = DecodeTraceHeader(EncodeTraceHeader(header));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->schema, kDecisionTraceSchema);
  EXPECT_EQ(decoded->policy, header.policy);
  EXPECT_EQ(decoded->mode, header.mode);
  EXPECT_EQ(decoded->base_policy, header.base_policy);
  EXPECT_EQ(decoded->seed, header.seed);
  EXPECT_EQ(decoded->oracle_seed, header.oracle_seed);
  EXPECT_EQ(decoded->num_devices, header.num_devices);
  EXPECT_EQ(decoded->num_services, header.num_services);
  EXPECT_EQ(decoded->service_offset, header.service_offset);
}

TEST(TraceHeaderTest, RejectsWrongSchemaAndMode) {
  EXPECT_FALSE(DecodeTraceHeader("not json at all").ok());
  EXPECT_FALSE(DecodeTraceHeader("{\"schema\":\"mudi.perf.v1\"}").ok());
  std::string bad_mode = EncodeTraceHeader(SampleHeader());
  size_t pos = bad_mode.find("\"record\"");
  ASSERT_NE(pos, std::string::npos);
  bad_mode.replace(pos, 8, "\"dreams\"");
  EXPECT_FALSE(DecodeTraceHeader(bad_mode).ok());
}

// ---------------------------------------------------------------------------
// Binary framing round-trip
// ---------------------------------------------------------------------------

TEST(TraceRoundTripTest, EveryRecordKindSurvivesBitExactly) {
  StatusOr<DecisionTrace> parsed = ParseDecisionTrace(SampleTraceBytes(), "mem");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const DecisionTrace& t = *parsed;

  EXPECT_EQ(t.header.policy, "Mudi");
  EXPECT_EQ(t.header.seed, 17u);

  ASSERT_EQ(t.device_table.size(), 2u);
  EXPECT_EQ(t.device_table[1].device_id, 1);
  EXPECT_EQ(t.device_table[1].service_index, 1u);
  EXPECT_EQ(t.device_table[1].compute_scale, 0.9);

  ASSERT_EQ(t.curves.size(), 1u);
  EXPECT_EQ(t.curves[0].training_types, (std::vector<uint32_t>{2, 5}));
  EXPECT_EQ(t.curves[0].k2, 1.25);
  EXPECT_EQ(t.curves[0].sample_fractions, (std::vector<double>{0.1, 0.5, 0.9}));

  ASSERT_EQ(t.predictions.size(), 1u);
  EXPECT_EQ(t.predictions[0].mix, (std::vector<uint32_t>{2, 2, 5}));
  EXPECT_EQ(t.predictions[0].k2, 2.125);

  ASSERT_EQ(t.observations.size(), 1u);
  EXPECT_EQ(t.observations[0].key, 0xdeadbeefcafeull);
  EXPECT_EQ(t.observations[0].value, 7.1);  // raw-bits storage: exact
  EXPECT_EQ(t.observations[0].obs_kind, static_cast<uint8_t>(ObsKind::kProbeTraining));

  ASSERT_EQ(t.qps_feedback.size(), 1u);
  EXPECT_EQ(t.qps_feedback[0].is_p99, 1u);
  EXPECT_EQ(t.qps_feedback[0].value, 41.5);

  ASSERT_EQ(t.decisions.size(), 1u);
  const TraceDecision& d = t.decisions[0];
  EXPECT_EQ(d.seq, 4u);
  EXPECT_EQ(d.hook, static_cast<uint8_t>(HookKind::kSelectDevice));
  EXPECT_EQ(d.task_id, 9);
  EXPECT_EQ(d.chosen_device, 1);
  EXPECT_EQ(d.wall_us, 42.7);
  EXPECT_EQ(d.displaced, (std::vector<std::pair<int32_t, uint32_t>>{{7, 3}}));
  ASSERT_EQ(d.actions.size(), 1u);
  EXPECT_EQ(d.actions[0].value, 0.625);
  ASSERT_EQ(d.candidates.size(), 2u);
  EXPECT_EQ(d.candidates[1].score, 0.75);
  ASSERT_EQ(d.snapshot.size(), 1u);
  EXPECT_EQ(d.snapshot[0].slowdown, 1.1);
  ASSERT_EQ(d.snapshot[0].trainings.size(), 1u);
  EXPECT_EQ(d.snapshot[0].trainings[0].mem_swapped_mb, 512.0);
  EXPECT_EQ(d.snapshot[0].trainings[0].paused, 1u);

  ASSERT_TRUE(t.summary.has_value());
  EXPECT_EQ(t.summary->makespan_ms, 1000.25);
  EXPECT_EQ(t.summary->tasks_completed, 16u);
  ASSERT_EQ(t.summary->services.size(), 1u);
  EXPECT_EQ(t.summary->services[0].service, "svc0");
  EXPECT_EQ(t.summary->services[0].windows_violated, 2u);

  std::string digest = SummarizeDecisionTrace(t);
  EXPECT_NE(digest.find(kDecisionTraceSchema), std::string::npos);
  EXPECT_NE(digest.find("select_device"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Corruption rejection (strict parser)
// ---------------------------------------------------------------------------

TEST(TraceCorruptionTest, RejectsTruncatedTail) {
  std::string bytes = SampleTraceBytes();
  EXPECT_FALSE(ParseDecisionTrace(bytes.substr(0, bytes.size() - 5), "mem").ok());
}

TEST(TraceCorruptionTest, RejectsMissingEndTrailer) {
  std::string bytes = SampleTraceBytes();
  // The kEnd trailer is the last 13 bytes: [u32 8][u8 kind][u64 count].
  EXPECT_FALSE(ParseDecisionTrace(bytes.substr(0, bytes.size() - 13), "mem").ok());
}

TEST(TraceCorruptionTest, RejectsInconsistentRecordCount) {
  std::string bytes = SampleTraceBytes();
  bytes[bytes.size() - 8] = static_cast<char>(bytes[bytes.size() - 8] + 1);
  EXPECT_FALSE(ParseDecisionTrace(bytes, "mem").ok());
}

TEST(TraceCorruptionTest, RejectsUnknownRecordKind) {
  std::string bytes = SampleTraceBytes();
  size_t first_record = bytes.find('\n') + 1;
  ASSERT_LT(first_record + 4, bytes.size());
  bytes[first_record + 4] = 0x6f;  // not a RecordKind
  EXPECT_FALSE(ParseDecisionTrace(bytes, "mem").ok());
}

TEST(TraceCorruptionTest, RejectsPayloadLengthMismatch) {
  std::string bytes = SampleTraceBytes();
  size_t first_record = bytes.find('\n') + 1;
  bytes[first_record] = static_cast<char>(bytes[first_record] + 1);  // length low byte
  EXPECT_FALSE(ParseDecisionTrace(bytes, "mem").ok());
}

TEST(TraceCorruptionTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseDecisionTrace(SampleTraceBytes() + "xx", "mem").ok());
}

TEST(TraceCorruptionTest, RejectsHeaderOnlyAndEmptyInput) {
  EXPECT_FALSE(ParseDecisionTrace("", "mem").ok());
  EXPECT_FALSE(ParseDecisionTrace("{\"schema\":\"bogus\"}\n", "mem").ok());
}

// ---------------------------------------------------------------------------
// ReplaySource lookup semantics
// ---------------------------------------------------------------------------

TEST(ReplaySourceTest, FifoThenStickyThenMiss) {
  TraceWriter writer(SampleHeader());
  const uint64_t key = 0xabcdu;
  TraceObservation obs;
  obs.obs_kind = static_cast<uint8_t>(ObsKind::kProbeInference);
  obs.key = key;
  obs.value = 1.5;
  writer.AppendObservation(obs);
  obs.value = 2.5;
  writer.AppendObservation(obs);
  writer.Finish();
  StatusOr<DecisionTrace> trace = ParseDecisionTrace(writer.TakeBuffer(), "mem");
  ASSERT_TRUE(trace.ok()) << trace.status().message();

  ReplaySource source(std::move(*trace));
  EXPECT_EQ(source.TakeObservation(key), std::optional<double>(1.5));
  EXPECT_EQ(source.TakeObservation(key), std::optional<double>(2.5));
  // FIFO exhausted: the last value is served sticky.
  EXPECT_EQ(source.TakeObservation(key), std::optional<double>(2.5));
  EXPECT_EQ(source.hits(), 2u);
  EXPECT_EQ(source.sticky_hits(), 1u);
  EXPECT_EQ(source.TakeObservation(key + 1), std::nullopt);
  EXPECT_EQ(source.misses(), 1u);
}

TEST(ReplaySourceTest, PredictionsKeyedByServiceBatchMix) {
  TraceWriter writer(SampleHeader());
  TracePrediction prediction;
  prediction.service_index = 2;
  prediction.batch = 16;
  prediction.mix = {1, 4};
  prediction.k1 = 0.25;
  writer.AppendPrediction(prediction);
  prediction.k1 = 0.75;  // same key recurs after an online curve refresh
  writer.AppendPrediction(prediction);
  writer.Finish();
  StatusOr<DecisionTrace> trace = ParseDecisionTrace(writer.TakeBuffer(), "mem");
  ASSERT_TRUE(trace.ok()) << trace.status().message();

  ReplaySource source(std::move(*trace));
  std::optional<PredictedModel> first = source.TakePrediction(2, 16, {1, 4});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->k1, 0.25);
  std::optional<PredictedModel> second = source.TakePrediction(2, 16, {1, 4});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->k1, 0.75);
  EXPECT_FALSE(source.TakePrediction(2, 16, {1, 5}).has_value());
}

// ---------------------------------------------------------------------------
// trace_diff semantics (synthetic streams)
// ---------------------------------------------------------------------------

DecisionTrace SyntheticTrace() {
  DecisionTrace trace;
  trace.header = SampleHeader();
  for (uint64_t i = 0; i < 3; ++i) {
    TraceDecision d;
    d.seq = i;
    d.hook = static_cast<uint8_t>(i == 0 ? HookKind::kInitialize : HookKind::kSelectDevice);
    d.task_id = static_cast<int32_t>(i);
    d.chosen_device = static_cast<int32_t>(i % 2);
    d.wall_us = 10.0 * static_cast<double>(i + 1);
    trace.decisions.push_back(d);
  }
  return trace;
}

TEST(TraceDiffTest, IdenticalTracesReportNoDivergence) {
  DecisionTrace a = SyntheticTrace();
  TraceDiffResult diff = DiffTraces(a, a);
  EXPECT_FALSE(diff.first_divergence.has_value());
  EXPECT_EQ(diff.diverged_positions, 0u);
}

TEST(TraceDiffTest, ChoiceDivergenceIsPinpointed) {
  DecisionTrace a = SyntheticTrace();
  DecisionTrace b = SyntheticTrace();
  b.decisions[2].chosen_device = 3;
  TraceDiffResult diff = DiffTraces(a, b);
  ASSERT_TRUE(diff.first_divergence.has_value());
  EXPECT_EQ(diff.first_divergence->index, 2u);
  EXPECT_EQ(diff.first_divergence->kind, "choice");
  EXPECT_EQ(diff.diverged_positions, 1u);
}

TEST(TraceDiffTest, StructuralAndActionDivergenceClasses) {
  DecisionTrace a = SyntheticTrace();
  DecisionTrace b = SyntheticTrace();
  b.decisions[1].hook = static_cast<uint8_t>(HookKind::kOnQpsChange);
  TraceDiffResult structural = DiffTraces(a, b);
  ASSERT_TRUE(structural.first_divergence.has_value());
  EXPECT_EQ(structural.first_divergence->kind, "structural");

  // Same action count but a different actuation: the detail names both.
  DecisionTrace c = SyntheticTrace();
  DecisionTrace e = SyntheticTrace();
  c.decisions[1].actions = {{static_cast<uint8_t>(ActionKind::kApplyTrainingFraction), 0, 1, 0.5}};
  e.decisions[1].actions = {{static_cast<uint8_t>(ActionKind::kSetTrainingPaused), 0, 1, 1.0}};
  TraceDiffResult actions = DiffTraces(c, e);
  ASSERT_TRUE(actions.first_divergence.has_value());
  EXPECT_EQ(actions.first_divergence->kind, "actions");
  EXPECT_NE(FormatTraceDiff(actions).find("set_training_paused"), std::string::npos);

  // Mismatched action counts fall back to the count-only detail.
  TraceDiffResult counts = DiffTraces(a, e);
  ASSERT_TRUE(counts.first_divergence.has_value());
  EXPECT_EQ(counts.first_divergence->kind, "actions");
  EXPECT_NE(counts.first_divergence->detail.find("0 action(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: record a run, then counterfactual-replay it
// ---------------------------------------------------------------------------

ExperimentOptions SmallOptions(uint64_t seed) {
  ExperimentOptions options;
  options.num_nodes = 2;
  options.gpus_per_node = 2;
  options.num_services = 4;
  options.seed = seed;
  options.trace.num_tasks = 16;
  options.trace.mean_interarrival_ms = 2.0 * kMsPerSecond;
  options.trace.duration_compression = 8000.0;
  options.trace.seed = seed + 1;
  return options;
}

TraceHeader HeaderFor(const ExperimentOptions& options, const std::string& policy) {
  TraceHeader header;
  header.policy = policy;
  header.seed = options.seed;
  header.oracle_seed = options.oracle_seed;
  header.num_devices = static_cast<uint32_t>(options.num_nodes * options.gpus_per_node);
  header.num_services = static_cast<uint32_t>(options.num_services);
  header.service_offset = static_cast<uint32_t>(options.service_offset);
  return header;
}

// Runs `policy` once with a recorder attached and returns the trace path.
std::string RecordRun(const std::string& policy_name, const ExperimentOptions& base_options,
                      const std::string& file_name) {
  std::string path = ::testing::TempDir() + file_name;
  auto recorder_or =
      DecisionRecorder::Create(path, HeaderFor(base_options, policy_name));
  EXPECT_TRUE(recorder_or.ok()) << recorder_or.status().message();
  ExperimentOptions options = base_options;
  options.recorder = recorder_or->get();
  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy(policy_name, profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  (void)experiment.Run();
  Status finish = (*recorder_or)->Close();
  EXPECT_TRUE(finish.ok()) << finish.message();
  EXPECT_GT((*recorder_or)->decisions_recorded(), 0u);
  return path;
}

TEST(ReplayEndToEndTest, RecordedTraceCapturesTheRun) {
  ExperimentOptions options = SmallOptions(/*seed=*/61);
  std::string path = RecordRun("Mudi", options, "e2e_record.trace");
  StatusOr<DecisionTrace> trace = ReadDecisionTrace(path);
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  EXPECT_EQ(trace->header.policy, "Mudi");
  EXPECT_EQ(trace->device_table.size(), 4u);
  EXPECT_FALSE(trace->curves.empty()) << "Mudi's Initialize profiles latency curves";
  EXPECT_FALSE(trace->observations.empty()) << "Mudi probes during SelectDevice";
  EXPECT_FALSE(trace->decisions.empty());
  ASSERT_TRUE(trace->summary.has_value());
  EXPECT_GT(trace->summary->tasks_completed, 0u);
  std::remove(path.c_str());
}

TEST(ReplayEndToEndTest, SamePolicyWhatIfReproducesEveryDecision) {
  // Over a plain recording and a device-chaos one (failures, a straggler,
  // lost feedback), the live run and the what-if answer probes through the
  // same path, so every probe is a first-time hit on its recorded key.
  ExperimentOptions chaos = SmallOptions(/*seed=*/67);
  chaos.fault_plan = StandardChaosPlan(chaos.num_nodes * chaos.gpus_per_node, chaos.num_nodes);
  for (const ExperimentOptions& options : {SmallOptions(/*seed=*/67), chaos}) {
    SCOPED_TRACE(options.fault_plan.empty() ? "plain recording" : "device-chaos recording");
    std::string path = RecordRun("Mudi", options, "e2e_whatif_same.trace");
    StatusOr<ReplaySource> source = ReplaySource::Load(path);
    ASSERT_TRUE(source.ok()) << source.status().message();
    if (!options.fault_plan.empty()) {
      size_t failures = 0;
      for (const TraceDecision& d : source->trace().decisions) {
        failures += static_cast<HookKind>(d.hook) == HookKind::kOnDeviceFailed ? 1 : 0;
      }
      EXPECT_GT(failures, 0u) << "the chaos recording must contain device failures";
    }

    PerfOracle profiling_oracle(source->trace().header.oracle_seed);
    auto policy = MakePolicy("Mudi", profiling_oracle);
    StatusOr<WhatIfResult> result = RunWhatIf(*source, *policy);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->decisions_replayed, source->trace().decisions.size());
    EXPECT_FALSE(result->diverged) << result->first_divergence_detail;
    EXPECT_EQ(result->diverged_decisions, 0u);
    // Non-vacuous: the what-if genuinely consulted the recorded observations.
    EXPECT_GT(result->probe_hits, 0u);
    EXPECT_EQ(result->probe_sticky_hits, 0u);
    EXPECT_EQ(result->probe_misses, 0u);
    std::remove(path.c_str());
  }
}

TEST(ReplayEndToEndTest, DifferentPolicyDivergesAndTraceDiffPinpointsIt) {
  ExperimentOptions options = SmallOptions(/*seed=*/71);
  std::string recorded_path = RecordRun("Mudi", options, "e2e_whatif_diff.trace");
  StatusOr<ReplaySource> source = ReplaySource::Load(recorded_path);
  ASSERT_TRUE(source.ok()) << source.status().message();

  // What-if: replay the Mudi trace through the device-only ablation, writing
  // its own counterfactual trace for trace_diff.
  TraceHeader whatif_header = source->trace().header;
  whatif_header.policy = "Mudi-device-only";
  whatif_header.mode = "counterfactual";
  whatif_header.base_policy = source->trace().header.policy;
  std::string whatif_path = ::testing::TempDir() + "e2e_whatif_diff.counterfactual.trace";
  auto whatif_recorder = DecisionRecorder::Create(whatif_path, whatif_header);
  ASSERT_TRUE(whatif_recorder.ok()) << whatif_recorder.status().message();

  PerfOracle profiling_oracle(source->trace().header.oracle_seed);
  auto policy = MakePolicy("Mudi-device-only", profiling_oracle);
  WhatIfOptions whatif_options;
  whatif_options.recorder = whatif_recorder->get();
  StatusOr<WhatIfResult> result = RunWhatIf(*source, *policy, whatif_options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_TRUE((*whatif_recorder)->Close().ok());
  ASSERT_TRUE(result->diverged)
      << "device-only ablation unexpectedly reproduced every cluster-level choice";

  StatusOr<DecisionTrace> recorded = ReadDecisionTrace(recorded_path);
  ASSERT_TRUE(recorded.ok()) << recorded.status().message();
  StatusOr<DecisionTrace> counterfactual = ReadDecisionTrace(whatif_path);
  ASSERT_TRUE(counterfactual.ok()) << counterfactual.status().message();
  EXPECT_EQ(counterfactual->header.mode, "counterfactual");
  EXPECT_FALSE(counterfactual->summary.has_value())
      << "counterfactual traces carry no run summary (no data plane simulated)";

  TraceDiffResult diff = DiffTraces(*recorded, *counterfactual);
  ASSERT_TRUE(diff.first_divergence.has_value());
  EXPECT_EQ(diff.first_divergence->seq_a, result->first_divergence_seq);
  std::string report = FormatTraceDiff(diff);
  EXPECT_NE(report.find("FIRST DIVERGENCE"), std::string::npos);
  std::remove(recorded_path.c_str());
  std::remove(whatif_path.c_str());
}

}  // namespace
}  // namespace replay
}  // namespace mudi
