// Decision trace (schema mudi.decision_trace.v1): the on-disk record of
// everything a scheduling run observed and decided — profiled latency
// curves, interference-curve predictions, what-if probe observations,
// monitor feedback reads, and one record per policy decision point with the
// observation snapshot, candidate scores, chosen action(s), sim-time, and a
// causal sequence number.
//
// File layout: one JSON header line (parsed by the shared reader in
// src/common/json.h, like the BENCH_*.json artifacts), followed by
// length-prefixed little-endian binary records:
//
//   {"schema":"mudi.decision_trace.v1", ...}\n
//   [u32 payload_len][u8 kind][payload] ...
//   [u32 8][u8 kEnd][u64 record_count]
//
// Doubles are stored as raw IEEE-754 bit patterns, so a replayed observation
// is bit-identical to the live one — the property the record→replay fidelity
// tests (determinism_test) pin. The kEnd trailer carries the record count;
// a missing or inconsistent trailer marks the trace truncated and the reader
// rejects it.
#ifndef SRC_REPLAY_DECISION_TRACE_H_
#define SRC_REPLAY_DECISION_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/replay_hooks.h"
#include "src/common/json.h"
#include "src/common/status.h"

namespace mudi {
namespace replay {

inline constexpr char kDecisionTraceSchema[] = "mudi.decision_trace.v1";

// --- schema enums ------------------------------------------------------------

enum class RecordKind : uint8_t {
  kDeviceTable = 1,
  kCurve = 2,
  kPrediction = 3,
  kObservation = 4,
  kQpsFeedback = 5,
  kDecision = 6,
  kRunSummary = 7,
  kEnd = 8,
};

// The policy decision points (MultiplexPolicy hooks) plus Initialize.
enum class HookKind : uint8_t {
  kInitialize = 0,
  kSelectDevice = 1,
  kOnTrainingPlaced = 2,
  kOnTrainingCompleted = 3,
  kOnQpsChange = 4,
  kOnDeviceFailed = 5,
  kOnDeviceRecovered = 6,
  kOnControlPlaneRestart = 7,
};
inline constexpr size_t kNumHookKinds = 8;
const char* HookName(HookKind hook);

enum class ObsKind : uint8_t {
  kProbeInference = 0,  // SchedulingEnv::ProbeInferenceLatencyMs
  kProbeTraining = 1,   // SchedulingEnv::ProbeTrainingIterMs
};

enum class ActionKind : uint8_t {
  kApplyInferenceConfig = 0,  // arg = batch, value = gpu fraction
  kApplyTrainingFraction = 1, // arg = task id, value = fraction
  kSetTrainingPaused = 2,     // arg = task id, value = 0/1
};
const char* ActionName(ActionKind action);

// --- record payloads ---------------------------------------------------------

struct TraceHeader {
  std::string schema = kDecisionTraceSchema;
  std::string policy;             // policy that produced the decisions
  std::string mode = "record";    // "record" (live run) | "counterfactual"
  std::string base_policy;        // counterfactual: policy of the source trace
  uint64_t seed = 0;
  uint64_t oracle_seed = 0;
  uint32_t num_devices = 0;
  uint32_t num_services = 0;
  uint32_t service_offset = 0;
};

// Static per-device facts (never change during a run), written once so
// decision snapshots stay compact.
struct DeviceTableEntry {
  int32_t device_id = -1;
  uint32_t service_index = 0;
  double memory_mb = 0.0;
  double compute_scale = 1.0;
};

// TraceCurve (the kCurve payload) is defined in src/cluster/replay_hooks.h —
// it is the policy<->trace exchange type, shared with the DecisionSink /
// PredictionReplay interfaces that src/core records into and replays from.

// One InterferencePredictor::PredictCurve result. The same key can recur
// with a different model after an online curve refresh, so consumers keep
// per-key FIFO order.
struct TracePrediction {
  uint64_t seq = 0;
  uint32_t service_index = 0;
  int32_t batch = 0;
  std::vector<uint32_t> mix;  // sorted training-type mix
  double k1 = 0.0, k2 = 0.0, x0 = 0.0, y0 = 0.0;
};

// One what-if probe observation. `key` is the content hash over every
// latency-determining input (see probe_key.h); replay looks values up by
// key, so a same-seed replay returns bit-identical observations.
struct TraceObservation {
  uint64_t seq = 0;
  double sim_ms = 0.0;
  uint8_t obs_kind = 0;  // ObsKind
  int32_t device_id = -1;
  uint64_t key = 0;
  double value = 0.0;
};

// One MeasuredQps / MeasuredP99 read made by a policy inside a decision.
struct TraceQpsFeedback {
  uint64_t seq = 0;
  double sim_ms = 0.0;
  int32_t device_id = -1;
  uint8_t is_p99 = 0;  // 0 = QPS, 1 = windowed P99
  double value = 0.0;
};

struct SnapshotTraining {
  int32_t task_id = -1;
  uint32_t type_index = 0;
  double gpu_fraction = 0.0;
  double mem_required_mb = 0.0;
  double mem_swapped_mb = 0.0;
  uint8_t paused = 0;
};

// Device state at decision time, sufficient to reconstruct the GpuDevice a
// counterfactual policy reasons about (replay_run.h).
struct SnapshotDevice {
  int32_t device_id = -1;
  uint8_t healthy = 1;
  double slowdown = 1.0;
  uint8_t has_inference = 0;
  uint32_t service_index = 0;
  int32_t inf_batch = 0;
  double inf_fraction = 0.0;
  double inf_mem_mb = 0.0;
  std::vector<SnapshotTraining> trainings;
};

struct TraceAction {
  uint8_t kind = 0;  // ActionKind
  int32_t device_id = -1;
  int32_t arg = 0;
  double value = 0.0;

  bool operator==(const TraceAction&) const = default;
};

struct TraceCandidate {
  int32_t device_id = -1;
  double score = 0.0;
};

struct TraceDecision {
  uint64_t seq = 0;
  double sim_ms = 0.0;
  uint8_t hook = 0;  // HookKind
  int32_t device_id = -1;      // target device (per-device hooks), else -1
  int32_t task_id = -1;        // task in flight, else -1
  int32_t type_index = -1;     // training type of that task, else -1
  int32_t chosen_device = -1;  // SelectDevice result (-1 = left queued)
  double wall_us = 0.0;        // decision latency (wall clock)
  std::vector<std::pair<int32_t, uint32_t>> displaced;  // OnDeviceFailed
  std::vector<TraceAction> actions;
  std::vector<TraceCandidate> candidates;
  std::vector<SnapshotDevice> snapshot;
};

struct TraceServiceSummary {
  std::string service;
  uint64_t windows_total = 0;
  uint64_t windows_violated = 0;
  uint64_t windows_violated_failure = 0;
  double served_requests = 0.0;
  double mean_latency_ms = 0.0;
};

// End-of-run SLO attribution, so trace_diff can report outcome deltas
// between two recorded runs. Counterfactual traces carry none (no data
// plane is simulated).
struct TraceRunSummary {
  double makespan_ms = 0.0;
  uint64_t tasks_completed = 0;
  std::vector<TraceServiceSummary> services;
};

// --- in-memory trace ---------------------------------------------------------

struct DecisionTrace {
  TraceHeader header;
  std::vector<DeviceTableEntry> device_table;
  std::vector<TraceCurve> curves;
  std::vector<TracePrediction> predictions;
  std::vector<TraceObservation> observations;
  std::vector<TraceQpsFeedback> qps_feedback;
  std::vector<TraceDecision> decisions;
  std::optional<TraceRunSummary> summary;
  uint64_t total_records = 0;
};

// --- header validation ------------------------------------------------------

// Schema gate for the JSON header line: schema tag, policy/mode strings,
// integral seed and topology fields. `mode` must be "record" or
// "counterfactual".
Status ValidateDecisionTraceHeader(const JsonValue& root);

// Serializes the header as a single deterministic JSON line (no trailing
// newline) and parses it back.
std::string EncodeTraceHeader(const TraceHeader& header);
StatusOr<TraceHeader> DecodeTraceHeader(const std::string& line);

// --- binary framing ----------------------------------------------------------

// Append-only binary record writer over an in-memory buffer (the
// DecisionRecorder flushes it to disk). Payload encoders for every record
// kind; each Append* frames one record.
class TraceWriter {
 public:
  explicit TraceWriter(const TraceHeader& header);

  void AppendDeviceTable(const std::vector<DeviceTableEntry>& table);
  void AppendCurve(const TraceCurve& curve);
  void AppendPrediction(const TracePrediction& prediction);
  void AppendObservation(const TraceObservation& obs);
  void AppendQpsFeedback(const TraceQpsFeedback& feedback);
  void AppendDecision(const TraceDecision& decision);
  void AppendRunSummary(const TraceRunSummary& summary);
  // Writes the kEnd trailer; no further appends are allowed.
  void Finish();

  bool finished() const { return finished_; }

  // The encoded bytes accumulated since the last Take (header included in
  // the first Take). Moves the buffer out.
  std::string TakeBuffer();
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  void BeginRecord(RecordKind kind);
  void EndRecord();

  std::string buffer_;
  size_t record_start_ = 0;  // offset of the current record's length field
  bool in_record_ = false;
  bool finished_ = false;
  uint64_t records_written_ = 0;

  // Payload primitive appenders (little-endian; doubles as raw bits).
  void U8(uint8_t v);
  void U32(uint32_t v);
  void I32(int32_t v);
  void U64(uint64_t v);
  void F64(double v);
  void Str(const std::string& s);
};

// Parses a complete trace file. Strict: a malformed header, an unknown
// record kind, an over/under-run payload, or a missing/inconsistent kEnd
// trailer all reject the file (the corruption tests in tests/replay_test.cc
// pin each case).
StatusOr<DecisionTrace> ReadDecisionTrace(const std::string& path);
StatusOr<DecisionTrace> ParseDecisionTrace(const std::string& bytes, const std::string& origin);

// Human-readable digest used by trace_summary: per-hook decision counts,
// top-N devices by SelectDevice choice, record-kind totals, and replay
// coverage (share of decisions carrying an observation snapshot).
std::string SummarizeDecisionTrace(const DecisionTrace& trace, size_t top_n = 5);

}  // namespace replay
}  // namespace mudi

#endif  // SRC_REPLAY_DECISION_TRACE_H_
