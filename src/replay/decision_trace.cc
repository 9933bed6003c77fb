#include "src/replay/decision_trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace mudi {
namespace replay {

const char* HookName(HookKind hook) {
  switch (hook) {
    case HookKind::kInitialize:
      return "initialize";
    case HookKind::kSelectDevice:
      return "select_device";
    case HookKind::kOnTrainingPlaced:
      return "on_training_placed";
    case HookKind::kOnTrainingCompleted:
      return "on_training_completed";
    case HookKind::kOnQpsChange:
      return "on_qps_change";
    case HookKind::kOnDeviceFailed:
      return "on_device_failed";
    case HookKind::kOnDeviceRecovered:
      return "on_device_recovered";
    case HookKind::kOnControlPlaneRestart:
      return "on_control_plane_restart";
  }
  return "unknown";
}

const char* ActionName(ActionKind action) {
  switch (action) {
    case ActionKind::kApplyInferenceConfig:
      return "apply_inference_config";
    case ActionKind::kApplyTrainingFraction:
      return "apply_training_fraction";
    case ActionKind::kSetTrainingPaused:
      return "set_training_paused";
  }
  return "unknown";
}

namespace {

Status RequireString(const JsonValue& root, const std::string& key) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr || !v->is_string()) {
    return InvalidArgumentError("decision trace header: missing string field '" + key + "'");
  }
  return Status::Ok();
}

Status RequireNonNegativeInteger(const JsonValue& root, const std::string& key) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr || !v->is_number()) {
    return InvalidArgumentError("decision trace header: missing numeric field '" + key + "'");
  }
  double n = v->number();
  if (n < 0.0 || n != static_cast<double>(static_cast<uint64_t>(n))) {
    return InvalidArgumentError("decision trace header: field '" + key +
                                "' must be a non-negative integer");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateDecisionTraceHeader(const JsonValue& root) {
  if (!root.is_object()) {
    return InvalidArgumentError("decision trace header: not a JSON object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string() != kDecisionTraceSchema) {
    return InvalidArgumentError(std::string("decision trace header: schema must be '") +
                                kDecisionTraceSchema + "'");
  }
  MUDI_RETURN_IF_ERROR(RequireString(root, "policy"));
  if (root.Find("policy")->string().empty()) {
    return InvalidArgumentError("decision trace header: 'policy' must be non-empty");
  }
  MUDI_RETURN_IF_ERROR(RequireString(root, "mode"));
  const std::string& mode = root.Find("mode")->string();
  if (mode != "record" && mode != "counterfactual") {
    return InvalidArgumentError("decision trace header: mode must be 'record' or 'counterfactual'");
  }
  MUDI_RETURN_IF_ERROR(RequireString(root, "base_policy"));
  for (const char* key : {"seed", "oracle_seed", "num_devices", "num_services", "service_offset"}) {
    MUDI_RETURN_IF_ERROR(RequireNonNegativeInteger(root, key));
  }
  return Status::Ok();
}

std::string EncodeTraceHeader(const TraceHeader& header) {
  std::ostringstream out;
  out << "{\"schema\":";
  WriteJsonString(out, header.schema);
  out << ",\"policy\":";
  WriteJsonString(out, header.policy);
  out << ",\"mode\":";
  WriteJsonString(out, header.mode);
  out << ",\"base_policy\":";
  WriteJsonString(out, header.base_policy);
  out << ",\"seed\":" << header.seed << ",\"oracle_seed\":" << header.oracle_seed
      << ",\"num_devices\":" << header.num_devices << ",\"num_services\":" << header.num_services
      << ",\"service_offset\":" << header.service_offset << "}";
  return out.str();
}

StatusOr<TraceHeader> DecodeTraceHeader(const std::string& line) {
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  "decision trace header: " + parsed.status().message());
  }
  MUDI_RETURN_IF_ERROR(ValidateDecisionTraceHeader(*parsed));
  TraceHeader header;
  header.schema = parsed->Find("schema")->string();
  header.policy = parsed->Find("policy")->string();
  header.mode = parsed->Find("mode")->string();
  header.base_policy = parsed->Find("base_policy")->string();
  header.seed = static_cast<uint64_t>(parsed->Find("seed")->number());
  header.oracle_seed = static_cast<uint64_t>(parsed->Find("oracle_seed")->number());
  header.num_devices = static_cast<uint32_t>(parsed->Find("num_devices")->number());
  header.num_services = static_cast<uint32_t>(parsed->Find("num_services")->number());
  header.service_offset = static_cast<uint32_t>(parsed->Find("service_offset")->number());
  return header;
}

// --- TraceWriter -------------------------------------------------------------

TraceWriter::TraceWriter(const TraceHeader& header) {
  buffer_ = EncodeTraceHeader(header);
  buffer_ += '\n';
}

void TraceWriter::U8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

void TraceWriter::U32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buffer_.append(bytes, 4);
}

void TraceWriter::I32(int32_t v) { U32(static_cast<uint32_t>(v)); }

void TraceWriter::U64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buffer_.append(bytes, 8);
}

void TraceWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void TraceWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buffer_.append(s);
}

void TraceWriter::BeginRecord(RecordKind kind) {
  MUDI_CHECK(!finished_);
  MUDI_CHECK(!in_record_);
  in_record_ = true;
  record_start_ = buffer_.size();
  U32(0);  // payload length, patched in EndRecord
  U8(static_cast<uint8_t>(kind));
}

void TraceWriter::EndRecord() {
  MUDI_CHECK(in_record_);
  // Payload length excludes the 4-byte length field and the kind byte.
  uint32_t payload_len = static_cast<uint32_t>(buffer_.size() - record_start_ - 5);
  for (int i = 0; i < 4; ++i) {
    buffer_[record_start_ + i] = static_cast<char>((payload_len >> (8 * i)) & 0xFF);
  }
  in_record_ = false;
  ++records_written_;
}

void TraceWriter::AppendDeviceTable(const std::vector<DeviceTableEntry>& table) {
  BeginRecord(RecordKind::kDeviceTable);
  U32(static_cast<uint32_t>(table.size()));
  for (const DeviceTableEntry& d : table) {
    I32(d.device_id);
    U32(d.service_index);
    F64(d.memory_mb);
    F64(d.compute_scale);
  }
  EndRecord();
}

void TraceWriter::AppendCurve(const TraceCurve& curve) {
  BeginRecord(RecordKind::kCurve);
  U32(curve.service_index);
  I32(curve.batch);
  U32(static_cast<uint32_t>(curve.training_types.size()));
  for (uint32_t t : curve.training_types) U32(t);
  F64(curve.k1);
  F64(curve.k2);
  F64(curve.x0);
  F64(curve.y0);
  U32(static_cast<uint32_t>(curve.sample_fractions.size()));
  for (double f : curve.sample_fractions) F64(f);
  U32(static_cast<uint32_t>(curve.sample_latencies.size()));
  for (double l : curve.sample_latencies) F64(l);
  EndRecord();
}

void TraceWriter::AppendPrediction(const TracePrediction& prediction) {
  BeginRecord(RecordKind::kPrediction);
  U64(prediction.seq);
  U32(prediction.service_index);
  I32(prediction.batch);
  U32(static_cast<uint32_t>(prediction.mix.size()));
  for (uint32_t t : prediction.mix) U32(t);
  F64(prediction.k1);
  F64(prediction.k2);
  F64(prediction.x0);
  F64(prediction.y0);
  EndRecord();
}

void TraceWriter::AppendObservation(const TraceObservation& obs) {
  BeginRecord(RecordKind::kObservation);
  U64(obs.seq);
  F64(obs.sim_ms);
  U8(obs.obs_kind);
  I32(obs.device_id);
  U64(obs.key);
  F64(obs.value);
  EndRecord();
}

void TraceWriter::AppendQpsFeedback(const TraceQpsFeedback& feedback) {
  BeginRecord(RecordKind::kQpsFeedback);
  U64(feedback.seq);
  F64(feedback.sim_ms);
  I32(feedback.device_id);
  U8(feedback.is_p99);
  F64(feedback.value);
  EndRecord();
}

void TraceWriter::AppendDecision(const TraceDecision& decision) {
  BeginRecord(RecordKind::kDecision);
  U64(decision.seq);
  F64(decision.sim_ms);
  U8(decision.hook);
  I32(decision.device_id);
  I32(decision.task_id);
  I32(decision.type_index);
  I32(decision.chosen_device);
  F64(decision.wall_us);
  U32(static_cast<uint32_t>(decision.displaced.size()));
  for (const auto& [task, type] : decision.displaced) {
    I32(task);
    U32(type);
  }
  U32(static_cast<uint32_t>(decision.actions.size()));
  for (const TraceAction& a : decision.actions) {
    U8(a.kind);
    I32(a.device_id);
    I32(a.arg);
    F64(a.value);
  }
  U32(static_cast<uint32_t>(decision.candidates.size()));
  for (const TraceCandidate& c : decision.candidates) {
    I32(c.device_id);
    F64(c.score);
  }
  U32(static_cast<uint32_t>(decision.snapshot.size()));
  for (const SnapshotDevice& d : decision.snapshot) {
    I32(d.device_id);
    U8(d.healthy);
    F64(d.slowdown);
    U8(d.has_inference);
    U32(d.service_index);
    I32(d.inf_batch);
    F64(d.inf_fraction);
    F64(d.inf_mem_mb);
    U32(static_cast<uint32_t>(d.trainings.size()));
    for (const SnapshotTraining& t : d.trainings) {
      I32(t.task_id);
      U32(t.type_index);
      F64(t.gpu_fraction);
      F64(t.mem_required_mb);
      F64(t.mem_swapped_mb);
      U8(t.paused);
    }
  }
  EndRecord();
}

void TraceWriter::AppendRunSummary(const TraceRunSummary& summary) {
  BeginRecord(RecordKind::kRunSummary);
  F64(summary.makespan_ms);
  U64(summary.tasks_completed);
  U32(static_cast<uint32_t>(summary.services.size()));
  for (const TraceServiceSummary& s : summary.services) {
    Str(s.service);
    U64(s.windows_total);
    U64(s.windows_violated);
    U64(s.windows_violated_failure);
    F64(s.served_requests);
    F64(s.mean_latency_ms);
  }
  EndRecord();
}

void TraceWriter::Finish() {
  MUDI_CHECK(!finished_);
  uint64_t count = records_written_;
  BeginRecord(RecordKind::kEnd);
  U64(count);
  EndRecord();
  finished_ = true;
}

std::string TraceWriter::TakeBuffer() {
  std::string out = std::move(buffer_);
  buffer_.clear();
  record_start_ = 0;
  return out;
}

// --- reader ------------------------------------------------------------------

namespace {

// Bounds-checked little-endian cursor over one record payload. Any read past
// the end sets `failed` and returns zero; the caller checks Done() once after
// decoding the full payload.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() {
    if (pos_ + 1 > size_) return Fail();
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (pos_ + 4 > size_) return Fail();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  uint64_t U64() {
    if (pos_ + 8 > size_) return Fail();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }
  double F64() {
    uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t len = U32();
    if (failed_ || pos_ + len > size_) {
      Fail();
      return std::string();
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  bool failed() const { return failed_; }
  // True iff every payload byte was consumed with no over-run.
  bool Done() const { return !failed_ && pos_ == size_; }

 private:
  uint8_t Fail() {
    failed_ = true;
    return 0;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

Status CorruptError(const std::string& origin, uint64_t record_index, const std::string& what) {
  return InvalidArgumentError("decision trace '" + origin + "': corrupt record #" +
                              std::to_string(record_index) + ": " + what);
}

}  // namespace

StatusOr<DecisionTrace> ParseDecisionTrace(const std::string& bytes, const std::string& origin) {
  size_t newline = bytes.find('\n');
  if (newline == std::string::npos) {
    return InvalidArgumentError("decision trace '" + origin + "': missing header line");
  }
  StatusOr<TraceHeader> header = DecodeTraceHeader(bytes.substr(0, newline));
  if (!header.ok()) {
    return Status(header.status().code(), "decision trace '" + origin + "': " + header.status().message());
  }

  DecisionTrace trace;
  trace.header = std::move(*header);

  size_t pos = newline + 1;
  uint64_t record_index = 0;
  bool saw_end = false;
  while (pos < bytes.size()) {
    if (saw_end) {
      return CorruptError(origin, record_index, "trailing bytes after end-of-trace marker");
    }
    if (pos + 5 > bytes.size()) {
      return InvalidArgumentError("decision trace '" + origin + "': truncated record frame at byte " +
                                  std::to_string(pos));
    }
    uint32_t payload_len = 0;
    for (int i = 0; i < 4; ++i) {
      payload_len |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i])) << (8 * i);
    }
    uint8_t kind_byte = static_cast<uint8_t>(bytes[pos + 4]);
    pos += 5;
    if (pos + payload_len > bytes.size()) {
      return InvalidArgumentError("decision trace '" + origin + "': truncated payload in record #" +
                                  std::to_string(record_index));
    }
    Cursor cur(bytes.data() + pos, payload_len);
    pos += payload_len;

    switch (static_cast<RecordKind>(kind_byte)) {
      case RecordKind::kDeviceTable: {
        uint32_t n = cur.U32();
        for (uint32_t i = 0; i < n && !cur.failed(); ++i) {
          DeviceTableEntry d;
          d.device_id = cur.I32();
          d.service_index = cur.U32();
          d.memory_mb = cur.F64();
          d.compute_scale = cur.F64();
          trace.device_table.push_back(d);
        }
        break;
      }
      case RecordKind::kCurve: {
        TraceCurve c;
        c.service_index = cur.U32();
        c.batch = cur.I32();
        uint32_t nt = cur.U32();
        for (uint32_t i = 0; i < nt && !cur.failed(); ++i) c.training_types.push_back(cur.U32());
        c.k1 = cur.F64();
        c.k2 = cur.F64();
        c.x0 = cur.F64();
        c.y0 = cur.F64();
        uint32_t nf = cur.U32();
        for (uint32_t i = 0; i < nf && !cur.failed(); ++i) c.sample_fractions.push_back(cur.F64());
        uint32_t nl = cur.U32();
        for (uint32_t i = 0; i < nl && !cur.failed(); ++i) c.sample_latencies.push_back(cur.F64());
        trace.curves.push_back(std::move(c));
        break;
      }
      case RecordKind::kPrediction: {
        TracePrediction p;
        p.seq = cur.U64();
        p.service_index = cur.U32();
        p.batch = cur.I32();
        uint32_t nm = cur.U32();
        for (uint32_t i = 0; i < nm && !cur.failed(); ++i) p.mix.push_back(cur.U32());
        p.k1 = cur.F64();
        p.k2 = cur.F64();
        p.x0 = cur.F64();
        p.y0 = cur.F64();
        trace.predictions.push_back(std::move(p));
        break;
      }
      case RecordKind::kObservation: {
        TraceObservation o;
        o.seq = cur.U64();
        o.sim_ms = cur.F64();
        o.obs_kind = cur.U8();
        o.device_id = cur.I32();
        o.key = cur.U64();
        o.value = cur.F64();
        trace.observations.push_back(o);
        break;
      }
      case RecordKind::kQpsFeedback: {
        TraceQpsFeedback q;
        q.seq = cur.U64();
        q.sim_ms = cur.F64();
        q.device_id = cur.I32();
        q.is_p99 = cur.U8();
        q.value = cur.F64();
        trace.qps_feedback.push_back(q);
        break;
      }
      case RecordKind::kDecision: {
        TraceDecision d;
        d.seq = cur.U64();
        d.sim_ms = cur.F64();
        d.hook = cur.U8();
        d.device_id = cur.I32();
        d.task_id = cur.I32();
        d.type_index = cur.I32();
        d.chosen_device = cur.I32();
        d.wall_us = cur.F64();
        uint32_t nd = cur.U32();
        for (uint32_t i = 0; i < nd && !cur.failed(); ++i) {
          int32_t task = cur.I32();
          uint32_t type = cur.U32();
          d.displaced.emplace_back(task, type);
        }
        uint32_t na = cur.U32();
        for (uint32_t i = 0; i < na && !cur.failed(); ++i) {
          TraceAction a;
          a.kind = cur.U8();
          a.device_id = cur.I32();
          a.arg = cur.I32();
          a.value = cur.F64();
          d.actions.push_back(a);
        }
        uint32_t nc = cur.U32();
        for (uint32_t i = 0; i < nc && !cur.failed(); ++i) {
          TraceCandidate c;
          c.device_id = cur.I32();
          c.score = cur.F64();
          d.candidates.push_back(c);
        }
        uint32_t ns = cur.U32();
        for (uint32_t i = 0; i < ns && !cur.failed(); ++i) {
          SnapshotDevice dev;
          dev.device_id = cur.I32();
          dev.healthy = cur.U8();
          dev.slowdown = cur.F64();
          dev.has_inference = cur.U8();
          dev.service_index = cur.U32();
          dev.inf_batch = cur.I32();
          dev.inf_fraction = cur.F64();
          dev.inf_mem_mb = cur.F64();
          uint32_t ntr = cur.U32();
          for (uint32_t j = 0; j < ntr && !cur.failed(); ++j) {
            SnapshotTraining t;
            t.task_id = cur.I32();
            t.type_index = cur.U32();
            t.gpu_fraction = cur.F64();
            t.mem_required_mb = cur.F64();
            t.mem_swapped_mb = cur.F64();
            t.paused = cur.U8();
            dev.trainings.push_back(t);
          }
          d.snapshot.push_back(std::move(dev));
        }
        trace.decisions.push_back(std::move(d));
        break;
      }
      case RecordKind::kRunSummary: {
        TraceRunSummary s;
        s.makespan_ms = cur.F64();
        s.tasks_completed = cur.U64();
        uint32_t n = cur.U32();
        for (uint32_t i = 0; i < n && !cur.failed(); ++i) {
          TraceServiceSummary svc;
          svc.service = cur.Str();
          svc.windows_total = cur.U64();
          svc.windows_violated = cur.U64();
          svc.windows_violated_failure = cur.U64();
          svc.served_requests = cur.F64();
          svc.mean_latency_ms = cur.F64();
          s.services.push_back(std::move(svc));
        }
        trace.summary = std::move(s);
        break;
      }
      case RecordKind::kEnd: {
        uint64_t declared = cur.U64();
        if (cur.failed() || !cur.Done()) {
          return CorruptError(origin, record_index, "malformed end-of-trace marker");
        }
        if (declared != record_index) {
          return CorruptError(origin, record_index,
                              "end-of-trace marker declares " + std::to_string(declared) +
                                  " records but " + std::to_string(record_index) + " were present");
        }
        saw_end = true;
        trace.total_records = declared;
        continue;  // record_index counts data records only
      }
      default:
        return CorruptError(origin, record_index,
                            "unknown record kind " + std::to_string(kind_byte));
    }
    if (!cur.Done()) {
      return CorruptError(origin, record_index, "payload length mismatch for record kind " +
                                                    std::to_string(kind_byte));
    }
    ++record_index;
  }
  if (!saw_end) {
    return InvalidArgumentError("decision trace '" + origin +
                                "': truncated (missing end-of-trace marker)");
  }
  return trace;
}

StatusOr<DecisionTrace> ReadDecisionTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("decision trace: cannot open '" + path + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return ParseDecisionTrace(contents.str(), path);
}

std::string SummarizeDecisionTrace(const DecisionTrace& trace, size_t top_n) {
  std::ostringstream out;
  out << "decision trace (" << trace.header.schema << ")\n";
  out << "  policy:         " << trace.header.policy;
  if (trace.header.mode == "counterfactual") {
    out << " (counterfactual over " << trace.header.base_policy << " trace)";
  }
  out << "\n";
  out << "  seed:           " << trace.header.seed << " (oracle " << trace.header.oracle_seed
      << ")\n";
  out << "  topology:       " << trace.header.num_devices << " devices, "
      << trace.header.num_services << " services\n";
  out << "  records:        " << trace.total_records << " (" << trace.curves.size() << " curves, "
      << trace.predictions.size() << " predictions, " << trace.observations.size()
      << " observations, " << trace.qps_feedback.size() << " feedback reads, "
      << trace.decisions.size() << " decisions)\n";

  uint64_t per_hook[kNumHookKinds] = {};
  std::map<int32_t, uint64_t> selections;
  uint64_t with_snapshot = 0;
  for (const TraceDecision& d : trace.decisions) {
    if (d.hook < kNumHookKinds) ++per_hook[d.hook];
    if (static_cast<HookKind>(d.hook) == HookKind::kSelectDevice && d.chosen_device >= 0) {
      ++selections[d.chosen_device];
    }
    if (!d.snapshot.empty()) ++with_snapshot;
  }
  out << "  decisions by hook:\n";
  for (size_t h = 0; h < kNumHookKinds; ++h) {
    if (per_hook[h] == 0) continue;
    out << "    " << HookName(static_cast<HookKind>(h)) << ": " << per_hook[h] << "\n";
  }
  if (!selections.empty()) {
    std::vector<std::pair<int32_t, uint64_t>> ranked(selections.begin(), selections.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    out << "  top devices by selection:\n";
    for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
      out << "    device " << ranked[i].first << ": " << ranked[i].second << " placements\n";
    }
  }
  if (!trace.decisions.empty()) {
    double coverage = 100.0 * static_cast<double>(with_snapshot) /
                      static_cast<double>(trace.decisions.size());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", coverage);
    out << "  replay coverage: " << buf << "% of decisions carry a state snapshot\n";
  }
  if (trace.summary.has_value()) {
    const TraceRunSummary& s = *trace.summary;
    uint64_t total = 0, violated = 0;
    for (const TraceServiceSummary& svc : s.services) {
      total += svc.windows_total;
      violated += svc.windows_violated;
    }
    out << "  outcome:        " << s.tasks_completed << " tasks, makespan " << s.makespan_ms
        << " ms, " << violated << "/" << total << " SLO windows violated\n";
  }
  return out.str();
}

}  // namespace replay
}  // namespace mudi
