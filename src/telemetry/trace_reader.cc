#include "src/telemetry/trace_reader.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/common/json.h"

namespace mudi {
namespace telemetry {

namespace {

template <typename T>
bool ReadRaw(std::istream& is, T* value) {
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  return is.good() || (is.eof() && is.gcount() == sizeof(T));
}

bool ReadLenString(std::istream& is, std::string* out) {
  uint32_t len = 0;
  if (!ReadRaw(is, &len) || len > (1u << 28)) {
    return false;
  }
  out->resize(len);
  if (len > 0) {
    is.read(out->data(), len);
  }
  return !is.fail();
}

}  // namespace

bool ParseChromeTraceJson(std::istream& is, ParsedTrace* out, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  std::ostringstream buf;
  buf << is.rdbuf();
  StatusOr<JsonValue> parsed = ParseJson(buf.str());
  if (!parsed.ok()) {
    return fail(parsed.status().message());
  }
  const JsonValue& root = *parsed;
  const JsonValue* events = nullptr;
  if (root.is_object()) {
    events = root.Find("traceEvents");
    if (const JsonValue* other = root.Find("otherData"); other != nullptr && other->is_object()) {
      if (const JsonValue* d = other->Find("droppedEvents")) {
        out->dropped_events = static_cast<uint64_t>(d->NumberOr(0.0));
      }
      if (const JsonValue* t = other->Find("totalRecorded")) {
        out->total_recorded = static_cast<uint64_t>(t->NumberOr(0.0));
      }
    }
  } else if (root.is_array()) {
    events = &root;  // bare-array trace files are also valid Chrome traces
  }
  if (events == nullptr || !events->is_array()) {
    return fail("no traceEvents array found");
  }

  auto number_of = [](const JsonValue& ev, const char* key) {
    const JsonValue* v = ev.Find(key);
    return v != nullptr ? v->NumberOr(0.0) : 0.0;
  };
  for (const JsonValue& ev : events->array()) {
    if (!ev.is_object()) {
      return fail("trace event is not an object");
    }
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string().empty()) {
      return fail("trace event missing 'ph'");
    }
    int tid = static_cast<int>(number_of(ev, "tid"));
    if (ph->string() == "M") {
      const JsonValue* name = ev.Find("name");
      const JsonValue* args = ev.Find("args");
      const JsonValue* value = args != nullptr ? args->Find("name") : nullptr;
      if (name != nullptr && value != nullptr && value->is_string()) {
        if (name->string() == "thread_name") {
          out->thread_names[tid] = value->string();
        } else if (name->string() == "process_name") {
          out->process_name = value->string();
        }
      }
      continue;
    }
    TraceEvent e;
    e.phase = ph->string()[0];
    e.tid = tid;
    e.pid = static_cast<int>(number_of(ev, "pid"));
    e.ts_ms = number_of(ev, "ts") / 1000.0;
    e.dur_ms = number_of(ev, "dur") / 1000.0;
    if (const JsonValue* name = ev.Find("name"); name != nullptr) {
      e.name = name->string();
    }
    if (const JsonValue* cat = ev.Find("cat"); cat != nullptr) {
      e.cat = cat->string();
    }
    if (const JsonValue* args = ev.Find("args"); args != nullptr) {
      for (const auto& [key, value] : args->object()) {
        if (value.is_number()) {
          e.args.push_back(TraceArg::Num(key, value.number()));
        } else if (value.is_string()) {
          e.args.push_back(TraceArg::Str(key, value.string()));
        }
      }
    }
    out->events.push_back(std::move(e));
  }
  return true;
}

bool ReadBinaryTrace(std::istream& is, ParsedTrace* out, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  char magic[8];
  is.read(magic, 8);
  if (!is.good() || std::string(magic, 8) != "MUDITRC1") {
    return fail("bad magic (not a mudi binary trace)");
  }
  uint64_t event_count = 0;
  if (!ReadRaw(is, &event_count) || !ReadRaw(is, &out->dropped_events) ||
      !ReadRaw(is, &out->total_recorded)) {
    return fail("truncated header");
  }
  if (!ReadLenString(is, &out->process_name)) {
    return fail("truncated process name");
  }
  uint32_t num_threads = 0;
  if (!ReadRaw(is, &num_threads)) {
    return fail("truncated thread table");
  }
  for (uint32_t i = 0; i < num_threads; ++i) {
    int32_t tid = 0;
    std::string name;
    if (!ReadRaw(is, &tid) || !ReadLenString(is, &name)) {
      return fail("truncated thread table entry");
    }
    out->thread_names[tid] = std::move(name);
  }
  uint32_t num_strings = 0;
  if (!ReadRaw(is, &num_strings)) {
    return fail("truncated string table");
  }
  std::vector<std::string> table(num_strings);
  for (uint32_t i = 0; i < num_strings; ++i) {
    if (!ReadLenString(is, &table[i])) {
      return fail("truncated string table entry");
    }
  }
  auto lookup = [&](uint32_t idx, std::string* s) {
    if (idx >= table.size()) {
      return false;
    }
    *s = table[idx];
    return true;
  };
  out->events.reserve(event_count);
  for (uint64_t i = 0; i < event_count; ++i) {
    TraceEvent e;
    int32_t pid = 0;
    int32_t tid = 0;
    uint8_t phase = 0;
    uint32_t name_idx = 0;
    uint32_t cat_idx = 0;
    uint16_t n_args = 0;
    if (!ReadRaw(is, &e.ts_ms) || !ReadRaw(is, &e.dur_ms) || !ReadRaw(is, &pid) ||
        !ReadRaw(is, &tid) || !ReadRaw(is, &phase) || !ReadRaw(is, &name_idx) ||
        !ReadRaw(is, &cat_idx) || !ReadRaw(is, &n_args)) {
      return fail("truncated event record");
    }
    e.pid = pid;
    e.tid = tid;
    e.phase = static_cast<char>(phase);
    if (!lookup(name_idx, &e.name) || !lookup(cat_idx, &e.cat)) {
      return fail("string index out of range");
    }
    for (uint16_t a = 0; a < n_args; ++a) {
      uint32_t key_idx = 0;
      uint8_t is_num = 0;
      if (!ReadRaw(is, &key_idx) || !ReadRaw(is, &is_num)) {
        return fail("truncated arg record");
      }
      TraceArg arg;
      if (!lookup(key_idx, &arg.key)) {
        return fail("arg key index out of range");
      }
      arg.is_number = is_num != 0;
      if (arg.is_number) {
        if (!ReadRaw(is, &arg.number)) {
          return fail("truncated numeric arg");
        }
      } else {
        uint32_t text_idx = 0;
        if (!ReadRaw(is, &text_idx) || !lookup(text_idx, &arg.text)) {
          return fail("truncated string arg");
        }
      }
      e.args.push_back(std::move(arg));
    }
    out->events.push_back(std::move(e));
  }
  return true;
}

bool LoadTraceFile(const std::string& path, ParsedTrace* out, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  char first = static_cast<char>(is.peek());
  if (first == 'M') {  // "MUDITRC1"
    return ReadBinaryTrace(is, out, error);
  }
  return ParseChromeTraceJson(is, out, error);
}

// --- aggregation ------------------------------------------------------------

TraceSummary SummarizeTrace(const ParsedTrace& trace) {
  TraceSummary summary;
  struct Weighted {
    double weighted_sum = 0.0;
    double total_dt = 0.0;
    double last_ts = 0.0;  // matches the experiment's t=0 sampling origin
  };
  std::map<int, Weighted> sm_acc;
  std::map<int, Weighted> mem_acc;
  std::map<int, double> open_down;  // tid -> device_down timestamp, unmatched

  for (const TraceEvent& e : trace.events) {
    summary.span_ms = std::max(summary.span_ms, e.ts_ms + e.dur_ms);
    ++summary.events_by_category[e.cat];
    LaneSummary& lane = summary.lanes[e.tid];
    lane.tid = e.tid;
    if (e.phase == kPhaseComplete && e.cat == "serving") {
      lane.serving_busy_fraction += e.dur_ms;  // normalized after the span is known
      ++lane.serving_batches;
    } else if (e.phase == kPhaseInstant) {
      ++lane.decision_counts[e.cat + "/" + e.name];
      if (e.cat == "fault") {
        // The injector edge-collapses overlapping faults, so down/up instants
        // alternate per lane; pair them into downtime intervals.
        if (e.name == "device_down") {
          open_down.emplace(e.tid, e.ts_ms);
        } else if (e.name == "device_up") {
          auto it = open_down.find(e.tid);
          if (it != open_down.end()) {
            lane.downtime_ms += e.ts_ms - it->second;
            open_down.erase(it);
          }
        }
      }
    } else if (e.phase == kPhaseCounter && (e.name == "sm_util" || e.name == "mem_util")) {
      double value = 0.0;
      for (const TraceArg& a : e.args) {
        if (a.key == "value" && a.is_number) {
          value = a.number;
        }
      }
      Weighted& acc = e.name == "sm_util" ? sm_acc[e.tid] : mem_acc[e.tid];
      double dt = e.ts_ms - acc.last_ts;
      if (dt > 0.0) {
        acc.weighted_sum += value * dt;
        acc.total_dt += dt;
        acc.last_ts = e.ts_ms;
      }
    }
  }

  // Intervals never closed (permanent failures) run to the end of the span.
  for (const auto& [tid, since] : open_down) {
    summary.lanes[tid].downtime_ms += std::max(0.0, summary.span_ms - since);
  }
  for (auto& [tid, lane] : summary.lanes) {
    summary.total_downtime_ms += lane.downtime_ms;
    auto it = trace.thread_names.find(tid);
    if (it != trace.thread_names.end()) {
      lane.name = it->second;
    }
    if (summary.span_ms > 0.0) {
      lane.serving_busy_fraction =
          std::clamp(lane.serving_busy_fraction / summary.span_ms, 0.0, 1.0);
    }
  }
  double sm_sum = 0.0;
  size_t sm_n = 0;
  for (const auto& [tid, acc] : sm_acc) {
    if (acc.total_dt > 0.0) {
      summary.lanes[tid].avg_sm_util = acc.weighted_sum / acc.total_dt;
      sm_sum += summary.lanes[tid].avg_sm_util;
      ++sm_n;
    }
  }
  double mem_sum = 0.0;
  size_t mem_n = 0;
  for (const auto& [tid, acc] : mem_acc) {
    if (acc.total_dt > 0.0) {
      summary.lanes[tid].avg_mem_util = acc.weighted_sum / acc.total_dt;
      mem_sum += summary.lanes[tid].avg_mem_util;
      ++mem_n;
    }
  }
  summary.cluster_avg_sm_util = sm_n == 0 ? 0.0 : sm_sum / static_cast<double>(sm_n);
  summary.cluster_avg_mem_util = mem_n == 0 ? 0.0 : mem_sum / static_cast<double>(mem_n);
  return summary;
}

void PrintTraceSummary(const TraceSummary& summary, std::ostream& os) {
  os << "trace span: " << summary.span_ms / 1000.0 << " s\n";
  os << "events by category:";
  for (const auto& [cat, n] : summary.events_by_category) {
    os << "  " << cat << "=" << n;
  }
  os << "\n\nper-device lanes:\n";
  for (const auto& [tid, lane] : summary.lanes) {
    bool has_util = lane.avg_sm_util > 0.0 || lane.avg_mem_util > 0.0;
    if (!has_util && lane.serving_batches == 0 && lane.decision_counts.empty()) {
      continue;
    }
    os << "  lane " << tid;
    if (!lane.name.empty()) {
      os << " (" << lane.name << ")";
    }
    os << ": sm_util=" << lane.avg_sm_util << " mem_util=" << lane.avg_mem_util
       << " serving_busy=" << lane.serving_busy_fraction
       << " batches=" << lane.serving_batches;
    if (lane.downtime_ms > 0.0) {
      os << " downtime=" << lane.downtime_ms / 1000.0 << "s";
    }
    os << "\n";
    for (const auto& [key, n] : lane.decision_counts) {
      os << "      " << key << ": " << n << "\n";
    }
  }
  os << "\ncluster avg sm_util: " << summary.cluster_avg_sm_util
     << "  mem_util: " << summary.cluster_avg_mem_util << "\n";
  if (summary.total_downtime_ms > 0.0) {
    os << "total device downtime: " << summary.total_downtime_ms / 1000.0 << " s\n";
  }
}

}  // namespace telemetry
}  // namespace mudi
