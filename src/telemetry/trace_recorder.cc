#include "src/telemetry/trace_recorder.h"

#include <ostream>
#include <unordered_map>

#include "src/common/json.h"

namespace mudi {
namespace telemetry {

namespace {

void WriteArgs(std::ostream& os, const TraceArgs& args) {
  os << "{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ',';
    WriteJsonString(os, args[i].key);
    os << ':';
    if (args[i].is_number) {
      WriteJsonNumber(os, args[i].number);
    } else {
      WriteJsonString(os, args[i].text);
    }
  }
  os << "}";
}

template <typename T>
void WriteRaw(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteLenString(std::ostream& os, const std::string& s) {
  WriteRaw<uint32_t>(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Deterministic insertion-ordered string table.
class StringTable {
 public:
  uint32_t Intern(const std::string& s) {
    auto [it, inserted] = index_.emplace(s, static_cast<uint32_t>(strings_.size()));
    if (inserted) {
      strings_.push_back(s);
    }
    return it->second;
  }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<std::string> strings_;
};

}  // namespace

void TraceRecorder::Push(TraceEvent event) {
  ++total_recorded_;
  if (options_.ring_capacity == 0) {
    events_.push_back(std::move(event));
    return;
  }
  if (events_.size() < options_.ring_capacity) {
    events_.push_back(std::move(event));
    return;
  }
  events_[ring_head_] = std::move(event);
  ring_head_ = (ring_head_ + 1) % options_.ring_capacity;
  ++dropped_;
}

void TraceRecorder::Complete(const std::string& cat, const std::string& name, int tid,
                             double start_ms, double dur_ms, TraceArgs args) {
  TraceEvent e;
  e.phase = kPhaseComplete;
  e.cat = cat;
  e.name = name;
  e.tid = tid;
  e.ts_ms = start_ms;
  e.dur_ms = dur_ms;
  e.args = std::move(args);
  Push(std::move(e));
}

void TraceRecorder::Instant(const std::string& cat, const std::string& name, int tid,
                            double ts_ms, TraceArgs args) {
  TraceEvent e;
  e.phase = kPhaseInstant;
  e.cat = cat;
  e.name = name;
  e.tid = tid;
  e.ts_ms = ts_ms;
  e.args = std::move(args);
  Push(std::move(e));
}

void TraceRecorder::Counter(const std::string& name, int tid, double ts_ms, double value) {
  TraceEvent e;
  e.phase = kPhaseCounter;
  e.cat = "counter";
  e.name = name;
  e.tid = tid;
  e.ts_ms = ts_ms;
  e.args.push_back(TraceArg::Num("value", value));
  Push(std::move(e));
}

void TraceRecorder::SetThreadName(int tid, const std::string& name) {
  thread_names_[tid] = name;
}

std::vector<TraceEvent> TraceRecorder::ChronologicalEvents() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  if (options_.ring_capacity > 0 && events_.size() == options_.ring_capacity) {
    for (size_t i = 0; i < events_.size(); ++i) {
      out.push_back(events_[(ring_head_ + i) % events_.size()]);
    }
  } else {
    out = events_;
  }
  return out;
}

void TraceRecorder::ExportChromeJson(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  if (!process_name_.empty()) {
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    WriteJsonString(os, process_name_);
    os << "}}";
    first = false;
  }
  for (const auto& [tid, name] : thread_names_) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    WriteJsonString(os, name);
    os << "}}";
  }
  for (const TraceEvent& e : ChronologicalEvents()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"ph\":\"" << e.phase << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
       << ",\"ts\":" << e.ts_ms * 1000.0;
    if (e.phase == kPhaseComplete) {
      os << ",\"dur\":" << e.dur_ms * 1000.0;
    }
    os << ",\"cat\":";
    WriteJsonString(os, e.cat);
    os << ",\"name\":";
    WriteJsonString(os, e.name);
    if (!e.args.empty()) {
      os << ",\"args\":";
      WriteArgs(os, e.args);
    }
    os << '}';
  }
  os << "\n],\"otherData\":{\"droppedEvents\":" << dropped_
     << ",\"totalRecorded\":" << total_recorded_ << "}}\n";
}

void TraceRecorder::WriteBinary(std::ostream& os) const {
  std::vector<TraceEvent> events = ChronologicalEvents();

  StringTable table;
  for (const TraceEvent& e : events) {
    table.Intern(e.name);
    table.Intern(e.cat);
    for (const TraceArg& a : e.args) {
      table.Intern(a.key);
      if (!a.is_number) {
        table.Intern(a.text);
      }
    }
  }

  os.write("MUDITRC1", 8);
  WriteRaw<uint64_t>(os, events.size());
  WriteRaw<uint64_t>(os, dropped_);
  WriteRaw<uint64_t>(os, total_recorded_);
  WriteLenString(os, process_name_);
  WriteRaw<uint32_t>(os, static_cast<uint32_t>(thread_names_.size()));
  for (const auto& [tid, name] : thread_names_) {
    WriteRaw<int32_t>(os, tid);
    WriteLenString(os, name);
  }
  WriteRaw<uint32_t>(os, static_cast<uint32_t>(table.strings().size()));
  for (const std::string& s : table.strings()) {
    WriteLenString(os, s);
  }
  for (const TraceEvent& e : events) {
    WriteRaw<double>(os, e.ts_ms);
    WriteRaw<double>(os, e.dur_ms);
    WriteRaw<int32_t>(os, e.pid);
    WriteRaw<int32_t>(os, e.tid);
    WriteRaw<uint8_t>(os, static_cast<uint8_t>(e.phase));
    WriteRaw<uint32_t>(os, table.Intern(e.name));
    WriteRaw<uint32_t>(os, table.Intern(e.cat));
    WriteRaw<uint16_t>(os, static_cast<uint16_t>(e.args.size()));
    for (const TraceArg& a : e.args) {
      WriteRaw<uint32_t>(os, table.Intern(a.key));
      WriteRaw<uint8_t>(os, a.is_number ? 1 : 0);
      if (a.is_number) {
        WriteRaw<double>(os, a.number);
      } else {
        WriteRaw<uint32_t>(os, table.Intern(a.text));
      }
    }
  }
}

void TraceRecorder::Clear() {
  events_.clear();
  ring_head_ = 0;
  total_recorded_ = 0;
  dropped_ = 0;
}

}  // namespace telemetry
}  // namespace mudi
