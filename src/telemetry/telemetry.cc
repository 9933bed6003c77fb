#include "src/telemetry/telemetry.h"

#include <cstdint>
#include <fstream>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/json.h"
#include "src/common/logging.h"

namespace mudi {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void TelemetryOptions::ApplyEnvOverrides() {
  if (auto v = GetEnv("MUDI_TRACE_FILE"); v.has_value() && !v->empty()) {
    enabled = true;
    trace_file = *v;
  }
  if (auto v = GetEnv("MUDI_TRACE_RING"); v.has_value() && !v->empty()) {
    // A malformed MUDI_TRACE_RING is a hard error: "abc" or "-1" would
    // otherwise silently give an unbounded trace, "10k" a ring of 10, and an
    // out-of-range value a ring of INT64_MAX.
    int64_t parsed = ParseNonNegativeInt(*v).value_or(-1);
    MUDI_CHECK(parsed >= 0);
    trace_ring_capacity = static_cast<size_t>(parsed);
  }
  if (auto v = GetEnv("MUDI_TELEMETRY_JSON"); v.has_value() && !v->empty()) {
    enabled = true;
    metrics_json = *v;
  }
  if (auto v = GetEnv("MUDI_METRICS_CSV"); v.has_value() && !v->empty()) {
    enabled = true;
    metrics_csv = *v;
  }
}

Telemetry::Telemetry(TelemetryOptions options)
    : options_(std::move(options)),
      tracing_enabled_(options_.enabled && CompiledWithTracing()),
      trace_(telemetry::TraceRecorder::Options{options_.trace_ring_capacity}) {}

bool Telemetry::WriteTraceFile(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os.is_open()) {
    MUDI_LOG(Warning) << "telemetry: cannot open trace file " << path;
    return false;
  }
  if (EndsWith(path, ".json")) {
    trace_.ExportChromeJson(os);
  } else {
    trace_.WriteBinary(os);
  }
  return true;
}

void Telemetry::Flush(const std::string& label) {
  if (!options_.enabled) {
    return;
  }
  if (!options_.trace_file.empty() && tracing_enabled_) {
    if (WriteTraceFile(options_.trace_file)) {
      MUDI_LOG(Info) << "telemetry: wrote " << trace_.size() << " trace events ("
                     << trace_.dropped_events() << " dropped) to " << options_.trace_file;
    }
  }
  if (!options_.metrics_json.empty()) {
    std::ofstream os(options_.metrics_json, std::ios::app);
    if (os.is_open()) {
      os << "{\"label\":";
      WriteJsonString(os, label);
      os << ",\"telemetry\":";
      metrics_.WriteJson(os);
      os << "}\n";
    } else {
      MUDI_LOG(Warning) << "telemetry: cannot open metrics JSON " << options_.metrics_json;
    }
  }
  if (!options_.metrics_csv.empty()) {
    std::ofstream os(options_.metrics_csv);
    if (os.is_open()) {
      metrics_.WriteSnapshotsCsv(os);
    } else {
      MUDI_LOG(Warning) << "telemetry: cannot open metrics CSV " << options_.metrics_csv;
    }
  }
}

}  // namespace mudi
