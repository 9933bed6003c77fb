// trace_summary: summarize Mudi run artifacts.
//
// Three input shapes, auto-detected per file:
//   * event traces (Chrome JSON or binary, written by MUDI_TRACE_FILE /
//     --trace): prints per-device utilization, serving busy time, and
//     decision counts;
//   * self-profiling perf reports (mudi.perf.v1 JSON objects, written by
//     --perf-report / PerfReport::WriteJson): prints the top-N hottest
//     regions ranked by total_ms, so "where did this run spend its time"
//     is one command away from any saved report;
//   * decision traces (mudi.decision_trace.v1, written by mudi_cli
//     --record): prints per-hook decision counts, the top-N devices by
//     SelectDevice choice, record-kind totals, and replay coverage.
//
// Usage: trace_summary [--top N] <trace-or-report-file> [more-files...]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/replay/decision_trace.h"
#include "src/telemetry/trace_reader.h"

namespace {

struct RegionRow {
  std::string name;
  double count = 0.0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
};

double NumberField(const mudi::JsonValue& obj, const std::string& key) {
  const mudi::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->number() : 0.0;
}

// Prints the top-N regions of one parsed perf report, hottest (largest
// total_ms) first. Returns false if the document is not a perf report.
bool PrintPerfReportSummary(const mudi::JsonValue& root, size_t top_n) {
  const mudi::JsonValue* regions = root.Find("regions");
  if (regions == nullptr || !regions->is_object()) {
    return false;
  }
  std::vector<RegionRow> rows;
  for (const auto& [name, value] : regions->object()) {
    if (!value.is_object()) {
      continue;
    }
    RegionRow row;
    row.name = name;
    row.count = NumberField(value, "count");
    row.total_ms = NumberField(value, "total_ms");
    row.mean_ms = NumberField(value, "mean_ms");
    row.p95_ms = NumberField(value, "p95_ms");
    row.max_ms = NumberField(value, "max_ms");
    rows.push_back(std::move(row));
  }
  // Hottest first; ties broken by name so the listing is deterministic.
  std::sort(rows.begin(), rows.end(), [](const RegionRow& a, const RegionRow& b) {
    if (a.total_ms != b.total_ms) {
      return a.total_ms > b.total_ms;
    }
    return a.name < b.name;
  });
  size_t shown = rows.size() < top_n ? rows.size() : top_n;
  std::printf("perf report: %zu region(s), showing top %zu by total_ms\n", rows.size(), shown);
  std::printf("%-36s %10s %12s %10s %10s %10s\n", "region", "count", "total_ms", "mean_ms",
              "p95_ms", "max_ms");
  for (size_t i = 0; i < shown; ++i) {
    const RegionRow& r = rows[i];
    std::printf("%-36s %10.0f %12.3f %10.4f %10.4f %10.4f\n", r.name.c_str(), r.count,
                r.total_ms, r.mean_ms, r.p95_ms, r.max_ms);
  }
  const mudi::JsonValue* allocs = root.Find("allocs");
  if (allocs != nullptr && allocs->is_object()) {
    const mudi::JsonValue* hooked = allocs->Find("hooked");
    if (hooked != nullptr && hooked->is_bool() && hooked->boolean()) {
      std::printf("allocs: %.0f allocations / %.0f bytes (hooked)\n",
                  NumberField(*allocs, "allocations"), NumberField(*allocs, "bytes_allocated"));
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t top_n = 10;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      long parsed = std::atol(argv[++i]);
      if (parsed <= 0) {
        std::cerr << "trace_summary: --top expects a positive integer\n";
        return 2;
      }
      top_n = static_cast<size_t>(parsed);
    } else if (arg.rfind("--top=", 0) == 0) {
      long parsed = std::atol(arg.c_str() + 6);
      if (parsed <= 0) {
        std::cerr << "trace_summary: --top expects a positive integer\n";
        return 2;
      }
      top_n = static_cast<size_t>(parsed);
    } else {
      paths.push_back(std::move(arg));
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: " << argv[0] << " [--top N] <trace.json | trace.bin | perf.json> [...]\n"
              << "Prints per-device utilization and decision counts from a\n"
              << "trace written by MUDI_TRACE_FILE / --trace, or the top-N\n"
              << "hottest regions (by total_ms) from a mudi.perf.v1 report\n"
              << "written by --perf-report.\n";
    return 2;
  }
  int failures = 0;
  for (const std::string& path : paths) {
    if (paths.size() > 1) {
      std::cout << "=== " << path << " ===\n";
    }
    // A decision trace starts with its schema-tagged JSON header line, so
    // the strict reader accepts only genuine mudi.decision_trace.v1 files
    // and rejects everything else on the first line.
    mudi::StatusOr<mudi::replay::DecisionTrace> decision_trace =
        mudi::replay::ReadDecisionTrace(path);
    if (decision_trace.ok()) {
      std::fputs(mudi::replay::SummarizeDecisionTrace(*decision_trace, top_n).c_str(), stdout);
      continue;
    }
    // A perf report is a JSON object with a "regions" member; everything
    // else falls through to the trace reader (which handles both Chrome
    // JSON traces and the binary format).
    mudi::StatusOr<mudi::JsonValue> parsed = mudi::ParseJsonFile(path);
    if (parsed.ok() && PrintPerfReportSummary(*parsed, top_n)) {
      continue;
    }
    mudi::telemetry::ParsedTrace trace;
    std::string error;
    if (!mudi::telemetry::LoadTraceFile(path, &trace, &error)) {
      std::cerr << path << ": " << error << "\n";
      ++failures;
      continue;
    }
    mudi::telemetry::TraceSummary summary = mudi::telemetry::SummarizeTrace(trace);
    mudi::telemetry::PrintTraceSummary(summary, std::cout);
  }
  return failures == 0 ? 0 : 1;
}
