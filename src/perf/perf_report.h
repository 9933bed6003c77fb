// PerfReport — end-of-run aggregation of a PerfCollector into a flat,
// serializable summary: per-region latency distributions (count, total,
// p50/p95/p99, max), monotonic counters, process-memory and allocation
// probes, plus build metadata so a recorded trajectory (BENCH_*.json) stays
// interpretable across toolchain changes.
#ifndef SRC_PERF_PERF_REPORT_H_
#define SRC_PERF_PERF_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/perf/mem_probe.h"
#include "src/perf/perf_collector.h"

namespace mudi {
namespace perf {

struct RegionSummary {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

struct BuildMetadata {
  std::string schema_version;
  std::string compiler;
  std::string build_type;  // "release" (NDEBUG) or "debug"
  bool tracing_compiled_in = false;

  static BuildMetadata Current();
  void WriteJson(std::ostream& os) const;
};

struct PerfReport {
  std::vector<RegionSummary> regions;                    // name-sorted
  std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
  MemoryUsage memory;
  AllocStats allocs;  // allocations since the caller's `allocs_before`

  // Snapshots the collector and samples the memory probe; `allocs` counts
  // the allocations made since `allocs_before` (ReadAllocStats() taken
  // before the run), so it describes this run, not the whole process.
  static PerfReport FromCollector(const PerfCollector& collector,
                                  const AllocStats& allocs_before);

  const RegionSummary* FindRegion(const std::string& name) const;
  uint64_t CounterValue(const std::string& name) const;  // 0 when absent

  // One JSON object (no trailing newline), deterministic key order.
  void WriteJson(std::ostream& os) const;
  std::string ToJsonString() const;
};

}  // namespace perf
}  // namespace mudi

#endif  // SRC_PERF_PERF_REPORT_H_
