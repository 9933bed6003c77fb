#include "src/perf/perf_report.h"

#include <ostream>
#include <sstream>

#include "src/common/json.h"

namespace mudi {
namespace perf {

BuildMetadata BuildMetadata::Current() {
  BuildMetadata meta;
  meta.schema_version = "mudi.perf.v1";
#if defined(__VERSION__)
  meta.compiler = __VERSION__;
#else
  meta.compiler = "unknown";
#endif
#if defined(NDEBUG)
  meta.build_type = "release";
#else
  meta.build_type = "debug";
#endif
#if defined(MUDI_TRACING_ENABLED) && MUDI_TRACING_ENABLED
  meta.tracing_compiled_in = true;
#else
  meta.tracing_compiled_in = false;
#endif
  return meta;
}

void BuildMetadata::WriteJson(std::ostream& os) const {
  os << "{\"schema_version\":";
  WriteJsonString(os, schema_version);
  os << ",\"compiler\":";
  WriteJsonString(os, compiler);
  os << ",\"build_type\":";
  WriteJsonString(os, build_type);
  os << ",\"tracing_compiled_in\":" << (tracing_compiled_in ? "true" : "false") << "}";
}

PerfReport PerfReport::FromCollector(const PerfCollector& collector,
                                     const AllocStats& allocs_before) {
  PerfReport report;
  for (const auto& [name, stat] : collector.regions()) {
    RegionSummary summary;
    summary.name = name;
    summary.count = stat.count();
    summary.total_ms = stat.total_ms();
    summary.mean_ms = stat.mean_ms();
    summary.min_ms = stat.min_ms();
    summary.max_ms = stat.max_ms();
    summary.p50_ms = stat.Quantile(0.50);
    summary.p95_ms = stat.Quantile(0.95);
    summary.p99_ms = stat.Quantile(0.99);
    report.regions.push_back(std::move(summary));
  }
  for (const auto& [name, value] : collector.counters()) {
    report.counters.emplace_back(name, value);
  }
  report.memory = ReadMemoryUsage();
  report.allocs = AllocStatsSince(allocs_before);
  return report;
}

const RegionSummary* PerfReport::FindRegion(const std::string& name) const {
  for (const RegionSummary& region : regions) {
    if (region.name == name) {
      return &region;
    }
  }
  return nullptr;
}

uint64_t PerfReport::CounterValue(const std::string& name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) {
      return value;
    }
  }
  return 0;
}

void PerfReport::WriteJson(std::ostream& os) const {
  os << "{\"regions\":{";
  bool first = true;
  for (const RegionSummary& region : regions) {
    if (!first) {
      os << ',';
    }
    first = false;
    WriteJsonString(os, region.name);
    os << ":{\"count\":" << region.count << ",\"total_ms\":";
    WriteJsonNumber(os, region.total_ms);
    os << ",\"mean_ms\":";
    WriteJsonNumber(os, region.mean_ms);
    os << ",\"min_ms\":";
    WriteJsonNumber(os, region.min_ms);
    os << ",\"max_ms\":";
    WriteJsonNumber(os, region.max_ms);
    os << ",\"p50_ms\":";
    WriteJsonNumber(os, region.p50_ms);
    os << ",\"p95_ms\":";
    WriteJsonNumber(os, region.p95_ms);
    os << ",\"p99_ms\":";
    WriteJsonNumber(os, region.p99_ms);
    os << "}";
  }
  os << "},\"counters\":{";
  first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      os << ',';
    }
    first = false;
    WriteJsonString(os, name);
    os << ":" << value;
  }
  os << "},\"memory\":{\"current_rss_bytes\":" << memory.current_rss_bytes
     << ",\"peak_rss_bytes\":" << memory.peak_rss_bytes << "}";
  os << ",\"allocs\":{\"hooked\":" << (allocs.hooked ? "true" : "false")
     << ",\"allocations\":" << allocs.allocations
     << ",\"deallocations\":" << allocs.deallocations
     << ",\"bytes_allocated\":" << allocs.bytes_allocated << "}}";
}

std::string PerfReport::ToJsonString() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

}  // namespace perf
}  // namespace mudi
