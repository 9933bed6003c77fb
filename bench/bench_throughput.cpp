// bench_throughput — the perf-trajectory bench (DESIGN.md §11).
//
// Runs every multiplexing system against small/medium/large cluster presets
// with a src/perf PerfCollector attached and reports, per (preset, policy):
//   * raw engine throughput: events fired per wall-clock second
//   * time compression: simulated seconds per wall second
//   * scheduler decision latency (the "policy.select_device" region):
//     count / p50 / p95 / p99 / max milliseconds
//
// The output is a machine-readable, versioned JSON document
// (schema "mudi.bench_throughput.v1", validated by
// perf::ValidateBenchThroughputJson) written to --out and meant to be
// committed at the repo root as BENCH_throughput.json so the throughput
// trajectory is visible in review diffs.
//
// Usage:
//   bench_throughput [--out=path] [--presets=a,b] [--systems=x,y]
//   bench_throughput --validate=path     # schema-check an existing file
//   bench_throughput --compare=base.json [--max-regress=0.2]
//       run fresh, then print a per-(preset, policy) regression table vs base;
//       the gate is simulated seconds per wall second, which a change that
//       removes events without removing simulated work does not lower
//   bench_throughput --compare=base.json --against=new.json
//       pure compare of two existing artifacts (no run)
//
// MUDI_BENCH_SCALE scales task counts as in every other bench.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/wallclock.h"
#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/perf/json_check.h"
#include "src/perf/mem_probe.h"
#include "src/perf/perf_collector.h"
#include "src/perf/perf_report.h"

namespace mudi {
namespace {

constexpr const char* kAllSystems[] = {"Mudi", "GSLICE", "gpulets", "MuxFlow", "Random", "Optimal"};

struct Preset {
  std::string name;
  ExperimentOptions options;
};

// smoke < small < medium < large. "smoke" exists for the check.sh --bench
// gate (seconds, not minutes); the trajectory presets are the other three.
std::vector<Preset> BuildPresets() {
  std::vector<Preset> presets;
  {
    ExperimentOptions options;
    options.num_nodes = 2;
    options.gpus_per_node = 2;
    options.num_services = 4;
    options.trace.num_tasks = 8;
    options.trace.mean_interarrival_ms = 2.0 * kMsPerSecond;
    options.trace.duration_compression = 8000.0;
    options.trace.seed = 6;
    presets.push_back({"smoke", options});
  }
  {
    ExperimentOptions options;
    options.num_nodes = 2;
    options.gpus_per_node = 2;
    options.num_services = 4;
    options.trace.num_tasks = ScaledCount(32);
    options.trace.mean_interarrival_ms = 2.0 * kMsPerSecond;
    options.trace.duration_compression = 8000.0;
    options.trace.seed = 6;
    presets.push_back({"small", options});
  }
  // The paper's 3×4-A100 physical cluster, task count trimmed from 300 so a
  // full 6-system sweep stays in trajectory-refresh territory.
  presets.push_back({"medium", PhysicalClusterOptions(ScaledCount(120))});
  // The 1000-GPU simulated cluster; tasks trimmed from 5000 for the same
  // reason — the engine-throughput signal saturates well before that.
  presets.push_back({"large", SimulatedClusterOptions(ScaledCount(400))});
  return presets;
}

struct DecisionLatency {
  uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

struct Record {
  std::string preset;
  std::string policy;
  double wall_ms = 0.0;
  double sim_ms = 0.0;
  uint64_t events_fired = 0;
  uint64_t events_scheduled = 0;
  uint64_t events_cancelled = 0;
  double events_per_sec = 0.0;
  double sim_seconds_per_wall_second = 0.0;
  DecisionLatency decision;
  double peak_rss_mb = 0.0;
  perf::PerfReport report;  // full per-region detail, embedded verbatim
};

Record RunOne(const Preset& preset, const std::string& policy_name) {
  ExperimentOptions options = preset.options;
  perf::PerfCollector collector;
  options.perf = &collector;

  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy(policy_name, profiling_oracle);
  ClusterExperiment experiment(options, policy.get());

  perf::AllocStats allocs_before = perf::ReadAllocStats();
  WallTimer timer;
  ExperimentResult result = experiment.Run();
  double wall_ms = timer.ElapsedMs();
  (void)result;

  Record record;
  record.preset = preset.name;
  record.policy = policy_name;
  record.wall_ms = wall_ms;
  record.sim_ms = experiment.SimNowMs();
  record.report = perf::PerfReport::FromCollector(collector, allocs_before);
  record.events_fired = record.report.CounterValue("sim.events_fired");
  record.events_scheduled = record.report.CounterValue("sim.events_scheduled");
  record.events_cancelled = record.report.CounterValue("sim.events_cancelled");
  double wall_seconds = wall_ms / kMsPerSecond;
  if (wall_seconds > 0.0) {
    record.events_per_sec = static_cast<double>(record.events_fired) / wall_seconds;
    record.sim_seconds_per_wall_second = record.sim_ms / wall_ms;
  }
  if (const perf::RegionSummary* select = record.report.FindRegion("policy.select_device")) {
    record.decision.count = select->count;
    record.decision.p50 = select->p50_ms;
    record.decision.p95 = select->p95_ms;
    record.decision.p99 = select->p99_ms;
    record.decision.max = select->max_ms;
  }
  record.peak_rss_mb = static_cast<double>(record.report.memory.peak_rss_bytes) / (1024.0 * 1024.0);
  return record;
}

// ---------------------------------------------------------------------------
// JSON emission.

void WriteDecision(std::ostream& os, const DecisionLatency& d) {
  os << "{\"count\":" << d.count << ",\"p50\":";
  WriteJsonNumber(os, d.p50);
  os << ",\"p95\":";
  WriteJsonNumber(os, d.p95);
  os << ",\"p99\":";
  WriteJsonNumber(os, d.p99);
  os << ",\"max\":";
  WriteJsonNumber(os, d.max);
  os << "}";
}

void WriteRecord(std::ostream& os, const Record& r) {
  os << "    {\"preset\":";
  WriteJsonString(os, r.preset);
  os << ",\"policy\":";
  WriteJsonString(os, r.policy);
  os << ",\"wall_ms\":";
  WriteJsonNumber(os, r.wall_ms);
  os << ",\"sim_ms\":";
  WriteJsonNumber(os, r.sim_ms);
  os << ",\"events_fired\":" << r.events_fired << ",\"events_scheduled\":" << r.events_scheduled
     << ",\"events_cancelled\":" << r.events_cancelled << ",\"events_per_sec\":";
  WriteJsonNumber(os, r.events_per_sec);
  os << ",\"sim_seconds_per_wall_second\":";
  WriteJsonNumber(os, r.sim_seconds_per_wall_second);
  os << ",\"decision_latency_ms\":";
  WriteDecision(os, r.decision);
  os << ",\"peak_rss_mb\":";
  WriteJsonNumber(os, r.peak_rss_mb);
  os << ",\"perf\":" << r.report.ToJsonString();
  os << "}";
}

void WriteBenchJson(std::ostream& os, const std::vector<Record>& records) {
  os << "{\n  \"schema\": \"mudi.bench_throughput.v1\",\n  \"build\": ";
  perf::BuildMetadata::Current().WriteJson(os);
  os << ",\n  \"bench_scale\": ";
  WriteJsonNumber(os, BenchScale());
  os << ",\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    WriteRecord(os, records[i]);
    os << (i + 1 < records.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

// ---------------------------------------------------------------------------
// CLI.

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

int ValidateFile(const std::string& path) {
  StatusOr<JsonValue> doc = ParseJsonFile(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "[bench_throughput] %s\n", doc.status().message().c_str());
    return 1;
  }
  Status status = perf::ValidateBenchThroughputJson(*doc);
  if (!status.ok()) {
    std::fprintf(stderr, "[bench_throughput] %s\n", status.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_throughput] %s: valid mudi.bench_throughput.v1\n", path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Regression compare (--compare / --against / --max-regress).

struct CompareEntry {
  double sim_s_per_wall_s = 0.0;
  double decision_p50 = 0.0;
  double decision_p95 = 0.0;
};
using CompareMap = std::map<std::pair<std::string, std::string>, CompareEntry>;

// Pulls (preset, policy) -> {sim-s/wall-s, decision p50/p95} out of a validated
// mudi.bench_throughput.v1 document.
CompareMap EntriesFromJson(const JsonValue& doc) {
  CompareMap entries;
  const JsonValue* records = doc.Find("records");
  MUDI_CHECK(records != nullptr && records->is_array());
  for (const JsonValue& rec : records->array()) {
    CompareEntry entry;
    entry.sim_s_per_wall_s = rec.Find("sim_seconds_per_wall_second")->number();
    const JsonValue* decision = rec.Find("decision_latency_ms");
    entry.decision_p50 = decision->Find("p50")->number();
    entry.decision_p95 = decision->Find("p95")->number();
    entries[{rec.Find("preset")->string(), rec.Find("policy")->string()}] = entry;
  }
  return entries;
}

CompareMap EntriesFromRecords(const std::vector<Record>& records) {
  CompareMap entries;
  for (const Record& r : records) {
    entries[{r.preset, r.policy}] =
        CompareEntry{r.sim_seconds_per_wall_second, r.decision.p50, r.decision.p95};
  }
  return entries;
}

StatusOr<CompareMap> LoadCompareFile(const std::string& path) {
  StatusOr<JsonValue> doc = ParseJsonFile(path);
  if (!doc.ok()) {
    return doc.status();
  }
  Status valid = perf::ValidateBenchThroughputJson(*doc);
  if (!valid.ok()) {
    return valid;
  }
  return EntriesFromJson(*doc);
}

// Prints the per-(preset, policy) regression table for every pair present in
// both maps. With max_regress >= 0, returns 3 when any pair's simulated
// seconds per wall second fell by more than that fraction; otherwise returns 0.
int CompareAndPrint(const CompareMap& base, const CompareMap& fresh, double max_regress) {
  auto pct = [](double from, double to) {
    return from > 0.0 ? (to - from) / from * 100.0 : 0.0;
  };
  std::printf("%-8s %-10s %14s %14s %8s %12s %12s %8s\n", "preset", "policy", "base sim/wall",
              "new sim/wall", "sim/w%", "base p95 ms", "new p95 ms", "p95%");
  std::vector<std::string> regressed;
  size_t compared = 0;
  for (const auto& [key, now] : fresh) {
    auto it = base.find(key);
    if (it == base.end()) {
      std::printf("%-8s %-10s %14s\n", key.first.c_str(), key.second.c_str(),
                  "(new, no base)");
      continue;
    }
    const CompareEntry& was = it->second;
    ++compared;
    std::printf("%-8s %-10s %14.1f %14.1f %+7.1f%% %12.4f %12.4f %+7.1f%%\n", key.first.c_str(),
                key.second.c_str(), was.sim_s_per_wall_s, now.sim_s_per_wall_s,
                pct(was.sim_s_per_wall_s, now.sim_s_per_wall_s), was.decision_p95,
                now.decision_p95, pct(was.decision_p95, now.decision_p95));
    if (max_regress >= 0.0 && now.sim_s_per_wall_s < was.sim_s_per_wall_s * (1.0 - max_regress)) {
      regressed.push_back(key.first + "/" + key.second);
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "[bench_throughput] no (preset, policy) pairs in common\n");
    return 2;
  }
  if (!regressed.empty()) {
    std::fprintf(stderr, "[bench_throughput] sim-s/wall-s regressed >%.0f%% vs baseline:",
                 max_regress * 100.0);
    for (const std::string& name : regressed) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 3;
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  // "smoke" leads deliberately: it profiles the same curves as "small" (same
  // oracle seed and observed types), so the later Mudi runs exercise — and
  // the committed trajectory records — the warm FitCache path that re-tunes
  // and repeated initializations actually take.
  std::vector<std::string> preset_names = {"smoke", "small", "medium", "large"};
  std::vector<std::string> systems(std::begin(kAllSystems), std::end(kAllSystems));
  std::string compare_path;
  std::string against_path;
  double max_regress = -1.0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--out=", 0) == 0) {
      out_path = value_of("--out=");
    } else if (arg.rfind("--presets=", 0) == 0) {
      preset_names = SplitCsv(value_of("--presets="));
    } else if (arg.rfind("--systems=", 0) == 0) {
      systems = SplitCsv(value_of("--systems="));
    } else if (arg.rfind("--validate=", 0) == 0) {
      return ValidateFile(value_of("--validate="));
    } else if (arg.rfind("--compare=", 0) == 0) {
      compare_path = value_of("--compare=");
    } else if (arg.rfind("--against=", 0) == 0) {
      against_path = value_of("--against=");
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      max_regress = std::atof(value_of("--max-regress=").c_str());
      MUDI_CHECK_GT(max_regress, 0.0);
      MUDI_CHECK_LT(max_regress, 1.0);
    } else {
      std::fprintf(stderr,
                   "usage: bench_throughput [--out=path] [--presets=a,b] [--systems=x,y]\n"
                   "       bench_throughput --validate=path\n"
                   "       bench_throughput --compare=base.json [--against=new.json]\n"
                   "                        [--max-regress=0.2]\n");
      return 2;
    }
  }
  MUDI_CHECK(!preset_names.empty());
  MUDI_CHECK(!systems.empty());

  if (!against_path.empty()) {
    // Pure compare of two existing artifacts; nothing is run.
    if (compare_path.empty()) {
      std::fprintf(stderr, "[bench_throughput] --against requires --compare=base.json\n");
      return 2;
    }
    StatusOr<CompareMap> base = LoadCompareFile(compare_path);
    if (!base.ok()) {
      std::fprintf(stderr, "[bench_throughput] %s: %s\n", compare_path.c_str(),
                   base.status().message().c_str());
      return 1;
    }
    StatusOr<CompareMap> fresh = LoadCompareFile(against_path);
    if (!fresh.ok()) {
      std::fprintf(stderr, "[bench_throughput] %s: %s\n", against_path.c_str(),
                   fresh.status().message().c_str());
      return 1;
    }
    return CompareAndPrint(*base, *fresh, max_regress);
  }

  std::vector<Preset> all_presets = BuildPresets();
  std::vector<Record> records;
  for (const std::string& name : preset_names) {
    const Preset* preset = nullptr;
    for (const Preset& p : all_presets) {
      if (p.name == name) {
        preset = &p;
      }
    }
    if (preset == nullptr) {
      std::fprintf(stderr, "[bench_throughput] unknown preset '%s' (smoke|small|medium|large)\n",
                   name.c_str());
      return 2;
    }
    for (const std::string& system : systems) {
      std::fprintf(stderr, "[bench_throughput] %s / %s ...\n", name.c_str(), system.c_str());
      Record record = RunOne(*preset, system);
      std::fprintf(stderr,
                   "[bench_throughput]   %.0f events/s, %.0f sim-s/wall-s, select p95 %.3f ms "
                   "(%llu decisions), wall %.1f s\n",
                   record.events_per_sec, record.sim_seconds_per_wall_second,
                   record.decision.p95, static_cast<unsigned long long>(record.decision.count),
                   record.wall_ms / kMsPerSecond);
      records.push_back(std::move(record));
    }
  }

  std::ostringstream json;
  WriteBenchJson(json, records);

  // Self-check before touching disk: a malformed artifact must never land.
  StatusOr<JsonValue> parsed = ParseJson(json.str());
  MUDI_CHECK(parsed.ok());
  Status valid = perf::ValidateBenchThroughputJson(*parsed);
  if (!valid.ok()) {
    std::fprintf(stderr, "[bench_throughput] self-validation failed: %s\n",
                 valid.message().c_str());
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "[bench_throughput] cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  out.close();
  std::fprintf(stderr, "[bench_throughput] wrote %s (%zu records)\n", out_path.c_str(),
               records.size());

  if (!compare_path.empty()) {
    StatusOr<CompareMap> base = LoadCompareFile(compare_path);
    if (!base.ok()) {
      std::fprintf(stderr, "[bench_throughput] %s: %s\n", compare_path.c_str(),
                   base.status().message().c_str());
      return 1;
    }
    return CompareAndPrint(*base, EntriesFromRecords(records), max_regress);
  }
  return 0;
}

}  // namespace
}  // namespace mudi

int main(int argc, char** argv) { return mudi::Main(argc, argv); }
