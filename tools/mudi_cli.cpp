// mudi_cli — run a multiplexing experiment from the command line.
//
// Examples:
//   mudi_cli --policy Mudi --nodes 3 --gpus 4 --tasks 120
//   mudi_cli --policy MuxFlow --tasks 300 --queue SJF --load 2.0 --csv out.csv
//   mudi_cli --policy Mudi --nodes 250 --gpus 4 --tasks 2000 --tick-ms 20
//
// Prints the headline metrics; --csv appends one summary row per run, so a
// shell loop over policies/seeds builds a results table.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include "src/common/float_eq.h"
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/common/table.h"
#include "src/common/wallclock.h"
#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/fault/control_fault_plan.h"
#include "src/perf/mem_probe.h"
#include "src/perf/perf_collector.h"
#include "src/perf/perf_report.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/replay_run.h"
#include "src/replay/replay_source.h"

namespace {

struct CliArgs {
  std::string policy = "Mudi";
  int nodes = 3;
  int gpus = 4;
  size_t tasks = 120;
  uint64_t seed = 5;
  std::string queue = "FCFS";
  double load = 1.0;
  double compression = 800.0;
  double tick_ms = 0.0;
  bool chaos = false;
  bool ctrl_chaos = false;
  std::string csv;
  bool util_series = false;
  std::string trace_file;
  size_t trace_ring = 0;
  std::string metrics_json;
  std::string metrics_csv;
  std::string perf_report;
  std::string record_file;
  std::string replay_file;
  std::string replay_verify_file;
  std::string whatif_file;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: mudi_cli [options]\n"
      "  --policy NAME      Mudi | Mudi-more | Mudi-cluster-only | Mudi-device-only |\n"
      "                     GSLICE | gpulets | MuxFlow | Random | Optimal   (default Mudi)\n"
      "  --nodes N          cluster nodes (default 3)\n"
      "  --gpus N           GPUs per node (default 4)\n"
      "  --tasks N          training tasks to replay (default 120)\n"
      "  --seed S           RNG seed (default 5)\n"
      "  --queue P          FCFS | SJF | Priority | FairShare (default FCFS)\n"
      "  --load F           QPS scale factor (default 1.0)\n"
      "  --compression F    duration compression (default 800)\n"
      "  --tick-ms F        arrival cohort tick override (default auto)\n"
      "  --chaos            arm the standard fault schedule (StandardChaosPlan)\n"
      "  --ctrl-chaos       arm the standard control-plane fault schedule\n"
      "                     (StandardControlChaosPlan: degraded KvStore watches,\n"
      "                     partitions, watch loss, scheduler crashes)\n"
      "  --util             record the utilization time series\n"
      "  --csv FILE         append a summary row to FILE (with header if new)\n"
      "  --trace FILE       write an event trace (.json = Chrome trace, else binary)\n"
      "  --trace-ring N     bound the trace to the newest N events (0 = unbounded)\n"
      "  --metrics-json F   append a telemetry metrics JSON line to F\n"
      "  --metrics-csv F    write the telemetry snapshot time series to F\n"
      "  --perf-report F    write a src/perf self-profiling report (JSON) to F\n"
      "                     ('-' prints to stdout); observe-only, results unchanged\n"
      "  --record F         record a decision trace (mudi.decision_trace.v1) to F;\n"
      "                     observe-only, results unchanged\n"
      "  --replay F         fidelity replay: run the full simulation but serve curves,\n"
      "                     probes, and predictions from the trace at F (no re-profiling)\n"
      "  --replay-verify F  record the run to F, replay it, and assert byte-identical\n"
      "                     metrics plus >=90%% profiler-invocation skip (exit 1 on fail)\n"
      "  --whatif F         counterfactual replay: drive --policy over the decision\n"
      "                     stream recorded at F with NO simulation; reports the first\n"
      "                     divergent decision (--record writes the what-if trace)\n");
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  const std::map<std::string, bool*> switches = {
      {"--chaos", &args->chaos},
      {"--ctrl-chaos", &args->ctrl_chaos},
      {"--util", &args->util_series}};
  const std::map<std::string, std::function<void(const char*)>> valued = {
      {"--policy", [args](const char* v) { args->policy = v; }},
      {"--nodes", [args](const char* v) { args->nodes = std::atoi(v); }},
      {"--gpus", [args](const char* v) { args->gpus = std::atoi(v); }},
      {"--tasks", [args](const char* v) { args->tasks = static_cast<size_t>(std::atoll(v)); }},
      {"--seed", [args](const char* v) { args->seed = static_cast<uint64_t>(std::atoll(v)); }},
      {"--queue", [args](const char* v) { args->queue = v; }},
      {"--load", [args](const char* v) { args->load = std::atof(v); }},
      {"--compression", [args](const char* v) { args->compression = std::atof(v); }},
      {"--tick-ms", [args](const char* v) { args->tick_ms = std::atof(v); }},
      {"--csv", [args](const char* v) { args->csv = v; }},
      {"--trace", [args](const char* v) { args->trace_file = v; }},
      {"--trace-ring",
       [args](const char* v) { args->trace_ring = static_cast<size_t>(std::atoll(v)); }},
      {"--metrics-json", [args](const char* v) { args->metrics_json = v; }},
      {"--metrics-csv", [args](const char* v) { args->metrics_csv = v; }},
      {"--perf-report", [args](const char* v) { args->perf_report = v; }},
      {"--record", [args](const char* v) { args->record_file = v; }},
      {"--replay", [args](const char* v) { args->replay_file = v; }},
      {"--replay-verify", [args](const char* v) { args->replay_verify_file = v; }},
      {"--whatif", [args](const char* v) { args->whatif_file = v; }},
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      args->help = true;
      return true;
    }
    if (auto sw = switches.find(flag); sw != switches.end()) {
      *sw->second = true;
    } else if (auto set = valued.find(flag); set == valued.end()) {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    } else if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    } else {
      set->second(argv[++i]);
    }
  }
  return true;
}

mudi::QueuePolicy ParseQueue(const std::string& name) {
  if (name == "SJF") {
    return mudi::QueuePolicy::kShortestJobFirst;
  }
  if (name == "Priority") {
    return mudi::QueuePolicy::kPriority;
  }
  if (name == "FairShare") {
    return mudi::QueuePolicy::kFairShare;
  }
  return mudi::QueuePolicy::kFcfs;
}

mudi::replay::TraceHeader MakeTraceHeader(const mudi::ExperimentOptions& options,
                                          const std::string& policy, const std::string& mode,
                                          const std::string& base_policy) {
  mudi::replay::TraceHeader header;
  header.policy = policy;
  header.mode = mode;
  header.base_policy = base_policy;
  header.seed = options.seed;
  header.oracle_seed = options.oracle_seed;
  header.num_devices = static_cast<uint32_t>(options.num_nodes * options.gpus_per_node);
  header.num_services = static_cast<uint32_t>(options.num_services);
  header.service_offset = static_cast<uint32_t>(options.service_offset);
  return header;
}

// Every headline metric, rendered with %.17g so the string round-trips the
// double bits exactly: equal fingerprints == byte-identical results.
std::string MetricsFingerprint(const mudi::ExperimentResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "makespan=%.17g slo=%.17g mean_ct=%.17g p95_ct=%.17g wait=%.17g sm=%.17g "
                "mem=%.17g swap_events=%zu swap_mb=%.17g completed=%zu",
                r.makespan_ms, r.OverallSloViolationRate(), r.MeanCtMs(), r.P95CtMs(),
                r.MeanWaitingMs(), r.avg_sm_util, r.avg_mem_util, r.swap_events, r.swap_total_mb,
                r.CompletedTasks());
  std::string out = buf;
  for (const auto& [name, m] : r.per_service) {
    std::snprintf(buf, sizeof(buf), " %s=%zu/%zu/%zu/%.17g/%.17g", name.c_str(),
                  m.windows_violated, m.windows_total, m.windows_violated_failure,
                  m.mean_latency_ms, m.served_requests);
    out += buf;
  }
  return out;
}

mudi::ExperimentResult RunOnce(const mudi::ExperimentOptions& options,
                               const std::string& policy_name) {
  mudi::PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = mudi::MakePolicy(policy_name, profiling_oracle);
  mudi::ClusterExperiment experiment(options, policy.get());
  return experiment.Run();
}

// --replay-verify: record a live run, replay the trace through a fresh
// policy, and prove (a) byte-identical headline metrics and (b) that replay
// actually skipped the profiler (>=90% of oracle/modeler lookups served from
// the trace — in practice 100%, since a fidelity replay asks exactly the
// recorded questions).
int RunReplayVerify(const mudi::ExperimentOptions& base_options, const CliArgs& args) {
  using namespace mudi;
  auto recorder_or = replay::DecisionRecorder::Create(
      args.replay_verify_file, MakeTraceHeader(base_options, args.policy, "record", ""));
  if (!recorder_or.ok()) {
    std::fprintf(stderr, "replay-verify: %s\n", recorder_or.status().message().c_str());
    return 1;
  }
  std::unique_ptr<replay::DecisionRecorder> recorder = std::move(*recorder_or);
  ExperimentOptions record_options = base_options;
  record_options.recorder = recorder.get();
  ExperimentResult live = RunOnce(record_options, args.policy);
  Status finish = recorder->Close();
  if (!finish.ok()) {
    std::fprintf(stderr, "replay-verify: %s\n", finish.message().c_str());
    return 1;
  }
  std::printf("recorded: %llu decisions, %llu observations -> %s\n",
              static_cast<unsigned long long>(recorder->decisions_recorded()),
              static_cast<unsigned long long>(recorder->observations_recorded()),
              args.replay_verify_file.c_str());

  auto source_or = replay::ReplaySource::Load(args.replay_verify_file);
  if (!source_or.ok()) {
    std::fprintf(stderr, "replay-verify: %s\n", source_or.status().message().c_str());
    return 1;
  }
  replay::ReplaySource source = std::move(*source_or);
  ExperimentOptions replay_options = base_options;
  replay_options.replay = &source;
  ExperimentResult replayed = RunOnce(replay_options, args.policy);

  uint64_t lookups = source.hits() + source.sticky_hits() + source.misses();
  double skip_rate =
      lookups > 0 ? static_cast<double>(source.hits() + source.sticky_hits()) /
                        static_cast<double>(lookups)
                  : 0.0;
  std::printf("replay: %llu trace hits, %llu sticky, %llu misses (%.1f%% profiler skip)\n",
              static_cast<unsigned long long>(source.hits()),
              static_cast<unsigned long long>(source.sticky_hits()),
              static_cast<unsigned long long>(source.misses()), skip_rate * 100.0);

  bool ok = true;
  std::string live_fp = MetricsFingerprint(live);
  std::string replay_fp = MetricsFingerprint(replayed);
  if (live_fp != replay_fp) {
    std::fprintf(stderr,
                 "replay-verify: FAIL metrics diverge\n  live:   %s\n  replay: %s\n",
                 live_fp.c_str(), replay_fp.c_str());
    ok = false;
  }
  if (lookups == 0 || skip_rate < 0.9) {
    std::fprintf(stderr, "replay-verify: FAIL profiler skip %.1f%% < 90%% (%llu lookups)\n",
                 skip_rate * 100.0, static_cast<unsigned long long>(lookups));
    ok = false;
  }
  if (ok) {
    std::printf("replay-verify: PASS byte-identical metrics, %.1f%% profiler skip\n",
                skip_rate * 100.0);
  }
  return ok ? 0 : 1;
}

// --whatif: counterfactual replay of a recorded decision stream through
// --policy, no simulation at all.
int RunWhatIfMode(const CliArgs& args) {
  using namespace mudi;
  auto source_or = replay::ReplaySource::Load(args.whatif_file);
  if (!source_or.ok()) {
    std::fprintf(stderr, "whatif: %s\n", source_or.status().message().c_str());
    return 1;
  }
  replay::ReplaySource source = std::move(*source_or);
  const replay::TraceHeader& header = source.trace().header;

  PerfOracle profiling_oracle(header.oracle_seed);
  auto policy = MakePolicy(args.policy, profiling_oracle);

  std::unique_ptr<replay::DecisionRecorder> whatif_recorder;
  if (!args.record_file.empty()) {
    replay::TraceHeader out = header;
    out.policy = policy->name();
    out.mode = "counterfactual";
    out.base_policy = header.policy;
    auto rec_or = replay::DecisionRecorder::Create(args.record_file, out);
    if (!rec_or.ok()) {
      std::fprintf(stderr, "whatif: %s\n", rec_or.status().message().c_str());
      return 1;
    }
    whatif_recorder = std::move(*rec_or);
  }

  replay::WhatIfOptions options;
  options.recorder = whatif_recorder.get();
  WallTimer timer;
  auto result_or = replay::RunWhatIf(source, *policy, options);
  double wall_ms = timer.ElapsedMs();
  if (!result_or.ok()) {
    std::fprintf(stderr, "whatif: %s\n", result_or.status().message().c_str());
    return 1;
  }
  const replay::WhatIfResult& result = *result_or;
  if (whatif_recorder != nullptr) {
    Status finish = whatif_recorder->Close();
    if (!finish.ok()) {
      std::fprintf(stderr, "whatif: %s\n", finish.message().c_str());
      return 1;
    }
  }

  std::printf("== whatif: %s over a %s trace of %s ==\n", policy->name().c_str(),
              header.mode.c_str(), header.policy.c_str());
  std::printf("decisions replayed: %llu in %.1f ms (no simulation)\n",
              static_cast<unsigned long long>(result.decisions_replayed), wall_ms);
  uint64_t lookups = result.probe_hits + result.probe_sticky_hits + result.probe_misses;
  if (lookups > 0) {
    std::printf("probe lookups: %llu hits, %llu sticky, %llu misses (%.1f%% from trace)\n",
                static_cast<unsigned long long>(result.probe_hits),
                static_cast<unsigned long long>(result.probe_sticky_hits),
                static_cast<unsigned long long>(result.probe_misses),
                100.0 * static_cast<double>(result.probe_hits + result.probe_sticky_hits) /
                    static_cast<double>(lookups));
  }
  if (result.diverged) {
    std::printf("diverged at %llu of %llu decisions\nfirst divergence: %s\n",
                static_cast<unsigned long long>(result.diverged_decisions),
                static_cast<unsigned long long>(result.decisions_replayed),
                result.first_divergence_detail.c_str());
  } else {
    std::printf("no divergence: %s reproduces every recorded decision\n",
                policy->name().c_str());
  }
  if (whatif_recorder != nullptr) {
    std::printf("what-if trace written to %s (diff with tools/trace_diff)\n",
                args.record_file.c_str());
  }
  std::printf("whatif_wall_ms=%.3f\n", wall_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mudi;
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 1;
  }
  if (args.help) {
    PrintUsage();
    return 0;
  }

  ExperimentOptions options = PhysicalClusterOptions(args.tasks, args.seed);
  options.num_nodes = args.nodes;
  options.gpus_per_node = args.gpus;
  options.trace.duration_compression = args.compression;
  options.queue_policy = ParseQueue(args.queue);
  options.record_util_series = args.util_series;
  if (args.tick_ms > 0.0) {
    options.arrival_tick_ms = args.tick_ms;
  }
  if (!ExactEq(args.load, 1.0)) {
    ScaleQps(options, args.load);
  }
  if (args.chaos) {
    options.fault_plan =
        StandardChaosPlan(args.nodes * args.gpus, args.nodes);
  }
  if (args.ctrl_chaos) {
    options.ctrl_fault_plan = StandardControlChaosPlan();
  }
  if (!args.trace_file.empty() || !args.metrics_json.empty() || !args.metrics_csv.empty()) {
    options.telemetry.enabled = true;
    options.telemetry.trace_file = args.trace_file;
    options.telemetry.trace_ring_capacity = args.trace_ring;
    options.telemetry.metrics_json = args.metrics_json;
    options.telemetry.metrics_csv = args.metrics_csv;
  }

  perf::PerfCollector perf_collector;
  if (!args.perf_report.empty()) {
    options.perf = &perf_collector;
  }

  if (!args.whatif_file.empty()) {
    return RunWhatIfMode(args);
  }
  if (!args.replay_verify_file.empty()) {
    return RunReplayVerify(options, args);
  }

  std::unique_ptr<replay::DecisionRecorder> recorder;
  if (!args.record_file.empty()) {
    auto recorder_or = replay::DecisionRecorder::Create(
        args.record_file, MakeTraceHeader(options, args.policy, "record", ""));
    if (!recorder_or.ok()) {
      std::fprintf(stderr, "record: %s\n", recorder_or.status().message().c_str());
      return 1;
    }
    recorder = std::move(*recorder_or);
    options.recorder = recorder.get();
  }
  std::optional<replay::ReplaySource> replay_source;
  if (!args.replay_file.empty()) {
    auto source_or = replay::ReplaySource::Load(args.replay_file);
    if (!source_or.ok()) {
      std::fprintf(stderr, "replay: %s\n", source_or.status().message().c_str());
      return 1;
    }
    replay_source.emplace(std::move(*source_or));
    options.replay = &*replay_source;
  }

  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy(args.policy, profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  perf::AllocStats allocs_before = perf::ReadAllocStats();
  ExperimentResult result = experiment.Run();

  if (recorder != nullptr) {
    Status finish = recorder->Close();
    if (!finish.ok()) {
      std::fprintf(stderr, "record: %s\n", finish.message().c_str());
      return 1;
    }
    std::printf("recorded: %llu decisions, %llu observations -> %s\n",
                static_cast<unsigned long long>(recorder->decisions_recorded()),
                static_cast<unsigned long long>(recorder->observations_recorded()),
                args.record_file.c_str());
  }
  if (replay_source.has_value()) {
    std::printf("replay: %llu trace hits, %llu sticky, %llu misses\n",
                static_cast<unsigned long long>(replay_source->hits()),
                static_cast<unsigned long long>(replay_source->sticky_hits()),
                static_cast<unsigned long long>(replay_source->misses()));
  }

  if (!args.perf_report.empty()) {
    perf::PerfReport report = perf::PerfReport::FromCollector(perf_collector, allocs_before);
    if (args.perf_report == "-") {
      std::printf("%s\n", report.ToJsonString().c_str());
    } else {
      std::ofstream out(args.perf_report);
      out << report.ToJsonString() << '\n';
    }
  }

  std::printf("== mudi_cli: %s on %d nodes x %d GPUs, %zu tasks, queue=%s, load=%.1fx ==\n",
              result.policy_name.c_str(), args.nodes, args.gpus, args.tasks,
              args.queue.c_str(), args.load);
  Table table({"metric", "value"});
  table.AddRow({"completed tasks", std::to_string(result.CompletedTasks()) + "/" +
                                       std::to_string(result.tasks.size())});
  table.AddRow({"SLO violation rate", Table::Pct(result.OverallSloViolationRate(), 2)});
  table.AddRow({"mean CT (s)", Table::Num(result.MeanCtMs() / kMsPerSecond, 1)});
  table.AddRow({"P95 CT (s)", Table::Num(result.P95CtMs() / kMsPerSecond, 1)});
  table.AddRow({"mean wait (s)", Table::Num(result.MeanWaitingMs() / kMsPerSecond, 1)});
  table.AddRow({"makespan (s)", Table::Num(result.makespan_ms / kMsPerSecond, 1)});
  table.AddRow({"avg SM util", Table::Pct(result.avg_sm_util, 1)});
  table.AddRow({"avg mem util", Table::Pct(result.avg_mem_util, 1)});
  table.AddRow({"swap events", std::to_string(result.swap_events)});
  std::printf("%s", table.ToString().c_str());
  for (const auto& [name, metrics] : result.per_service) {
    std::printf("  %-10s SLO violation %s  (mean latency %.1f ms)\n", name.c_str(),
                Table::Pct(metrics.slo_violation_rate(), 2).c_str(), metrics.mean_latency_ms);
  }
  if (result.faults.any()) {
    const FaultMetrics& fm = result.faults;
    std::printf("-- faults --\n");
    Table ft({"metric", "value"});
    ft.AddRow({"faults injected", std::to_string(fm.faults_injected)});
    ft.AddRow({"device failures / recoveries", std::to_string(fm.device_failures) + " / " +
                                                   std::to_string(fm.devices_recovered)});
    ft.AddRow({"total downtime (s)", Table::Num(fm.total_downtime_ms / kMsPerSecond, 1)});
    ft.AddRow({"trainings displaced / replaced", std::to_string(fm.trainings_displaced) + " / " +
                                                     std::to_string(fm.trainings_replaced)});
    ft.AddRow({"mean re-place latency (s)",
               Table::Num(fm.mean_replacement_ms / kMsPerSecond, 1)});
    ft.AddRow({"work lost (full-GPU s)", Table::Num(fm.work_lost_ms / kMsPerSecond, 1)});
    ft.AddRow({"requests failed / rerouted",
               Table::Num(fm.failed_requests, 0) + " / " + Table::Num(fm.rerouted_requests, 0)});
    ft.AddRow({"goodput (req/s)", Table::Num(fm.goodput_rps, 1)});
    ft.AddRow({"violated windows (failure/load)",
               std::to_string(result.TotalWindowsViolatedFailure()) + " / " +
                   std::to_string(result.TotalWindowsViolatedLoad())});
    std::printf("%s", ft.ToString().c_str());
  }
  if (result.ctrl.any()) {
    const ControlMetrics& cm = result.ctrl;
    std::printf("-- control plane --\n");
    Table ct({"metric", "value"});
    ct.AddRow({"ctrl events injected", std::to_string(cm.events_injected)});
    ct.AddRow({"kv partitions / watch losses", std::to_string(cm.kv_partitions) + " / " +
                                                   std::to_string(cm.watch_losses)});
    ct.AddRow({"scheduler crashes / recoveries", std::to_string(cm.scheduler_crashes) + " / " +
                                                     std::to_string(cm.scheduler_recoveries)});
    ct.AddRow({"mean recovery (s)", Table::Num(cm.MeanRecoveryMs() / kMsPerSecond, 2)});
    ct.AddRow({"retries (sanctioned backoff)", std::to_string(cm.retries)});
    ct.AddRow({"stale / unavailable reads",
               std::to_string(cm.stale_reads) + " / " + std::to_string(cm.unavailable_reads)});
    ct.AddRow({"watch delivered / dropped / lost",
               std::to_string(cm.watch_delivered) + " / " + std::to_string(cm.watch_dropped) +
                   " / " + std::to_string(cm.watch_lost_partition)});
    ct.AddRow({"configs published / applied / lost",
               std::to_string(cm.configs_published) + " / " + std::to_string(cm.configs_applied) +
                   " / " + std::to_string(cm.configs_lost())});
    ct.AddRow({"stale recovery-scan entries", std::to_string(cm.stale_scan_entries)});
    std::printf("%s", ct.ToString().c_str());
  }

  if (!args.csv.empty()) {
    bool fresh = !std::ifstream(args.csv).good();
    std::ofstream out(args.csv, std::ios::app);
    if (fresh) {
      out << "policy,nodes,gpus,tasks,seed,queue,load,slo_violation,mean_ct_s,mean_wait_s,"
             "makespan_s,avg_sm_util,avg_mem_util\n";
    }
    out << result.policy_name << ',' << args.nodes << ',' << args.gpus << ',' << args.tasks
        << ',' << args.seed << ',' << args.queue << ',' << args.load << ','
        << result.OverallSloViolationRate() << ',' << result.MeanCtMs() / kMsPerSecond << ','
        << result.MeanWaitingMs() / kMsPerSecond << ',' << result.makespan_ms / kMsPerSecond
        << ',' << result.avg_sm_util << ',' << result.avg_mem_util << '\n';
  }
  return 0;
}
