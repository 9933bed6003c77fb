// Control-plane fault figure (DESIGN.md §13): SLO attainment and goodput
// under increasingly degraded coordination, for all six policies.
//
// The data plane stays perfectly healthy in every run — only the control
// plane (KvStore watch delivery, control reads, the scheduler process) is
// degraded. The ladder:
//   none   — empty FaultPlan (reference; byte-identical to a build
//            without any control-fault machinery)
//   delay  — every config watch notification arrives 100 ms late
//   lossy  — 1 s base delay + 500 ms jitter, 10% of notifications dropped
//   chaos  — 2.5 s + 1 s jitter, 30% drops, 20% stale reads (lag <= 8),
//            a partition window, a watch-loss event, and two scheduler
//            crashes (the second inside a second partition, so recovery
//            must back off through src/sim/retry.h)
//
// Read the table as: how much SLO attainment / goodput does each system
// give up when its coordination layer stops being a zero-latency oracle?
// Policies that re-tune aggressively (Mudi) publish more configs and are
// exposed to more loss; static baselines barely notice.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/fault_plan.h"

namespace {

using mudi::FaultPlan;
using mudi::kMsPerSecond;
using mudi::Table;

struct Level {
  const char* name;
  FaultPlan plan;
};

std::vector<Level> DegradationLadder() {
  std::vector<Level> levels;
  levels.push_back({"none", FaultPlan{}});

  FaultPlan delay;
  delay.DegradeWatches(100.0, 0.0, 0.0);
  levels.push_back({"delay", delay});

  FaultPlan lossy;
  lossy.DegradeWatches(1000.0, 500.0, 0.10);
  levels.push_back({"lossy", lossy});

  FaultPlan chaos;
  chaos.DegradeWatches(2500.0, 1000.0, 0.30);
  chaos.StaleReads(0.2, 8);
  chaos.Partition(60.0 * kMsPerSecond, 20.0 * kMsPerSecond);
  chaos.LoseWatches(120.0 * kMsPerSecond);
  chaos.CrashScheduler(180.0 * kMsPerSecond, 2.0 * kMsPerSecond);
  chaos.CrashScheduler(240.0 * kMsPerSecond, 1.0 * kMsPerSecond);
  chaos.Partition(240.0 * kMsPerSecond, 15.0 * kMsPerSecond);
  levels.push_back({"chaos", chaos});
  return levels;
}

}  // namespace

int main() {
  size_t tasks = mudi::ScaledCount(60);
  std::vector<std::string> systems = {"Mudi", "GSLICE", "gpulets", "MuxFlow", "Random", "Optimal"};

  std::printf("== control-plane fault domain: SLO attainment & goodput vs degradation ==\n");
  Table table({"level", "system", "SLO attain", "goodput (r/s)", "completed", "cfg pub/app/lost",
               "retries", "stale", "recov (s)"});
  std::map<std::string, double> baseline_goodput;

  for (const Level& level : DegradationLadder()) {
    mudi::ExperimentOptions options = mudi::PhysicalClusterOptions(tasks);
    options.ctrl_fault_plan = level.plan;
    auto results = mudi::RunSystems(options, systems, /*verbose=*/false);
    for (const std::string& name : systems) {
      const mudi::ExperimentResult& result = results.at(name);
      const mudi::ControlMetrics& cm = result.ctrl;
      double goodput = result.faults.goodput_rps;
      if (level.plan.empty()) {
        baseline_goodput[name] = goodput;
      }
      table.AddRow({level.name, name,
                    Table::Pct(1.0 - result.OverallSloViolationRate(), 2),
                    Table::Num(goodput, 1),
                    std::to_string(result.CompletedTasks()) + "/" +
                        std::to_string(result.tasks.size()),
                    std::to_string(cm.configs_published) + "/" +
                        std::to_string(cm.configs_applied) + "/" +
                        std::to_string(cm.configs_lost()),
                    std::to_string(cm.retries), std::to_string(cm.stale_reads),
                    Table::Num(cm.MeanRecoveryMs() / kMsPerSecond, 2)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "goodput is served requests per simulated second; 'cfg pub/app/lost' counts scheduler\n"
      "config publications vs. those that reached a device agent; 'retries' are sanctioned\n"
      "src/sim/retry.h re-attempts; 'recov' is mean scheduler crash-to-recovered time.\n");
  return 0;
}
