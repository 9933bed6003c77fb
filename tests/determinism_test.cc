// End-to-end guard for the invariant mudi_lint protects statically: a
// ClusterExperiment run is a pure function of its seed. Two runs with the
// same options must agree on every recorded metric — not just headline
// aggregates but per-task records and per-service windows — because the
// paper's figures (and PR 2's "empty fault plan leaves results
// byte-identical" guarantee) assume bit-reproducibility.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/env.h"
#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/fault/fault_plan.h"
#include "src/ml/fit_cache.h"
#include "src/perf/perf_collector.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/replay_source.h"

namespace mudi {
namespace {

ExperimentOptions SmallOptions(uint64_t seed) {
  ExperimentOptions options;
  options.num_nodes = 2;
  options.gpus_per_node = 2;
  options.num_services = 4;
  options.seed = seed;
  options.trace.num_tasks = 16;
  options.trace.mean_interarrival_ms = 2.0 * kMsPerSecond;
  options.trace.duration_compression = 8000.0;
  options.trace.seed = seed + 1;
  return options;
}

ExperimentResult RunOnce(const std::string& policy_name, const ExperimentOptions& options) {
  PerfOracle profiling_oracle(options.oracle_seed);
  auto policy = MakePolicy(policy_name, profiling_oracle);
  ClusterExperiment experiment(options, policy.get());
  return experiment.Run();
}

// Exact equality is intentional everywhere below: determinism means the two
// runs executed the same floating-point operations in the same order, so
// results must match to the last bit, not merely within a tolerance.
void ExpectIdenticalResults(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.avg_sm_util, b.avg_sm_util);
  EXPECT_EQ(a.avg_mem_util, b.avg_mem_util);
  EXPECT_EQ(a.swap_events, b.swap_events);
  EXPECT_EQ(a.swap_total_mb, b.swap_total_mb);

  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    const TaskRecord& ta = a.tasks[i];
    const TaskRecord& tb = b.tasks[i];
    EXPECT_EQ(ta.task_id, tb.task_id) << "task " << i;
    EXPECT_EQ(ta.type_index, tb.type_index) << "task " << i;
    EXPECT_EQ(ta.arrival_ms, tb.arrival_ms) << "task " << i;
    EXPECT_EQ(ta.start_ms, tb.start_ms) << "task " << i;
    EXPECT_EQ(ta.completion_ms, tb.completion_ms) << "task " << i;
    EXPECT_EQ(ta.device_id, tb.device_id) << "task " << i;
    EXPECT_EQ(ta.failures, tb.failures) << "task " << i;
    EXPECT_EQ(ta.work_lost_ms, tb.work_lost_ms) << "task " << i;
  }

  ASSERT_EQ(a.per_service.size(), b.per_service.size());
  for (const auto& [name, sa] : a.per_service) {
    auto it = b.per_service.find(name);
    ASSERT_NE(it, b.per_service.end()) << name;
    const ServiceMetrics& sb = it->second;
    EXPECT_EQ(sa.windows_total, sb.windows_total) << name;
    EXPECT_EQ(sa.windows_violated, sb.windows_violated) << name;
    EXPECT_EQ(sa.windows_violated_failure, sb.windows_violated_failure) << name;
    EXPECT_EQ(sa.mean_latency_ms, sb.mean_latency_ms) << name;
    EXPECT_EQ(sa.served_requests, sb.served_requests) << name;
  }

  EXPECT_EQ(a.faults.faults_injected, b.faults.faults_injected);
  EXPECT_EQ(a.faults.device_failures, b.faults.device_failures);
  EXPECT_EQ(a.faults.total_downtime_ms, b.faults.total_downtime_ms);
  EXPECT_EQ(a.faults.work_lost_ms, b.faults.work_lost_ms);
  EXPECT_EQ(a.faults.failed_requests, b.faults.failed_requests);
  EXPECT_EQ(a.faults.rerouted_requests, b.faults.rerouted_requests);
  EXPECT_EQ(a.faults.goodput_rps, b.faults.goodput_rps);

  EXPECT_EQ(a.ctrl.events_injected, b.ctrl.events_injected);
  EXPECT_EQ(a.ctrl.scheduler_crashes, b.ctrl.scheduler_crashes);
  EXPECT_EQ(a.ctrl.scheduler_recoveries, b.ctrl.scheduler_recoveries);
  EXPECT_EQ(a.ctrl.retries, b.ctrl.retries);
  EXPECT_EQ(a.ctrl.stale_reads, b.ctrl.stale_reads);
  EXPECT_EQ(a.ctrl.unavailable_reads, b.ctrl.unavailable_reads);
  EXPECT_EQ(a.ctrl.watch_delivered, b.ctrl.watch_delivered);
  EXPECT_EQ(a.ctrl.watch_dropped, b.ctrl.watch_dropped);
  EXPECT_EQ(a.ctrl.watch_lost_partition, b.ctrl.watch_lost_partition);
  EXPECT_EQ(a.ctrl.configs_published, b.ctrl.configs_published);
  EXPECT_EQ(a.ctrl.configs_applied, b.ctrl.configs_applied);
  EXPECT_EQ(a.ctrl.stale_scan_entries, b.ctrl.stale_scan_entries);
  EXPECT_EQ(a.ctrl.total_recovery_ms, b.ctrl.total_recovery_ms);
}

class SeedDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SeedDeterminismTest, SameSeedSameMetrics) {
  ExperimentOptions options = SmallOptions(/*seed=*/17);
  ExperimentResult a = RunOnce(GetParam(), options);
  ExperimentResult b = RunOnce(GetParam(), options);
  ExpectIdenticalResults(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SeedDeterminismTest,
                         ::testing::Values("Mudi", "GSLICE", "gpulets", "MuxFlow", "Random",
                                           "Optimal"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

// The src/perf layer must be observe-only: attaching a PerfCollector may not
// perturb a run in any bit. Same seed, with and without profiling, for every
// system — if a PerfRegion ever drew from an Rng, scheduled an event, or fed
// a measured wall time back into a decision, this would diverge.
class PerfObserveOnlyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PerfObserveOnlyTest, AttachedCollectorLeavesResultsBitIdentical) {
  ExperimentOptions options = SmallOptions(/*seed=*/31);
  ExperimentResult plain = RunOnce(GetParam(), options);

  perf::PerfCollector collector;
  options.perf = &collector;
  ExperimentResult profiled = RunOnce(GetParam(), options);

  ExpectIdenticalResults(plain, profiled);
  // And the collector genuinely observed the run — an accidentally-detached
  // collector would make the identity check vacuous.
  EXPECT_GT(collector.counters().at("sim.events_fired"), 0u);
  EXPECT_GT(collector.counters().at("exp.tasks_total"), 0u);
  EXPECT_EQ(collector.regions().at("exp.run").count(), 1u);
  EXPECT_GT(collector.regions().at("policy.select_device").count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, PerfObserveOnlyTest,
                         ::testing::Values("Mudi", "GSLICE", "gpulets", "MuxFlow", "Random",
                                           "Optimal"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

// The src/replay layer inherits the same observe-only contract: attaching a
// DecisionRecorder may not perturb a run in any bit, for every policy. The
// recorder streams every probe observation, feedback read, and decision to
// disk, but never draws from an Rng, schedules an event, or feeds anything
// back — so a recorded run must match an unrecorded same-seed run exactly.
class RecordObserveOnlyTest : public ::testing::TestWithParam<std::string> {};

replay::TraceHeader RecordHeader(const ExperimentOptions& options, const std::string& policy) {
  replay::TraceHeader header;
  header.policy = policy;
  header.seed = options.seed;
  header.oracle_seed = options.oracle_seed;
  header.num_devices = static_cast<uint32_t>(options.num_nodes * options.gpus_per_node);
  header.num_services = static_cast<uint32_t>(options.num_services);
  header.service_offset = static_cast<uint32_t>(options.service_offset);
  return header;
}

TEST_P(RecordObserveOnlyTest, AttachedRecorderLeavesResultsBitIdentical) {
  ExperimentOptions options = SmallOptions(/*seed=*/37);
  ExperimentResult plain = RunOnce(GetParam(), options);

  std::string path = ::testing::TempDir() + "record_" + GetParam() + ".trace";
  auto recorder = replay::DecisionRecorder::Create(path, RecordHeader(options, GetParam()));
  ASSERT_TRUE(recorder.ok()) << recorder.status().message();
  options.recorder = recorder->get();
  ExperimentResult recorded = RunOnce(GetParam(), options);
  ASSERT_TRUE((*recorder)->Close().ok());

  ExpectIdenticalResults(plain, recorded);
  // Non-vacuous: the recorder genuinely captured the run's decision stream.
  EXPECT_GT((*recorder)->decisions_recorded(), 0u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, RecordObserveOnlyTest,
                         ::testing::Values("Mudi", "GSLICE", "gpulets", "MuxFlow", "Random",
                                           "Optimal"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

// Fidelity replay: a same-seed run that serves every probe observation and
// interference prediction from a recorded trace (instead of the live oracle
// and modeler) must be bit-identical to the recorded run — raw IEEE-754 bits
// round-trip through the trace file. The hit assertions keep the identity
// non-vacuous: the replayed run must actually consume the trace, and a miss
// would mean it silently recomputed something live.
TEST(RecordReplayFidelityTest, ReplayedRunBitIdenticalToRecordedRun) {
  ExperimentOptions options = SmallOptions(/*seed=*/47);
  std::string path = ::testing::TempDir() + "fidelity_mudi.trace";
  auto recorder = replay::DecisionRecorder::Create(path, RecordHeader(options, "Mudi"));
  ASSERT_TRUE(recorder.ok()) << recorder.status().message();
  options.recorder = recorder->get();
  ExperimentResult live = RunOnce("Mudi", options);
  ASSERT_TRUE((*recorder)->Close().ok());
  options.recorder = nullptr;

  auto source = replay::ReplaySource::Load(path);
  ASSERT_TRUE(source.ok()) << source.status().message();
  options.replay = &*source;
  ExperimentResult replayed = RunOnce("Mudi", options);

  ExpectIdenticalResults(live, replayed);
  EXPECT_GT(source->hits(), 0u) << "replay never consulted the trace; identity is vacuous";
  EXPECT_EQ(source->misses(), 0u) << "a same-seed fidelity replay must hit on every probe";
  std::remove(path.c_str());
}

TEST(SeedDeterminismFaultTest, SameSeedSameMetricsUnderChaos) {
  ExperimentOptions options = SmallOptions(/*seed=*/23);
  options.fault_plan = StandardChaosPlan(/*num_devices=*/4, /*num_nodes=*/2);
  ExperimentResult a = RunOnce("Mudi", options);
  ExperimentResult b = RunOnce("Mudi", options);
  ExpectIdenticalResults(a, b);
  EXPECT_GT(a.faults.faults_injected, 0u);
}

// Combined chaos: device faults AND a degraded control plane in the same run,
// for every policy. This is the hardest reproducibility case — delayed watch
// deliveries, stale reads, retry backoff, and a scheduler crash all draw from
// forked Rng streams while devices fail and recover underneath — and it must
// still replay bit-identically from the seed alone.
class CombinedChaosDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CombinedChaosDeterminismTest, DeviceAndControlChaosReplaysBitIdentically) {
  ExperimentOptions options = SmallOptions(/*seed=*/29);
  options.fault_plan = StandardChaosPlan(/*num_devices=*/4, /*num_nodes=*/2);
  options.ctrl_fault_plan.DegradeWatches(/*delay_ms=*/150.0, /*jitter_ms=*/100.0,
                                         /*drop_prob=*/0.08);
  options.ctrl_fault_plan.StaleReads(/*prob=*/0.15, /*rev_lag=*/4);
  options.ctrl_fault_plan.Partition(12.0 * kMsPerSecond, 4.0 * kMsPerSecond);
  options.ctrl_fault_plan.LoseWatches(18.0 * kMsPerSecond);
  options.ctrl_fault_plan.CrashScheduler(24.0 * kMsPerSecond, 2.0 * kMsPerSecond);

  ExperimentResult a = RunOnce(GetParam(), options);
  ExperimentResult b = RunOnce(GetParam(), options);
  ExpectIdenticalResults(a, b);
  EXPECT_GT(a.faults.faults_injected, 0u);
  EXPECT_GT(a.ctrl.events_injected, 0u);

  // Self-identity passes even if the arming order of the two fault domains
  // changed, so the Mudi run is also pinned to the outcome of earlier
  // versions: FNV-1a 64 over the bits of the fields below, byte by byte
  // little-endian. A deliberate outcome change re-pins it.
  if (GetParam() == "Mudi") {
    uint64_t digest = 0xcbf29ce484222325ull;
    auto mix = [&digest](uint64_t bits) {
      for (int b = 0; b < 8; ++b) {
        digest = (digest ^ ((bits >> (8 * b)) & 0xff)) * 0x100000001b3ull;
      }
    };
    mix(std::bit_cast<uint64_t>(a.makespan_ms));
    for (const TaskRecord& task : a.tasks) {
      mix(std::bit_cast<uint64_t>(task.completion_ms));
    }
    mix(std::bit_cast<uint64_t>(a.faults.total_downtime_ms));
    mix(static_cast<uint64_t>(a.ctrl.configs_applied));
    mix(std::bit_cast<uint64_t>(a.ctrl.total_recovery_ms));
    EXPECT_EQ(digest, 0x34aee3e4c8681b20ull) << "combined-chaos digest 0x" << std::hex << digest;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, CombinedChaosDeterminismTest,
                         ::testing::Values("Mudi", "GSLICE", "gpulets", "MuxFlow", "Random",
                                           "Optimal"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

// Parallel fitting must be invisible in the results. FitPool shards the fit
// workload deterministically and reduces in a fixed order, so the number of
// worker threads may change wall time but never a single output bit. The
// cache is cleared before each run so every thread count actually executes
// the fits rather than replaying the first run's cached models.
TEST(FitThreadDeterminismTest, MudiBitIdenticalAcrossFitThreadCounts) {
  ExperimentOptions options = SmallOptions(/*seed=*/41);

  std::optional<std::string> saved = GetEnv("MUDI_FIT_THREADS");

  ExperimentResult results[3];
  const char* thread_counts[3] = {"1", "2", "8"};
  for (int i = 0; i < 3; ++i) {
    setenv("MUDI_FIT_THREADS", thread_counts[i], /*overwrite=*/1);
    FitCache::Global().Clear();
    results[i] = RunOnce("Mudi", options);
  }

  if (saved.has_value()) {
    setenv("MUDI_FIT_THREADS", saved->c_str(), /*overwrite=*/1);
  } else {
    unsetenv("MUDI_FIT_THREADS");
  }

  ExpectIdenticalResults(results[0], results[1]);
  ExpectIdenticalResults(results[0], results[2]);
}

// The fit cache is a pure memoization: replaying cached models must yield the
// same bits as recomputing them. A cold run (cache cleared) and a warm run
// (cache populated by the cold run) must agree exactly — and the warm run
// must actually hit the cache, or the identity check proves nothing.
TEST(FitCacheDeterminismTest, WarmCacheBitIdenticalToColdRun) {
  ExperimentOptions options = SmallOptions(/*seed=*/43);

  FitCache::Global().Clear();
  ExperimentResult cold = RunOnce("Mudi", options);
  uint64_t hits_before = FitCache::Global().hits();

  ExperimentResult warm = RunOnce("Mudi", options);
  EXPECT_GT(FitCache::Global().hits(), hits_before)
      << "second run never hit the fit cache; warm-path identity is vacuous";

  ExpectIdenticalResults(cold, warm);
}

TEST(SeedDeterminismTestNegative, DifferentSeedsDiverge) {
  ExperimentResult a = RunOnce("Random", SmallOptions(/*seed=*/17));
  ExperimentResult b = RunOnce("Random", SmallOptions(/*seed=*/18));
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  bool any_difference = false;
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].arrival_ms != b.tasks[i].arrival_ms) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference) << "different trace seeds produced identical arrivals";
}

}  // namespace
}  // namespace mudi
