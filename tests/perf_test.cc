// Tests for the src/perf self-profiling subsystem: LatencyStat aggregates
// and deterministic decimation, PerfCollector/PerfRegion semantics, the
// memory/allocation probes, PerfReport JSON round-trips through the bundled
// JSON checker, the BENCH_throughput.json schema validator, and the
// MUDI_BENCH_SCALE parser. This binary links mudi_perf_alloc_hook, so the
// allocation probe runs in its hooked configuration here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/monitor.h"
#include "src/common/stats.h"
#include "src/perf/json_check.h"
#include "src/perf/mem_probe.h"
#include "src/perf/perf_collector.h"
#include "src/perf/perf_report.h"
#include "src/perf/perf_stats.h"
#include "src/sim/simulator.h"

namespace mudi {
namespace perf {
namespace {

// ---------------------------------------------------------------------------
// LatencyStat

TEST(LatencyStatTest, ExactAggregates) {
  LatencyStat stat;
  stat.Record(3.0);
  stat.Record(1.0);
  stat.Record(2.0);
  EXPECT_EQ(stat.count(), 3u);
  EXPECT_DOUBLE_EQ(stat.total_ms(), 6.0);
  EXPECT_DOUBLE_EQ(stat.mean_ms(), 2.0);
  EXPECT_DOUBLE_EQ(stat.min_ms(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max_ms(), 3.0);
}

TEST(LatencyStatTest, EmptyStatIsAllZero) {
  LatencyStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean_ms(), 0.0);
  EXPECT_DOUBLE_EQ(stat.min_ms(), 0.0);
  EXPECT_DOUBLE_EQ(stat.max_ms(), 0.0);
  EXPECT_DOUBLE_EQ(stat.Quantile(0.5), 0.0);
}

TEST(LatencyStatTest, QuantilesExactBelowCap) {
  LatencyStat stat;
  for (int i = 1; i <= 100; ++i) {
    stat.Record(static_cast<double>(i));
  }
  EXPECT_NEAR(stat.Quantile(0.50), 50.5, 1.0);
  EXPECT_NEAR(stat.Quantile(0.95), 95.0, 1.0);
  EXPECT_DOUBLE_EQ(stat.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(stat.Quantile(0.0), 1.0);
}

TEST(LatencyStatTest, DecimationKeepsAggregatesExactAndBoundsMemory) {
  LatencyStat stat(/*max_samples=*/8);
  for (int i = 1; i <= 1000; ++i) {
    stat.Record(static_cast<double>(i));
  }
  // Aggregates stay exact no matter how hard the buffer decimates.
  EXPECT_EQ(stat.count(), 1000u);
  EXPECT_DOUBLE_EQ(stat.total_ms(), 500500.0);
  EXPECT_DOUBLE_EQ(stat.min_ms(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max_ms(), 1000.0);
  // Buffer bounded; stride grew past 1; quantile is a coarse but sane
  // estimate over the evenly-strided survivors.
  EXPECT_LE(stat.samples().size(), 8u);
  EXPECT_GT(stat.stride(), 1u);
  double p50 = stat.Quantile(0.5);
  EXPECT_GT(p50, 100.0);
  EXPECT_LT(p50, 900.0);
}

TEST(LatencyStatTest, DecimationIsDeterministic) {
  LatencyStat a(/*max_samples=*/16);
  LatencyStat b(/*max_samples=*/16);
  for (int i = 0; i < 5000; ++i) {
    double v = static_cast<double>((i * 37) % 101);
    a.Record(v);
    b.Record(v);
  }
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_EQ(a.stride(), b.stride());
  EXPECT_DOUBLE_EQ(a.Quantile(0.95), b.Quantile(0.95));
}

TEST(LatencyStatTest, ResetClearsEverything) {
  LatencyStat stat(/*max_samples=*/4);
  for (int i = 0; i < 100; ++i) {
    stat.Record(1.0);
  }
  stat.Reset();
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_TRUE(stat.samples().empty());
  EXPECT_EQ(stat.stride(), 1u);
}

// ---------------------------------------------------------------------------
// PerfCollector / PerfRegion

TEST(PerfCollectorTest, SetCounterOverwrites) {
  PerfCollector collector;
  collector.SetCounter("a", 5);
  collector.SetCounter("a", 3);
  collector.SetCounter("b", 7);
  EXPECT_EQ(collector.counters().at("a"), 3u);
  EXPECT_EQ(collector.counters().at("b"), 7u);
}

TEST(PerfCollectorTest, RegionStatAddressesAreStable) {
  PerfCollector collector;
  LatencyStat* first = &collector.GetRegionStat("hot");
  for (int i = 0; i < 100; ++i) {
    collector.GetRegionStat("filler" + std::to_string(i));
  }
  EXPECT_EQ(first, &collector.GetRegionStat("hot"));
}

TEST(PerfRegionTest, RecordsOneSampleOnScopeExit) {
  PerfCollector collector;
  {
    PerfRegion region(&collector, "scope");
  }
  const LatencyStat& stat = collector.regions().at("scope");
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_GE(stat.max_ms(), 0.0);
}

TEST(PerfRegionTest, NullCollectorIsSafeNoOp) {
  PerfRegion region(static_cast<PerfCollector*>(nullptr), "nowhere");
  // Nothing to assert beyond "does not crash"; the disabled path must also
  // not read the clock, which the determinism suite pins end-to-end.
}

TEST(PerfCollectorTest, RegionStatSampleFeedsRegion) {
  PerfCollector collector;
  collector.GetRegionStat("manual").Record(2.5);
  EXPECT_EQ(collector.regions().at("manual").count(), 1u);
  EXPECT_DOUBLE_EQ(collector.regions().at("manual").total_ms(), 2.5);
}

// ---------------------------------------------------------------------------
// Memory / allocation probes

// Sanitizer runtimes own the global allocation operators (their interceptors
// resolve `operator new` before the linker ever needs the archive member in
// mudi_perf_alloc_hook), so in ASan/TSan trees the hook is inert by design:
// `hooked` stays false and the counting tests have nothing to measure. Skip
// them there; in a plain build an unhooked binary is a hard link error.
bool SanitizerOwnsAllocator() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST(MemProbeTest, MemoryUsageIsPopulatedOnLinux) {
  MemoryUsage usage = ReadMemoryUsage();
  EXPECT_GT(usage.current_rss_bytes, 0u);
  EXPECT_GE(usage.peak_rss_bytes, usage.current_rss_bytes);
}

TEST(MemProbeTest, AllocHookCountsAllocations) {
  AllocStats baseline = ReadAllocStats();
  if (!baseline.hooked && SanitizerOwnsAllocator()) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; alloc hook is inert";
  }
  ASSERT_TRUE(baseline.hooked) << "perf_test must link mudi_perf_alloc_hook";
  {
    std::vector<double> v(4096, 1.0);
    EXPECT_EQ(v.size(), 4096u);
  }
  AllocStats delta = AllocStatsSince(baseline);
  EXPECT_TRUE(delta.hooked);
  EXPECT_GE(delta.allocations, 1u);
  EXPECT_GE(delta.bytes_allocated, 4096u * sizeof(double));
}

// The simulator's steady-state schedule/fire path performs ZERO heap
// allocations per event (DESIGN.md §12): events live in recycled EventArena
// slots, queue items are 20-byte PODs in reused calendar buckets, and a
// callback capturing up to 48 bytes stays inline in SmallFunction. The
// warm-up drives the clock through one full calendar lap (so the bucket
// free lists hold capacity); after that the alloc hook must count nothing
// at all.
TEST(MemProbeTest, SimulatorSteadyStateIsAllocationFree) {
  Simulator sim;
  uint64_t sink = 0;
  uint64_t* out = &sink;
  auto drive = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      uint64_t a = static_cast<uint64_t>(i);
      uint64_t b = a * 3;
      uint64_t c = a ^ 0x5bd1e995u;
      // 32-byte capture: the size class of real simulator callbacks
      // (`this` plus a few ids/times); std::function would heap-allocate it.
      sim.ScheduleAfter(1.0, [out, a, b, c] { *out += a ^ b ^ c; });
      ASSERT_TRUE(sim.Step());
    }
  };
  drive(10000);  // one full lap of the default 8192-bucket calendar, plus slack
  AllocStats baseline = ReadAllocStats();
  if (!baseline.hooked && SanitizerOwnsAllocator()) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; alloc hook is inert";
  }
  ASSERT_TRUE(baseline.hooked) << "perf_test must link mudi_perf_alloc_hook";
  drive(1000);
  AllocStats delta = AllocStatsSince(baseline);
  EXPECT_EQ(delta.allocations, 0u);
  EXPECT_EQ(delta.deallocations, 0u);
  EXPECT_GT(sink, 0u);
}

// The monitor's per-sample path (DESIGN.md §16.1) performs ZERO heap
// allocations once its rings have grown: arrivals land in a power-of-two
// ring, latencies overwrite the oldest slot of a full window, and the P99
// read sorts into the caller's buffer. The warm-up runs past the latency
// window and past the arrivals ring's peak occupancy (a 5 s window of 1 ms
// cohorts holds 5 000 of them).
TEST(MemProbeTest, QpsMonitorSteadyStateIsAllocationFree) {
  QpsMonitor monitor;
  std::vector<WeightedSample> scratch;
  double sink = 0.0;
  auto drive = [&](int first, int rounds) {
    for (int i = first; i < first + rounds; ++i) {
      TimeMs now = static_cast<double>(i);
      monitor.RecordArrivals(now, 1.0 + i % 7);
      monitor.RecordLatency(10.0 + i % 13, 1.0 + i % 3);
      sink += monitor.CurrentQps(now);
      sink += monitor.P99LatencyMs(&scratch);
      sink += monitor.P99ExceedsMs(20.0, &scratch) ? 1.0 : 0.0;
    }
  };
  drive(0, 10000);
  AllocStats baseline = ReadAllocStats();
  if (!baseline.hooked && SanitizerOwnsAllocator()) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; alloc hook is inert";
  }
  ASSERT_TRUE(baseline.hooked) << "perf_test must link mudi_perf_alloc_hook";
  drive(10000, 10000);
  AllocStats delta = AllocStatsSince(baseline);
  EXPECT_EQ(delta.allocations, 0u);
  EXPECT_EQ(delta.deallocations, 0u);
  EXPECT_GT(sink, 0.0);
}

// Calendar storage follows the live items, not the residues the clock has
// crossed. 1 000 tickers that fire at the same instants on a 20 ms grid fill
// one bucket with 1 000 items per instant; over three laps of the 8192-bucket
// calendar they touch about 1 200 residues. Without the bucket free
// list each of those buckets would keep its ~1 024-item capacity.
TEST(MemProbeTest, CalendarRetainsCapacityOnlyForLiveItems) {
  Simulator sim;
  uint64_t fired = 0;
  uint64_t* out = &fired;
  for (int i = 0; i < 1000; ++i) {
    sim.SchedulePeriodic(0.0, 20.0, [out] { ++*out; });
  }
  size_t peak_live = 0;
  for (TimeMs t = 0.0; t <= 3.0 * 8192.0; t += 20.0) {
    sim.RunUntil(t);
    peak_live = std::max(peak_live, sim.pending_events());
  }
  ASSERT_GT(fired, 1000u * 1000u);
  EXPECT_EQ(peak_live, 1000u);
  EXPECT_LE(sim.calendar_retained_items(), 4 * peak_live);
}

// A burst bucket's storage waits on the free list for the next burst; it is
// not handed to whichever single timer starts a bucket next. Eight bursts of
// 1 000 same-instant events, each followed by one timer that stays pending
// through every later burst: were each timer's bucket given the most
// recently freed vector, every timer would park a ~1 024-item vector and
// each burst would grow a new one.
TEST(MemProbeTest, CalendarKeepsBurstStorageForTheNextBurst) {
  Simulator sim;
  size_t peak_live = 0;
  for (int burst = 0; burst < 8; ++burst) {
    TimeMs at = 10.0 * (burst + 1);
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(at, [] {});
    }
    peak_live = std::max(peak_live, sim.pending_events());
    sim.RunUntil(at);
    sim.ScheduleAt(1000.0 + burst, [] {});
  }
  EXPECT_EQ(sim.pending_events(), 8u);
  EXPECT_EQ(peak_live, 1007u);
  EXPECT_LE(sim.calendar_retained_items(), 4 * peak_live);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.events_processed(), 8u * 1000u + 8u);
}

// ---------------------------------------------------------------------------
// PerfReport

// `allocs` is the delta since the caller's pre-run snapshot, not the
// process-cumulative count.
TEST(PerfReportTest, AllocsCountOnlySinceTheSnapshot) {
  AllocStats before = ReadAllocStats();
  if (!before.hooked && SanitizerOwnsAllocator()) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; alloc hook is inert";
  }
  ASSERT_TRUE(before.hooked);
  ASSERT_GT(before.allocations, 0u);  // gtest itself has allocated by now
  {
    std::vector<double> v(1024, 1.0);
    EXPECT_EQ(v.size(), 1024u);
  }
  PerfCollector collector;
  PerfReport report = PerfReport::FromCollector(collector, before);
  EXPECT_TRUE(report.allocs.hooked);
  EXPECT_GE(report.allocs.allocations, 1u);
  EXPECT_LT(report.allocs.allocations, before.allocations);
  EXPECT_GE(report.allocs.bytes_allocated, 1024u * sizeof(double));
}

TEST(PerfReportTest, SnapshotsRegionsAndCounters) {
  PerfCollector collector;
  collector.GetRegionStat("region.x").Record(1.0);
  collector.GetRegionStat("region.x").Record(3.0);
  collector.SetCounter("counter.y", 42);
  PerfReport report = PerfReport::FromCollector(collector, ReadAllocStats());
  const RegionSummary* region = report.FindRegion("region.x");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->count, 2u);
  EXPECT_DOUBLE_EQ(region->total_ms, 4.0);
  EXPECT_DOUBLE_EQ(region->mean_ms, 2.0);
  EXPECT_EQ(report.CounterValue("counter.y"), 42u);
  EXPECT_EQ(report.CounterValue("missing"), 0u);
  EXPECT_EQ(report.FindRegion("missing"), nullptr);
}

TEST(PerfReportTest, JsonRoundTripsThroughTheChecker) {
  PerfCollector collector;
  collector.GetRegionStat("needs \"escaping\"\n").Record(1.5);
  collector.SetCounter("events", 9);
  PerfReport report = PerfReport::FromCollector(collector, ReadAllocStats());
  StatusOr<JsonValue> doc = ParseJson(report.ToJsonString());
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue* regions = doc->Find("regions");
  ASSERT_NE(regions, nullptr);
  const JsonValue* region = regions->Find("needs \"escaping\"\n");
  ASSERT_NE(region, nullptr);
  const JsonValue* count = region->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number(), 1.0);
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("events")->number(), 9.0);
}

TEST(PerfReportTest, BuildMetadataIsPopulated) {
  BuildMetadata meta = BuildMetadata::Current();
  EXPECT_EQ(meta.schema_version, "mudi.perf.v1");
  EXPECT_FALSE(meta.compiler.empty());
  EXPECT_TRUE(meta.build_type == "release" || meta.build_type == "debug");
}

// ---------------------------------------------------------------------------
// BENCH_throughput.json schema validator

std::string GoodBenchJson() {
  return R"({
    "schema": "mudi.bench_throughput.v1",
    "build": {"compiler": "test"},
    "records": [
      {"preset": "smoke", "policy": "Mudi",
       "wall_ms": 10.0, "sim_ms": 100.0,
       "events_fired": 5, "events_scheduled": 6, "events_cancelled": 1,
       "events_per_sec": 500.0, "sim_seconds_per_wall_second": 10.0,
       "decision_latency_ms": {"count": 3, "p50": 0.1, "p95": 0.2, "p99": 0.3, "max": 0.4}}
    ]
  })";
}

TEST(BenchSchemaTest, AcceptsWellFormedDocument) {
  StatusOr<JsonValue> doc = ParseJson(GoodBenchJson());
  ASSERT_TRUE(doc.ok());
  Status status = ValidateBenchThroughputJson(*doc);
  EXPECT_TRUE(status.ok()) << status.message();
}

void ExpectInvalid(const std::string& json, const std::string& needle) {
  StatusOr<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  Status status = ValidateBenchThroughputJson(*doc);
  ASSERT_FALSE(status.ok()) << "validator accepted: " << json;
  EXPECT_NE(status.message().find(needle), std::string::npos) << status.message();
}

TEST(BenchSchemaTest, RejectsWrongSchemaTag) {
  std::string json = GoodBenchJson();
  json.replace(json.find("mudi.bench_throughput.v1"), 24, "mudi.bench_throughput.v9");
  ExpectInvalid(json, "unknown schema");
}

TEST(BenchSchemaTest, RejectsEmptyRecords) {
  ExpectInvalid(R"({"schema": "mudi.bench_throughput.v1", "build": {},
                    "records": []})",
                "'records' is empty");
}

TEST(BenchSchemaTest, RejectsMissingDecisionLatency) {
  std::string json = GoodBenchJson();
  size_t pos = json.find("\"decision_latency_ms\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::strlen("\"decision_latency_ms\""), "\"renamed\"");
  ExpectInvalid(json, "decision_latency_ms");
}

TEST(BenchSchemaTest, RejectsNonNumericMetric) {
  std::string json = GoodBenchJson();
  size_t pos = json.find("\"wall_ms\": 10.0");
  json.replace(pos, std::strlen("\"wall_ms\": 10.0"), "\"wall_ms\": \"fast\"");
  ExpectInvalid(json, "wall_ms");
}

}  // namespace
}  // namespace perf

// ---------------------------------------------------------------------------
// MUDI_BENCH_SCALE parsing (bench/bench_util)

namespace {

TEST(ParseBenchScaleTest, AcceptsValidScales) {
  EXPECT_DOUBLE_EQ(*ParseBenchScale("1"), 1.0);
  EXPECT_DOUBLE_EQ(*ParseBenchScale("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseBenchScale("1e-3"), 0.001);
  EXPECT_DOUBLE_EQ(*ParseBenchScale("  0.25  "), 0.25);
}

TEST(ParseBenchScaleTest, RejectsNonNumeric) {
  EXPECT_FALSE(ParseBenchScale("fast").ok());
  EXPECT_FALSE(ParseBenchScale("0.5x").ok());
  EXPECT_FALSE(ParseBenchScale("").ok());
  EXPECT_FALSE(ParseBenchScale("   ").ok());
  EXPECT_FALSE(ParseBenchScale("nan").ok());
}

TEST(ParseBenchScaleTest, RejectsOutOfRange) {
  EXPECT_FALSE(ParseBenchScale("0").ok());
  EXPECT_FALSE(ParseBenchScale("-0.5").ok());
  EXPECT_FALSE(ParseBenchScale("1.0001").ok());
  EXPECT_FALSE(ParseBenchScale("2").ok());
}

TEST(ParseBenchScaleTest, ErrorsNameTheOffendingValue) {
  Status status = ParseBenchScale("2").status();
  EXPECT_NE(status.message().find("\"2\""), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("<= 1"), std::string::npos) << status.message();
}

}  // namespace
}  // namespace mudi
