#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/cluster/kv_store.h"
#include "src/common/float_eq.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sim/simulator.h"
#include "src/cluster/monitor.h"
#include "src/cluster/policy.h"
#include "src/cluster/task_queue.h"

namespace mudi {
namespace {

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

TEST(KvStoreTest, PutGet) {
  KvStore kv;
  kv.Put("config/device0/batch", "64");
  auto v = kv.Get("config/device0/batch");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "64");
  EXPECT_FALSE(kv.Get("missing").has_value());
}

TEST(KvStoreTest, PutOverwrites) {
  KvStore kv;
  kv.Put("k", "1");
  kv.Put("k", "2");
  EXPECT_EQ(*kv.Get("k"), "2");
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStoreTest, RevisionIncreases) {
  KvStore kv;
  uint64_t r1 = kv.Put("a", "1");
  uint64_t r2 = kv.Put("b", "2");
  EXPECT_GT(r2, r1);
  EXPECT_EQ(kv.revision(), r2);
}

TEST(KvStoreTest, ListByPrefixSorted) {
  KvStore kv;
  kv.Put("dev/1/x", "a");
  kv.Put("dev/0/x", "b");
  kv.Put("other", "c");
  auto items = kv.List("dev/");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, "dev/0/x");
  EXPECT_EQ(items[1].first, "dev/1/x");
}

TEST(KvStoreTest, Delete) {
  KvStore kv;
  kv.Put("k", "v");
  EXPECT_TRUE(kv.Delete("k"));
  EXPECT_FALSE(kv.Delete("k"));
  EXPECT_FALSE(kv.Get("k").has_value());
}

TEST(KvStoreTest, GetRequiredReturnsValueOrNotFound) {
  KvStore kv;
  kv.Put("k", "v");
  auto hit = kv.GetRequired("k");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, "v");

  auto miss = kv.GetRequired("absent");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, DeletePrefixRemovesSubtreeOnly) {
  KvStore kv;
  kv.Put("/devices/3/status", "up");
  kv.Put("/devices/3/tasks/7", "resnet");
  kv.Put("/devices/3/tasks/9", "bert");
  kv.Put("/devices/30/tasks/1", "gpt");  // shares a textual prefix path only
  kv.Put("/devices/4/status", "up");

  EXPECT_EQ(kv.DeletePrefix("/devices/3/tasks/"), 2u);
  EXPECT_FALSE(kv.Get("/devices/3/tasks/7").has_value());
  EXPECT_FALSE(kv.Get("/devices/3/tasks/9").has_value());
  EXPECT_TRUE(kv.Get("/devices/3/status").has_value());
  EXPECT_TRUE(kv.Get("/devices/30/tasks/1").has_value());
  EXPECT_TRUE(kv.Get("/devices/4/status").has_value());
  EXPECT_EQ(kv.DeletePrefix("/devices/3/tasks/"), 0u);
}

TEST(KvStoreTest, WatchFiresOnMatchingPrefix) {
  KvStore kv;
  std::vector<std::string> seen;
  kv.Watch("config/", [&](const std::string& key, const std::string& value, uint64_t) {
    seen.push_back(key + "=" + value);
  });
  kv.Put("config/a", "1");
  kv.Put("other/b", "2");
  kv.Put("config/c", "3");
  EXPECT_EQ(seen, (std::vector<std::string>{"config/a=1", "config/c=3"}));
}

TEST(KvStoreTest, WatchReceivesRevision) {
  KvStore kv;
  uint64_t seen_rev = 0;
  kv.Watch("", [&](const std::string&, const std::string&, uint64_t rev) { seen_rev = rev; });
  uint64_t rev = kv.Put("k", "v");
  EXPECT_EQ(seen_rev, rev);
}

TEST(KvStoreTest, UnwatchStopsDelivery) {
  KvStore kv;
  int count = 0;
  auto id = kv.Watch("", [&](const std::string&, const std::string&, uint64_t) { ++count; });
  kv.Put("a", "1");
  EXPECT_TRUE(kv.Unwatch(id));
  EXPECT_FALSE(kv.Unwatch(id));
  kv.Put("b", "2");
  EXPECT_EQ(count, 1);
}

TEST(KvStoreTest, WatcherMayAddWatchDuringCallback) {
  KvStore kv;
  int inner = 0;
  kv.Watch("a", [&](const std::string&, const std::string&, uint64_t) {
    kv.Watch("b", [&](const std::string&, const std::string&, uint64_t) { ++inner; });
  });
  kv.Put("a", "1");  // installs watcher on "b"
  kv.Put("b", "2");
  EXPECT_EQ(inner, 1);
}

// ---------------------------------------------------------------------------
// KvStore: delete events and degraded mode (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST(KvStoreTest, DeleteIsSilentByDefault) {
  KvStore kv;
  kv.Put("k", "v");
  uint64_t rev_before = kv.revision();
  int events = 0;
  kv.Watch("", [&](const std::string&, const std::string&, uint64_t) { ++events; });
  EXPECT_TRUE(kv.Delete("k"));
  EXPECT_EQ(events, 0);
  EXPECT_EQ(kv.revision(), rev_before);
}

TEST(KvStoreTest, DeleteEventsDeliverTombstones) {
  KvStore kv;
  kv.EnableDeleteEvents(true);
  kv.Put("/devices/3/tasks/7", "resnet");
  kv.Put("/devices/3/tasks/9", "bert");
  uint64_t rev_before = kv.revision();

  std::vector<std::pair<std::string, std::string>> events;
  std::vector<uint64_t> revs;
  kv.Watch("/devices/3/", [&](const std::string& key, const std::string& value, uint64_t rev) {
    events.emplace_back(key, value);
    revs.push_back(rev);
  });

  EXPECT_TRUE(kv.Delete("/devices/3/tasks/7"));
  EXPECT_EQ(kv.DeletePrefix("/devices/3/"), 1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<std::string, std::string>{"/devices/3/tasks/7", ""}));
  EXPECT_EQ(events[1], (std::pair<std::string, std::string>{"/devices/3/tasks/9", ""}));
  // Tombstones bump the revision like writes, so watch dedup guards keyed on
  // revision keep working across deletes.
  EXPECT_GT(revs[0], rev_before);
  EXPECT_GT(revs[1], revs[0]);
  // Deleting an absent key stays event-free.
  EXPECT_FALSE(kv.Delete("/devices/3/tasks/7"));
  EXPECT_EQ(events.size(), 2u);
}

TEST(KvStoreTest, DegradedModeDelaysWatchDelivery) {
  Simulator sim;
  KvStore kv;
  KvDegradeOptions degrade;
  degrade.watch_delay_ms = 100.0;
  kv.EnableDegradedMode(&sim, degrade, Rng(7));

  std::vector<std::string> seen;
  kv.Watch("cfg/", [&](const std::string& key, const std::string&, uint64_t) {
    seen.push_back(key);
  });
  kv.Put("cfg/a", "1");
  EXPECT_TRUE(seen.empty());  // no longer synchronous
  sim.RunUntil(99.0);
  EXPECT_TRUE(seen.empty());
  sim.RunUntilIdle();
  EXPECT_EQ(seen, (std::vector<std::string>{"cfg/a"}));
  EXPECT_EQ(kv.watch_delivered(), 1u);
}

TEST(KvStoreTest, DegradedModeDropsDeliveries) {
  Simulator sim;
  KvStore kv;
  KvDegradeOptions degrade;
  degrade.watch_delay_ms = 10.0;
  degrade.watch_drop_prob = 1.0;
  kv.EnableDegradedMode(&sim, degrade, Rng(7));

  int events = 0;
  kv.Watch("", [&](const std::string&, const std::string&, uint64_t) { ++events; });
  kv.Put("a", "1");
  kv.Put("b", "2");
  sim.RunUntilIdle();
  EXPECT_EQ(events, 0);
  EXPECT_EQ(kv.watch_dropped(), 2u);
  // The omniscient view is never degraded.
  EXPECT_EQ(*kv.Get("a"), "1");
}

TEST(KvStoreTest, PartitionLosesWatchesAndFailsCtrlReads) {
  Simulator sim;
  KvStore kv;
  kv.EnableDegradedMode(&sim, KvDegradeOptions{}, Rng(7));
  kv.Put("k", "v");

  int events = 0;
  kv.Watch("", [&](const std::string&, const std::string&, uint64_t) { ++events; });
  kv.SetPartitioned(true);
  kv.Put("k", "v2");
  sim.RunUntilIdle();
  EXPECT_EQ(events, 0);  // lost, not buffered
  EXPECT_EQ(kv.watch_lost_partition(), 1u);

  auto read = kv.CtrlGet("k");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(kv.CtrlList("").ok());
  EXPECT_EQ(kv.unavailable_reads(), 2u);
  // The omniscient view still works mid-partition.
  EXPECT_EQ(*kv.Get("k"), "v2");

  kv.SetPartitioned(false);
  ASSERT_TRUE(kv.CtrlGet("k").ok());
  kv.Put("k", "v3");
  sim.RunUntilIdle();
  EXPECT_EQ(events, 1);  // delivery resumes after the partition heals
}

TEST(KvStoreTest, StaleReadsServeLaggedRevision) {
  Simulator sim;
  KvStore kv;
  KvDegradeOptions degrade;
  degrade.stale_read_prob = 1.0;  // every control read is stale
  degrade.stale_rev_lag = 1;     // ... by exactly one revision
  kv.EnableDegradedMode(&sim, degrade, Rng(7));

  kv.Put("k", "old");
  uint64_t old_rev = kv.revision();
  kv.Put("k", "new");

  uint64_t read_rev = 0;
  auto stale = kv.CtrlGet("k", &read_rev);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, "old");
  EXPECT_EQ(read_rev, old_rev);
  EXPECT_GE(kv.stale_reads(), 1u);
  // The omniscient view is current.
  EXPECT_EQ(*kv.Get("k"), "new");
}

TEST(KvStoreTest, StaleReadMissesKeyNewerThanSnapshot) {
  Simulator sim;
  KvStore kv;
  KvDegradeOptions degrade;
  degrade.stale_read_prob = 1.0;
  degrade.stale_rev_lag = 1;
  kv.EnableDegradedMode(&sim, degrade, Rng(7));

  kv.Put("a", "1");
  kv.Put("fresh", "v");  // only exists at the newest revision

  auto read = kv.CtrlGet("fresh");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, HealthyCtrlReadsMatchOmniscientView) {
  KvStore kv;
  kv.Put("k", "v");
  uint64_t read_rev = 0;
  auto got = kv.CtrlGet("k", &read_rev);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  EXPECT_EQ(read_rev, kv.revision());
  auto listed = kv.CtrlList("");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), kv.List("").size());
  EXPECT_EQ(kv.stale_reads(), 0u);
  EXPECT_EQ(kv.unavailable_reads(), 0u);
}

// ---------------------------------------------------------------------------
// TaskQueue
// ---------------------------------------------------------------------------

PendingTask MakeTask(int id, size_t type, double work, int priority = 0) {
  PendingTask t;
  t.arrival.task_id = id;
  t.arrival.type_index = type;
  t.arrival.work_full_gpu_ms = work;
  t.priority = priority;
  return t;
}

TEST(TaskQueueTest, FcfsOrder) {
  TaskQueue q(QueuePolicy::kFcfs);
  q.Push(MakeTask(1, 0, 100.0));
  q.Push(MakeTask(2, 1, 1.0));
  EXPECT_EQ(q.Pop()->arrival.task_id, 1);
  EXPECT_EQ(q.Pop()->arrival.task_id, 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(TaskQueueTest, SjfPicksSmallestWork) {
  TaskQueue q(QueuePolicy::kShortestJobFirst);
  q.Push(MakeTask(1, 0, 100.0));
  q.Push(MakeTask(2, 0, 5.0));
  q.Push(MakeTask(3, 0, 50.0));
  EXPECT_EQ(q.Pop()->arrival.task_id, 2);
  EXPECT_EQ(q.Pop()->arrival.task_id, 3);
  EXPECT_EQ(q.Pop()->arrival.task_id, 1);
}

TEST(TaskQueueTest, PriorityPicksHighest) {
  TaskQueue q(QueuePolicy::kPriority);
  q.Push(MakeTask(1, 0, 1.0, 1));
  q.Push(MakeTask(2, 0, 1.0, 9));
  q.Push(MakeTask(3, 0, 1.0, 9));  // tie: FCFS among equals
  EXPECT_EQ(q.Pop()->arrival.task_id, 2);
  EXPECT_EQ(q.Pop()->arrival.task_id, 3);
  EXPECT_EQ(q.Pop()->arrival.task_id, 1);
}

TEST(TaskQueueTest, FairShareRoundRobinsTypes) {
  TaskQueue q(QueuePolicy::kFairShare);
  q.Push(MakeTask(1, 0, 1.0));
  q.Push(MakeTask(2, 0, 1.0));
  q.Push(MakeTask(3, 1, 1.0));
  // First pop: cursor starts at type 0.
  EXPECT_EQ(q.Pop()->arrival.task_id, 1);
  // Cursor advanced past type 0 → type 1 next.
  EXPECT_EQ(q.Pop()->arrival.task_id, 3);
  EXPECT_EQ(q.Pop()->arrival.task_id, 2);
}

TEST(TaskQueueTest, PeekDoesNotRemove) {
  TaskQueue q(QueuePolicy::kFcfs);
  q.Push(MakeTask(1, 0, 1.0));
  EXPECT_EQ(q.Peek()->arrival.task_id, 1);
  EXPECT_EQ(q.size(), 1u);
}

TEST(TaskQueueTest, PolicyNames) {
  EXPECT_STREQ(QueuePolicyName(QueuePolicy::kFcfs), "FCFS");
  EXPECT_STREQ(QueuePolicyName(QueuePolicy::kShortestJobFirst), "SJF");
  EXPECT_STREQ(QueuePolicyName(QueuePolicy::kPriority), "Priority");
  EXPECT_STREQ(QueuePolicyName(QueuePolicy::kFairShare), "FairShare");
}

// ---------------------------------------------------------------------------
// QpsMonitor
// ---------------------------------------------------------------------------

TEST(QpsMonitorTest, EstimatesRate) {
  QpsMonitor monitor;
  // 100 arrivals/second for 5 seconds.
  for (TimeMs t = 0.0; t < 5000.0; t += 10.0) {
    monitor.RecordArrivals(t, 1.0);
  }
  EXPECT_NEAR(monitor.CurrentQps(5000.0), 100.0, 5.0);
}

TEST(QpsMonitorTest, WindowEvictsOldArrivals) {
  QpsMonitor::Options options;
  options.window_ms = 1000.0;
  QpsMonitor monitor(options);
  monitor.RecordArrivals(0.0, 100.0);
  EXPECT_GT(monitor.CurrentQps(500.0), 0.0);
  EXPECT_DOUBLE_EQ(monitor.CurrentQps(5000.0), 0.0);
}

TEST(QpsMonitorTest, FirstObservationTriggers) {
  QpsMonitor monitor;
  monitor.RecordArrivals(0.0, 10.0);
  EXPECT_TRUE(monitor.QpsChangedBeyondThreshold(100.0));
  monitor.AckQpsChange(100.0);
  EXPECT_FALSE(monitor.QpsChangedBeyondThreshold(100.0));
}

TEST(QpsMonitorTest, FiftyPercentThreshold) {
  QpsMonitor::Options options;
  options.window_ms = 1000.0;
  options.change_threshold = 0.5;
  QpsMonitor monitor(options);
  for (TimeMs t = 0.0; t < 1000.0; t += 10.0) {
    monitor.RecordArrivals(t, 1.0);  // ~100 qps
  }
  monitor.AckQpsChange(1000.0);
  // Rate grows to ~140 qps: below the 50% threshold.
  for (TimeMs t = 1000.0; t < 2000.0; t += 10.0) {
    monitor.RecordArrivals(t, 1.4);
  }
  EXPECT_FALSE(monitor.QpsChangedBeyondThreshold(2000.0));
  // Rate triples: triggers.
  for (TimeMs t = 2000.0; t < 3000.0; t += 10.0) {
    monitor.RecordArrivals(t, 3.0);
  }
  EXPECT_TRUE(monitor.QpsChangedBeyondThreshold(3000.0));
}

TEST(QpsMonitorTest, P99LatencyWeighted) {
  // P99 = smallest latency whose cumulative weight reaches 99% of the total.
  QpsMonitor monitor;
  std::vector<WeightedSample> scratch;
  monitor.RecordLatency(10.0, 98.0);
  monitor.RecordLatency(100.0, 2.0);
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 100.0);  // cum(10) = 98% < 99%
  monitor.RecordLatency(10.0, 1000.0);
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 10.0);  // cum(10) = 99.8%
}

TEST(QpsMonitorTest, P99EmptyIsZero) {
  QpsMonitor monitor;
  std::vector<WeightedSample> scratch;
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 0.0);
  EXPECT_FALSE(monitor.has_latency_samples());
}

TEST(QpsMonitorTest, LatencyWindowBounded) {
  QpsMonitor::Options options;
  options.latency_window = 4;
  QpsMonitor monitor(options);
  for (int i = 0; i < 100; ++i) {
    monitor.RecordLatency(1000.0, 1.0);
  }
  for (int i = 0; i < 4; ++i) {
    monitor.RecordLatency(1.0, 1.0);
  }
  // Old high latencies fully evicted.
  std::vector<WeightedSample> scratch;
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 1.0);
}

TEST(QpsMonitorTest, LatencyRingWrapsAtTheWindow) {
  QpsMonitor::Options options;
  options.latency_window = 4;
  QpsMonitor monitor(options);
  std::vector<WeightedSample> scratch;
  // 1..4 fill the window; 5 and 6 overwrite 1 and 2.
  for (int i = 1; i <= 6; ++i) {
    monitor.RecordLatency(static_cast<double>(i), 1.0);
  }
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 6.0);
  ASSERT_EQ(scratch.size(), 4u);  // the window stays at latency_window
  EXPECT_DOUBLE_EQ(scratch.front().first, 3.0);
  EXPECT_DOUBLE_EQ(scratch.back().first, 6.0);
  // One heavy sample dominates until four newer ones push it out.
  monitor.RecordLatency(0.5, 1000.0);
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 0.5);
  for (int i = 0; i < 3; ++i) {
    monitor.RecordLatency(2.0, 1.0);
  }
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 0.5);
  monitor.RecordLatency(2.0, 1.0);
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 2.0);
}

TEST(QpsMonitorTest, ArrivalsRingGrowsAndEvictsInOrder) {
  QpsMonitor::Options options;
  options.window_ms = 100.0;
  QpsMonitor monitor(options);
  // Sparse phase: cohorts of 1..12 requests 10 ms apart (t = 0..110). The
  // one at t = 0 has left the window, so the ring's oldest slot moved on.
  for (int i = 0; i < 12; ++i) {
    monitor.RecordArrivals(10.0 * i, static_cast<double>(i + 1));
  }
  // Dense phase: 60 cohorts of 100, 0.5 ms apart (t = 110.5..140). The ring
  // wraps and then grows past its first capacity twice, with its oldest
  // cohort away from slot 0.
  for (int j = 1; j <= 60; ++j) {
    monitor.RecordArrivals(110.0 + 0.5 * j, 100.0);
  }
  // At t = 140 the cohorts before t = 40 (1..4 requests) are gone.
  EXPECT_DOUBLE_EQ(monitor.CurrentQps(140.0), (68.0 + 6000.0) / 100.0 * kMsPerSecond);
  // At t = 215.2 the sparse phase and the dense cohorts up to t = 115 are gone.
  EXPECT_DOUBLE_EQ(monitor.CurrentQps(215.2), 5000.0 / 100.0 * kMsPerSecond);
  EXPECT_DOUBLE_EQ(monitor.CurrentQps(1000.0), 0.0);
}

TEST(QpsMonitorTest, RingsAreReusedAfterFeedbackRestore) {
  QpsMonitor::Options options;
  options.window_ms = 100.0;
  options.latency_window = 8;
  QpsMonitor monitor(options);
  std::vector<WeightedSample> scratch;
  for (int i = 0; i < 50; ++i) {
    monitor.RecordArrivals(static_cast<double>(i), 10.0);
    monitor.RecordLatency(1000.0, 1.0);
  }
  monitor.SetFeedbackLost(true, 50.0);
  monitor.SetFeedbackLost(false, 60.0);
  EXPECT_FALSE(monitor.has_latency_samples());
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 0.0);
  // Fresh samples only: nothing recorded before the outage survives.
  for (int i = 0; i < 3; ++i) {
    monitor.RecordArrivals(170.0 + i, 1.0);
    monitor.RecordLatency(5.0, 1.0);
  }
  EXPECT_DOUBLE_EQ(monitor.CurrentQps(172.0), 3.0 / 100.0 * kMsPerSecond);
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 5.0);
  EXPECT_EQ(scratch.size(), 3u);
  // The latency ring refills to the window and wraps again.
  for (int i = 0; i < 20; ++i) {
    monitor.RecordLatency(7.0, 1.0);
  }
  EXPECT_DOUBLE_EQ(monitor.P99LatencyMs(&scratch), 7.0);
  EXPECT_EQ(scratch.size(), 8u);
}

// Reference monitor: both windows as deques and a copy-and-sort P99. The
// rings, and the P99 threshold test, must reproduce it bit for bit.
class ReferenceMonitor {
 public:
  explicit ReferenceMonitor(QpsMonitor::Options options) : options_(options) {}

  void RecordArrivals(TimeMs now, double count) {
    arrivals_.emplace_back(now, count);
    arrivals_in_window_ += count;
    EvictOld(now);
  }
  void RecordLatency(double latency_ms, double weight) {
    if (ExactEq(weight, 0.0)) {
      return;
    }
    if (latencies_.size() == options_.latency_window) {
      latencies_.pop_front();
    }
    latencies_.emplace_back(latency_ms, weight);
  }
  double CurrentQps(TimeMs now) {
    EvictOld(now);
    return arrivals_in_window_ / options_.window_ms * kMsPerSecond;
  }
  double P99LatencyMs() const {
    if (latencies_.empty()) {
      return 0.0;
    }
    std::vector<std::pair<double, double>> sorted(latencies_.begin(), latencies_.end());
    std::sort(sorted.begin(), sorted.end());
    double total = 0.0;
    for (const auto& [lat, w] : sorted) {
      total += w;
    }
    double target = 0.99 * total;
    double cum = 0.0;
    for (const auto& [lat, w] : sorted) {
      cum += w;
      if (cum >= target) {
        return lat;
      }
    }
    return sorted.back().first;
  }

 private:
  void EvictOld(TimeMs now) {
    while (!arrivals_.empty() && arrivals_.front().first < now - options_.window_ms) {
      arrivals_in_window_ -= arrivals_.front().second;
      arrivals_.pop_front();
    }
    if (arrivals_.empty()) {
      arrivals_in_window_ = 0.0;
    }
  }

  QpsMonitor::Options options_;
  std::deque<std::pair<TimeMs, double>> arrivals_;
  double arrivals_in_window_ = 0.0;
  std::deque<std::pair<double, double>> latencies_;
};

TEST(QpsMonitorTest, RingsMatchTheDequeReferenceExactly) {
  QpsMonitor::Options options;
  options.window_ms = 250.0;
  options.latency_window = 37;  // not a power of two: wraps off-grid
  QpsMonitor monitor(options);
  ReferenceMonitor reference(options);
  std::vector<WeightedSample> scratch;
  Rng rng(20251017);
  TimeMs now = 0.0;
  size_t reads = 0;
  for (int i = 0; i < 20000; ++i) {
    // Bursty clock: mostly small steps, sometimes a gap that empties the
    // arrivals window.
    now += rng.Uniform() < 0.01 ? rng.Uniform(200.0, 600.0) : rng.Uniform(0.0, 3.0);
    double pick = rng.Uniform();
    if (pick < 0.4) {
      double count = static_cast<double>(rng.Poisson(4.0));
      monitor.RecordArrivals(now, count);
      reference.RecordArrivals(now, count);
    } else if (pick < 0.8) {
      double latency = std::round(rng.Uniform(1.0, 80.0) * 4.0) / 4.0;  // forces ties
      double weight = rng.Uniform() < 0.05 ? 0.0 : rng.Uniform(0.5, 20.0);
      monitor.RecordLatency(latency, weight);
      reference.RecordLatency(latency, weight);
    } else if (pick < 0.9) {
      ASSERT_TRUE(ExactEq(monitor.CurrentQps(now), reference.CurrentQps(now))) << "op " << i;
      ++reads;
    } else if (pick < 0.95) {
      ASSERT_TRUE(ExactEq(monitor.P99LatencyMs(&scratch), reference.P99LatencyMs()))
          << "op " << i;
      ++reads;
    } else {
      // Thresholds around the window's range, on the grid the latencies use
      // (so equality with a sample is exercised too).
      double threshold = std::round(rng.Uniform(0.0, 90.0) * 4.0) / 4.0;
      ASSERT_EQ(monitor.P99ExceedsMs(threshold, &scratch),
                reference.P99LatencyMs() > threshold)
          << "op " << i;
      ++reads;
    }
  }
  EXPECT_GT(reads, 3000u);
}

// ---------------------------------------------------------------------------
// ClusterState / planning budget
// ---------------------------------------------------------------------------

TEST(QpsMonitorTest, FeedbackLossFreezesQps) {
  QpsMonitor monitor;
  for (TimeMs t = 0.0; t < 5000.0; t += 10.0) {
    monitor.RecordArrivals(t, 1.0);  // ~100 QPS
  }
  double live = monitor.CurrentQps(5000.0);
  monitor.SetFeedbackLost(true, 5000.0);
  EXPECT_TRUE(monitor.feedback_lost());

  // Samples during the outage are dropped; the estimate stays frozen.
  monitor.RecordArrivals(6000.0, 500.0);
  monitor.RecordLatency(999.0, 10.0);
  EXPECT_DOUBLE_EQ(monitor.CurrentQps(7000.0), live);
  EXPECT_FALSE(monitor.QpsChangedBeyondThreshold(7000.0));
  ASSERT_TRUE(monitor.StalenessMs(7000.0).has_value());
  EXPECT_DOUBLE_EQ(*monitor.StalenessMs(7000.0), 2000.0);
}

TEST(QpsMonitorTest, FeedbackRestoreWarmsUpForOneWindow) {
  QpsMonitor::Options options;
  options.window_ms = 1000.0;
  QpsMonitor monitor(options);
  for (TimeMs t = 0.0; t < 1000.0; t += 10.0) {
    monitor.RecordArrivals(t, 1.0);
  }
  double frozen = monitor.CurrentQps(1000.0);
  monitor.SetFeedbackLost(true, 1000.0);
  monitor.SetFeedbackLost(false, 3000.0);
  EXPECT_FALSE(monitor.feedback_lost());

  // Inside the warm-up window the frozen value still serves (and is stale).
  monitor.RecordArrivals(3100.0, 200.0);
  EXPECT_DOUBLE_EQ(monitor.CurrentQps(3500.0), frozen);
  EXPECT_TRUE(monitor.StalenessMs(3500.0).has_value());

  // After one full window the estimate is live again, fed by new samples.
  for (TimeMs t = 4000.0; t < 5000.0; t += 10.0) {
    monitor.RecordArrivals(t, 2.0);
  }
  EXPECT_FALSE(monitor.StalenessMs(5000.0).has_value());
  EXPECT_NEAR(monitor.CurrentQps(5000.0), 200.0, 20.0);
}

TEST(ClusterStateTest, Topology) {
  ClusterState cluster(3, NodeSpec{4, 40960.0});
  EXPECT_EQ(cluster.num_devices(), 12u);
  EXPECT_EQ(cluster.NodeOf(0), 0);
  EXPECT_EQ(cluster.NodeOf(3), 0);
  EXPECT_EQ(cluster.NodeOf(4), 1);
  EXPECT_EQ(cluster.NodeOf(11), 2);
  EXPECT_EQ(cluster.device(7).id(), 7);
}

TEST(PlanningBudgetTest, LowSloUsesSlo) {
  // GPT2: SLO 100 < cap → budget = 100·b/W.
  EXPECT_DOUBLE_EQ(PlanningLatencyBudgetMs(64, 200.0, 100.0), 100.0 * 64 / 200.0);
}

TEST(PlanningBudgetTest, HighSloCappedForStability) {
  // YOLOS: SLO 2200 → stability cap applies.
  EXPECT_DOUBLE_EQ(PlanningLatencyBudgetMs(64, 200.0, 2200.0), kStabilityCapMs * 64 / 200.0);
}

}  // namespace
}  // namespace mudi
