#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/perf/perf_collector.h"
#include "src/sim/simulator.h"

namespace mudi {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0.0);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(20.0, [&] { order.push_back(2); });
  sim.ScheduleAt(10.0, [&] { order.push_back(1); });
  sim.ScheduleAt(30.0, [&] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30.0);
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(10.0, [&] {
    sim.ScheduleAfter(5.0, [&] { fired_at = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim;
  sim.ScheduleAt(100.0, [] {});
  sim.RunUntil(50.0);
  EXPECT_EQ(sim.Now(), 50.0);
  EXPECT_EQ(sim.events_processed(), 0u);
  sim.RunUntil(150.0);
  EXPECT_EQ(sim.Now(), 150.0);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorTest, RunUntilIncludesBoundary) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(50.0, [&] { fired = true; });
  sim.RunUntil(50.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto id = sim.ScheduleAt(10.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  auto id = sim.ScheduleAt(10.0, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(Simulator::kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(9999));
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
  Simulator sim;
  int count = 0;
  sim.SchedulePeriodic(10.0, 10.0, [&] { ++count; });
  sim.RunUntil(55.0);
  EXPECT_EQ(count, 5);  // 10, 20, 30, 40, 50
}

TEST(SimulatorTest, PeriodicCanCancelItself) {
  Simulator sim;
  int count = 0;
  Simulator::EventId id = Simulator::kInvalidEventId;
  id = sim.SchedulePeriodic(10.0, 10.0, [&] {
    if (++count == 3) {
      sim.Cancel(id);
    }
  });
  sim.RunUntil(kMsPerSecond);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, CancelPeriodicFromOutside) {
  Simulator sim;
  int count = 0;
  auto id = sim.SchedulePeriodic(10.0, 10.0, [&] { ++count; });
  sim.ScheduleAt(25.0, [&] { sim.Cancel(id); });
  sim.RunUntil(100.0);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsProcessedCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAt(static_cast<double>(i), [] {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  auto id = sim.ScheduleAt(10.0, [] {});
  sim.ScheduleAt(20.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, NestedSchedulingDuringRun) {
  Simulator sim;
  std::vector<double> times;
  sim.ScheduleAt(10.0, [&] {
    times.push_back(sim.Now());
    sim.ScheduleAt(10.0, [&] { times.push_back(sim.Now()); });  // same time, runs after
  });
  sim.RunUntilIdle();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 10.0);
  EXPECT_EQ(times[1], 10.0);
}

// Randomized sweep: arbitrary schedule/cancel interleavings never run an
// event out of order, never run a cancelled event, and fire periodic events
// the exact number of times their period implies.
TEST(SimulatorTest, RandomizedScheduleCancelInvariants) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    Simulator sim;
    double last_seen = -1.0;
    int fired = 0;
    std::vector<Simulator::EventId> ids;
    std::vector<Simulator::EventId> cancelled;
    for (int i = 0; i < 200; ++i) {
      double t = rng.Uniform(0.0, 1000.0);
      ids.push_back(sim.ScheduleAt(t, [&, t] {
        EXPECT_GE(t, last_seen);
        last_seen = t;
        ++fired;
      }));
    }
    // Cancel a random third of them before running.
    for (const auto& id : ids) {
      if (rng.Uniform() < 0.33) {
        if (sim.Cancel(id)) {
          cancelled.push_back(id);
        }
      }
    }
    sim.RunUntilIdle();
    // Exactly the non-cancelled events fired, in time order.
    EXPECT_EQ(fired, 200 - static_cast<int>(cancelled.size()));
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(SimulatorTest, RandomizedPeriodicCounts) {
  Rng rng(100);
  for (int trial = 0; trial < 10; ++trial) {
    Simulator sim;
    double period = rng.Uniform(1.0, 20.0);
    double start = rng.Uniform(0.0, 10.0);
    double horizon = rng.Uniform(100.0, 500.0);
    int count = 0;
    sim.SchedulePeriodic(start, period, [&] { ++count; });
    sim.RunUntil(horizon);
    int expected = horizon >= start
                       ? 1 + static_cast<int>(std::floor((horizon - start) / period))
                       : 0;
    // Floating-point boundary firings may differ by one.
    EXPECT_NEAR(count, expected, 1.0) << "period=" << period << " start=" << start;
  }
}

// Regression: cancelling an id whose one-shot event has ALREADY fired must
// be a no-op returning false — the stale-cancellation bookkeeping used to
// leak and corrupt pending_events() forever after.
TEST(SimulatorTest, CancelAlreadyFiredOneShotReturnsFalse) {
  Simulator sim;
  auto id = sim.ScheduleAt(1.0, [] {});
  sim.ScheduleAt(5.0, [] {});
  sim.RunUntil(2.0);
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A one-shot event cancelling itself from inside its own callback is a no-op
// (it is no longer live by the time the callback runs).
TEST(SimulatorTest, OneShotSelfCancelFromCallbackIsNoOp) {
  Simulator sim;
  Simulator::EventId id = Simulator::kInvalidEventId;
  bool cancel_result = true;
  id = sim.ScheduleAt(1.0, [&] { cancel_result = sim.Cancel(id); });
  sim.RunUntilIdle();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Cancelling a DIFFERENT pending event from inside a firing callback — even
// one scheduled at the same timestamp — prevents its execution.
TEST(SimulatorTest, CancelOtherSameTimeEventFromCallback) {
  Simulator sim;
  bool second_ran = false;
  Simulator::EventId second = Simulator::kInvalidEventId;
  sim.ScheduleAt(1.0, [&] { EXPECT_TRUE(sim.Cancel(second)); });
  second = sim.ScheduleAt(1.0, [&] { second_ran = true; });
  sim.RunUntilIdle();
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A periodic event is re-armed (same id) BEFORE its callback runs, so
// self-cancel from inside the callback stops the re-armed occurrence, and
// the id can then be reused by a fresh schedule.
TEST(SimulatorTest, PeriodicSelfCancelThenReschedule) {
  Simulator sim;
  int fired = 0;
  Simulator::EventId id = Simulator::kInvalidEventId;
  id = sim.SchedulePeriodic(1.0, 1.0, [&] {
    if (++fired == 3) {
      EXPECT_TRUE(sim.Cancel(id));
    }
  });
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending_events(), 0u);

  // Re-arming after self-cancel works and keeps pending_events consistent.
  int fired2 = 0;
  auto id2 = sim.SchedulePeriodic(sim.Now() + 1.0, 1.0, [&] { ++fired2; });
  sim.RunUntil(13.5);
  EXPECT_EQ(fired2, 3);
  EXPECT_EQ(sim.pending_events(), 1u);  // the re-armed periodic stays live
  EXPECT_TRUE(sim.Cancel(id2));
  EXPECT_EQ(sim.pending_events(), 0u);
}

// pending_events() stays exact under interleaved fire/cancel/re-schedule,
// including cancels of already-fired ids (which must not count).
TEST(SimulatorTest, PendingEventsConsistencyUnderChurn) {
  Simulator sim;
  Rng rng(7);
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.ScheduleAt(rng.Uniform(0.0, 100.0), [] {}));
  }
  sim.RunUntil(50.0);
  size_t live_before = sim.pending_events();
  size_t cancelled = 0;
  for (const auto& id : ids) {
    if (sim.Cancel(id)) {
      ++cancelled;  // only still-pending events may report true
    }
  }
  EXPECT_EQ(sim.pending_events(), live_before - cancelled);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// The end-of-run perf export must agree with the simulator's own counters
// and with what actually happened.
TEST(SimulatorTest, ExportPerfCountersSnapshotsDispatchTotals) {
  Simulator sim;
  sim.ScheduleAt(1.0, [] {});
  Simulator::EventId doomed = sim.ScheduleAt(2.0, [] {});
  sim.ScheduleAt(3.0, [] {});
  Simulator::EventId pending = sim.ScheduleAt(4.0, [] {});
  sim.Cancel(doomed);
  sim.RunUntil(3.5);

  perf::PerfCollector collector;
  sim.ExportPerfCounters(&collector);
  EXPECT_EQ(collector.counters().at("sim.events_scheduled"), 4u);
  EXPECT_EQ(collector.counters().at("sim.events_fired"), 2u);
  EXPECT_EQ(collector.counters().at("sim.events_cancelled"), 1u);
  EXPECT_EQ(collector.counters().at("sim.events_pending"), 1u);
  EXPECT_TRUE(sim.Cancel(pending));

  // A null collector is a no-op.
  sim.ExportPerfCounters(nullptr);
}

TEST(SimulatorTest, TimeConstants) {
  EXPECT_EQ(kMsPerSecond, 1000.0);
  EXPECT_EQ(kMsPerMinute, 60000.0);
  EXPECT_EQ(kMsPerHour, 3600000.0);
}

// ---------------------------------------------------------------------------
// Calendar-queue / event-arena edge cases. The calendar queue buckets events
// into 1 ms ticks inside a sliding window; everything observable must stay
// identical to the old binary-heap ordering — these tests pin the seams
// (bucket boundaries, window rotation, overflow heap, slot recycling).
// ---------------------------------------------------------------------------

// Scheduling order must break ties even when the tied events land exactly on
// a bucket boundary and their neighbors sit in adjacent buckets.
TEST(SimulatorTest, TieBreakAcrossBucketBoundaries) {
  Simulator sim;
  std::vector<int> order;
  const double boundary_ms = 4096.0;  // half-window boundary tick at default geometry
  sim.ScheduleAt(boundary_ms, [&] { order.push_back(1); });          // boundary bucket
  sim.ScheduleAt(boundary_ms - 0.25, [&] { order.push_back(0); });   // previous bucket
  sim.ScheduleAt(boundary_ms, [&] { order.push_back(2); });          // tie: after 1
  sim.ScheduleAt(boundary_ms + 0.25, [&] { order.push_back(3); });   // same bucket, later
  sim.ScheduleAt(boundary_ms + 1.0, [&] { order.push_back(4); });    // next bucket
  sim.ScheduleAt(boundary_ms, [&] { order.push_back(5); });          // tie: after 2
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 5, 3, 4}));
}

// Ties scheduled into the far-future overflow heap keep FIFO order through
// the heap and through migration back into calendar buckets.
TEST(SimulatorTest, TieBreakSurvivesOverflowMigration) {
  Simulator sim;
  std::vector<int> order;
  const double far = 50000.0;  // beyond the initial calendar window
  for (int i = 0; i < 8; ++i) {
    sim.ScheduleAt(far, [&order, i] { order.push_back(i); });
  }
  sim.ScheduleAt(1.0, [&] { order.push_back(-1); });
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i + 1], i);
  }
}

// A firing callback cancels a same-bucket later event, a different-bucket
// event, and a far-future overflow event; none of them may fire.
TEST(SimulatorTest, CancelFromInsideCallbackAcrossBuckets) {
  Simulator sim;
  int fired = 0;
  const double far_future_ms = 90 * kMsPerSecond;  // beyond the calendar window
  Simulator::EventId same_bucket = sim.ScheduleAt(10.5, [&] { ++fired; });
  Simulator::EventId other_bucket = sim.ScheduleAt(900.0, [&] { ++fired; });
  Simulator::EventId far_future = sim.ScheduleAt(far_future_ms, [&] { ++fired; });
  sim.ScheduleAt(10.25, [&] {
    EXPECT_TRUE(sim.Cancel(same_bucket));
    EXPECT_TRUE(sim.Cancel(other_bucket));
    EXPECT_TRUE(sim.Cancel(far_future));
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A periodic event whose period repeatedly carries it across half-window
// rotations (the calendar re-uses bucket indices mod the window size) must
// fire exactly on schedule the whole way.
TEST(SimulatorTest, PeriodicReArmAcrossWindowRotation) {
  Simulator sim;
  std::vector<double> times;
  const double period_ms = 2.5 * kMsPerSecond;
  const double horizon_ms = 50 * kMsPerSecond;  // ~12 half-window slides at default geometry
  Simulator::EventId id = sim.SchedulePeriodic(500.0, period_ms, [&] { times.push_back(sim.Now()); });
  sim.RunUntil(horizon_ms);
  EXPECT_TRUE(sim.Cancel(id));
  ASSERT_EQ(times.size(), 20u);  // 500, 3000, 5500, ..., 48000
  for (size_t i = 0; i < times.size(); ++i) {
    EXPECT_DOUBLE_EQ(times[i], 500.0 + period_ms * static_cast<double>(i));
  }
}

// Far-future events take the overflow-heap path and come back in order once
// the clock reaches them; events scheduled after the window has moved out
// there interleave correctly with them.
TEST(SimulatorTest, FarFutureOverflowOrdering) {
  Simulator sim;
  std::vector<int> order;
  const double far_a_ms = 1000 * kMsPerSecond;
  const double far_mid_ms = 1500 * kMsPerSecond;
  const double far_b_ms = 2000 * kMsPerSecond;
  sim.ScheduleAt(far_b_ms, [&] { order.push_back(2); });
  sim.ScheduleAt(far_a_ms, [&, far_mid_ms] {
    order.push_back(1);
    // Scheduled after the window has migrated out to far_a_ms: lands between
    // the two original far-future events.
    sim.ScheduleAt(far_mid_ms, [&] { order.push_back(10); });
  });
  sim.ScheduleAt(5.0, [&] { order.push_back(0); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 2}));
  EXPECT_GE(sim.calendar_migrations(), 1u);
}

// Cancelled events' arena slots are recycled once reaped: heavy
// schedule/cancel churn must not grow the arena beyond its first slab.
TEST(SimulatorTest, ArenaReusesSlotsAfterCancel) {
  Simulator sim;
  for (int round = 0; round < 1000; ++round) {
    Simulator::EventId keep = sim.ScheduleAt(sim.Now() + 1.0, [] {});
    Simulator::EventId doomed = sim.ScheduleAt(sim.Now() + 2.0, [] {});
    EXPECT_TRUE(sim.Cancel(doomed));
    sim.RunUntil(sim.Now() + 3.0);
    EXPECT_EQ(sim.pending_events(), 0u);
    (void)keep;
  }
  // 1000 rounds x 2 events touched only a handful of distinct slots.
  EXPECT_EQ(sim.arena_slabs(), 1u);
  EXPECT_LE(sim.arena_high_water(), 4u);
}

// An id names its arena slot and its issue: once the slot is recycled and
// reused, the old id no longer matches, so cancelling it is a no-op that
// leaves the slot's new event to fire.
TEST(SimulatorTest, StaleIdCannotCancelTheEventThatReusedItsSlot) {
  Simulator sim;
  Simulator::EventId fired_id = sim.ScheduleAt(1.0, [] {});
  sim.RunUntil(2.0);
  Simulator::EventId cancelled_id = sim.ScheduleAt(3.0, [] {});
  ASSERT_TRUE(sim.Cancel(cancelled_id));
  sim.RunUntil(4.0);  // reaps the cancelled entry, recycling its slot
  int fired = 0;
  Simulator::EventId fresh = sim.ScheduleAt(5.0, [&] { ++fired; });
  // LIFO recycling put all three events in the same slot.
  ASSERT_EQ(sim.arena_high_water(), 1u);
  EXPECT_NE(fresh, fired_id);
  EXPECT_NE(fresh, cancelled_id);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.Cancel(fired_id));
  EXPECT_FALSE(sim.Cancel(cancelled_id));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A periodic event keeps its slot and id across re-arms, however many
// one-shots churn through other slots meanwhile, and that id cancels it.
TEST(SimulatorTest, PeriodicIdStaysCancellableAcrossReArms) {
  Simulator sim;
  int ticks = 0;
  Simulator::EventId periodic = sim.SchedulePeriodic(1.0, 1.0, [&] { ++ticks; });
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(sim.Now() + 0.5, [] {});
    sim.RunUntil(sim.Now() + 1.0);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(ticks, 50);
  EXPECT_TRUE(sim.Cancel(periodic));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.Cancel(periodic));
  sim.RunUntil(sim.Now() + 10.0);
  EXPECT_EQ(ticks, 50);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace mudi
