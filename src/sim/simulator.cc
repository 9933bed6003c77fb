#include "src/sim/simulator.h"

#include <utility>

#include "src/common/check.h"
#include "src/perf/perf_collector.h"

namespace mudi {

void Simulator::ExportPerfCounters(perf::PerfCollector* collector) const {
  if (collector == nullptr) {
    return;
  }
  collector->SetCounter("sim.events_fired", events_processed_);
  collector->SetCounter("sim.events_scheduled", events_scheduled_);
  collector->SetCounter("sim.events_cancelled", events_cancelled_);
  collector->SetCounter("sim.events_pending", live_count_);
  collector->SetCounter("sim.calendar_migrations", queue_.migrations());
  collector->SetCounter("sim.calendar_retained_items", queue_.retained_items());
  collector->SetCounter("sim.calendar_free_buckets", queue_.free_buckets());
  collector->SetCounter("sim.arena_slabs", arena_.slabs());
}

// MUDI_HOT_PATH  Push/Cancel/Step run once (or more) per simulated event;
// steady state is allocation-free (perf_test's alloc-hook proof).
Simulator::EventId Simulator::Push(TimeMs t, TimeMs period, Callback cb) {
  MUDI_CHECK_GE(t, now_);
  MUDI_CHECK(cb);
  EventArena::Slot slot = arena_.Allocate();
  // Both halves of the id must fit their bits: slot + 1 below 2^kSlotBits,
  // the counter below 2^kCounterBits.
  MUDI_CHECK_LT(uint64_t{slot}, kSlotMask);
  MUDI_CHECK_LT(next_counter_, uint64_t{1} << kCounterBits);
  EventId id = (next_counter_++ << kSlotBits) | (uint64_t{slot} + 1);
  EventArena::Event& ev = arena_[slot];
  ev.time = t;
  ev.period = period;
  ev.id = id;
  ev.state = EventArena::State::kLive;
  ev.cb = std::move(cb);
  queue_.Push(CalendarQueue::Item{t, next_seq_++, slot});
  ++live_count_;
  ++events_scheduled_;
  return id;
}

Simulator::EventId Simulator::ScheduleAt(TimeMs t, Callback cb) {
  return Push(t, /*period=*/0.0, std::move(cb));
}

Simulator::EventId Simulator::ScheduleAfter(TimeMs delay, Callback cb) {
  MUDI_CHECK_GE(delay, 0.0);
  return Push(now_ + delay, /*period=*/0.0, std::move(cb));
}

Simulator::EventId Simulator::SchedulePeriodic(TimeMs start, TimeMs period, Callback cb) {
  MUDI_CHECK_GT(period, 0.0);
  return Push(start, period, std::move(cb));
}

bool Simulator::Cancel(EventId id) {
  // Only ids with a live queue entry are cancellable: already-fired one-shots
  // and double-cancels fall through here instead of being recorded as stale
  // cancellations that would corrupt pending_events() forever. An id whose
  // slot has since been reused fails the id match.
  uint64_t slot_plus_one = id & kSlotMask;
  if (slot_plus_one == 0 || slot_plus_one > arena_.high_water()) {
    return false;
  }
  EventArena::Event& ev = arena_[static_cast<EventArena::Slot>(slot_plus_one - 1)];
  if (ev.id != id || ev.state != EventArena::State::kLive) {
    return false;
  }
  ev.state = EventArena::State::kCancelled;
  MUDI_CHECK_GT(live_count_, 0u);
  --live_count_;
  ++stale_cancellations_;
  ++events_cancelled_;
  return true;
}

bool Simulator::SkipCancelled() {
  while (const CalendarQueue::Item* top = queue_.PeekMin()) {
    if (arena_[top->slot].state != EventArena::State::kCancelled) {
      return true;
    }
    MUDI_CHECK_GT(stale_cancellations_, 0u);
    --stale_cancellations_;
    arena_.Recycle(top->slot);
    queue_.PopMin();
  }
  return false;
}

bool Simulator::Step() {
  if (!SkipCancelled()) {
    return false;
  }
  CalendarQueue::Item item = queue_.PopMin();
  EventArena::Event& ev = arena_[item.slot];
  MUDI_CHECK_GE(ev.time, now_);
  now_ = ev.time;
  ++events_processed_;
  if (ev.period > 0.0) {
    // Re-arm before running so the callback can Cancel() its own id: the
    // event keeps its arena slot and id, gets a fresh seq, and is pushed at
    // the next occurrence — no state flip, no allocation, no callback move.
    // The callback is then invoked from its (re-queued) slot; Cancel during
    // the call marks the state and the slot is reaped lazily.
    ev.time += ev.period;
    queue_.Push(CalendarQueue::Item{ev.time, next_seq_++, item.slot});
    ++events_scheduled_;
    ev.cb();
    return true;
  }
  // One-shot: move the callback out and recycle the slot *before* invoking,
  // so events the callback schedules reuse this still-cache-warm slot.
  MUDI_CHECK_GT(live_count_, 0u);
  --live_count_;
  Callback cb = std::move(ev.cb);
  arena_.Recycle(item.slot);
  cb();
  return true;
}
// MUDI_HOT_PATH_END

void Simulator::RunUntil(TimeMs t) {
  MUDI_CHECK_GE(t, now_);
  while (SkipCancelled() && queue_.PeekMin()->time <= t) {
    Step();
  }
  now_ = t;
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

}  // namespace mudi
