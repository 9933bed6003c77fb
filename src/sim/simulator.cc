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

// MUDI_HOT_PATH  SetState/Push/Step run once (or more) per simulated event;
// steady state is allocation-free (perf_test's alloc-hook proof). The two
// NOLINTed growth sites below are one-way high-water-mark expansions.
void Simulator::SetState(EventId id, EventState s) {
  if (id >= state_.size()) {
    // The state vector grows to the peak event-id once (ids are reused via
    // the free list), then never again.
    // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth
    state_.resize(static_cast<size_t>(id) + 1, static_cast<uint8_t>(EventState::kDead));
  }
  state_[id] = static_cast<uint8_t>(s);
}

Simulator::EventId Simulator::Push(TimeMs t, TimeMs period, Callback cb, EventId reuse_id) {
  MUDI_CHECK_GE(t, now_);
  MUDI_CHECK(cb);
  EventId id = reuse_id != kInvalidEventId ? reuse_id : next_id_++;
  EventArena::Slot slot = arena_.Allocate();
  EventArena::Event& ev = arena_[slot];
  ev.time = t;
  ev.period = period;
  ev.seq = next_seq_++;
  ev.id = id;
  ev.cb = std::move(cb);
  queue_.Push(CalendarQueue::Item{t, ev.seq, slot});
  SetState(id, EventState::kLive);
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
  // cancellations that would corrupt pending_events() forever.
  if (State(id) != EventState::kLive) {
    return false;
  }
  SetState(id, EventState::kCancelled);
  MUDI_CHECK_GT(live_count_, 0u);
  --live_count_;
  ++stale_cancellations_;
  ++events_cancelled_;
  return true;
}

bool Simulator::SkipCancelled() {
  while (const CalendarQueue::Item* top = queue_.PeekMin()) {
    EventArena::Event& ev = arena_[top->slot];
    if (State(ev.id) != EventState::kCancelled) {
      return true;
    }
    SetState(ev.id, EventState::kDead);
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
    ev.seq = next_seq_++;
    queue_.Push(CalendarQueue::Item{ev.time, ev.seq, item.slot});
    ++events_scheduled_;
    ev.cb();
    return true;
  }
  // One-shot: move the callback out and recycle the slot *before* invoking,
  // so events the callback schedules reuse this still-cache-warm slot.
  SetState(ev.id, EventState::kDead);
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
