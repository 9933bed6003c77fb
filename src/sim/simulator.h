// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock (milliseconds, double) and a time-ordered
// event queue. Components schedule callbacks at absolute or relative virtual
// times; ties are broken by scheduling order so runs are deterministic.
// Periodic events re-arm themselves until cancelled. The engine is
// single-threaded by design — determinism matters more than parallelism for
// cluster-scheduling studies.
//
// Internals (see DESIGN.md §12): events live in a slab arena (EventArena)
// and are ordered by a calendar queue (CalendarQueue) holding 20-byte
// {time, seq, slot} items; callbacks are small-buffer-optimized
// (SmallFunction), so the steady-state schedule/fire/cancel path performs no
// heap allocation per event. Callbacks run from their arena slot; they may
// schedule and Cancel freely, but must not re-enter Run*/Step on the same
// Simulator.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/common/small_function.h"
#include "src/sim/calendar_queue.h"
#include "src/sim/event_arena.h"

namespace mudi {

namespace perf {
class PerfCollector;
}  // namespace perf

// Virtual time in milliseconds since simulation start.
using TimeMs = double;

constexpr TimeMs kMsPerSecond = 1000.0;
constexpr TimeMs kMsPerMinute = 60.0 * kMsPerSecond;
constexpr TimeMs kMsPerHour = 60.0 * kMsPerMinute;

class Simulator {
 public:
  using Callback = SmallFunction<void()>;
  // An id packs the event's issue counter (high kCounterBits) with its arena
  // slot + 1 (low kSlotBits), so it is never 0 and names the one slot that
  // can hold its state. A reused slot holds a newer counter, so a stale id
  // never matches it.
  using EventId = uint64_t;

  static constexpr EventId kInvalidEventId = 0;
  static constexpr int kSlotBits = 24;
  static constexpr int kCounterBits = 64 - kSlotBits;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeMs Now() const { return now_; }

  // Schedules `cb` at absolute virtual time `t` (must be >= Now()).
  EventId ScheduleAt(TimeMs t, Callback cb);

  // Schedules `cb` `delay` ms from now (delay must be >= 0).
  EventId ScheduleAfter(TimeMs delay, Callback cb);

  // Schedules `cb` every `period` ms, first firing at `start`. The callback
  // keeps firing until the returned id is cancelled.
  EventId SchedulePeriodic(TimeMs start, TimeMs period, Callback cb);

  // Cancels a pending (or periodic) event. Returns false if the id is not
  // pending — e.g. already fired (one-shot), already cancelled, or never
  // issued. Safe to call from inside the firing callback: a one-shot
  // cancelling its own id is a no-op (the event is no longer pending), while
  // a periodic event cancelling its own id stops the re-armed occurrence.
  bool Cancel(EventId id);

  // Runs events with time <= `t`, then advances the clock to exactly `t`.
  void RunUntil(TimeMs t);

  // Runs until the queue is empty.
  void RunUntilIdle();

  // Runs at most one event; returns false when the queue is empty.
  bool Step();

  size_t pending_events() const { return live_count_; }
  uint64_t events_processed() const { return events_processed_; }
  uint64_t events_scheduled() const { return events_scheduled_; }
  uint64_t events_cancelled() const { return events_cancelled_; }

  // Arena/queue internals, exposed for tests and perf counters.
  size_t arena_slabs() const { return arena_.slabs(); }
  size_t arena_high_water() const { return arena_.high_water(); }
  uint64_t calendar_migrations() const { return queue_.migrations(); }
  size_t calendar_retained_items() const { return queue_.retained_items(); }
  size_t calendar_free_buckets() const { return queue_.free_buckets(); }

  // Exports the dispatch totals into the self-profiling collector
  // ("sim.events_*" counters). Snapshot-style — called at end of run, so the
  // per-event hot path pays nothing for profiling. Observe-only.
  void ExportPerfCounters(perf::PerfCollector* collector) const;

 private:
  // Each event's lifecycle byte lives in its arena slot (EventArena::State),
  // next to the id it checks, so Cancel and SkipCancelled touch only the slot
  // they already read, and lifecycle tracking holds memory only for slots,
  // not for every id ever issued (DESIGN.md §11).
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

  EventId Push(TimeMs t, TimeMs period, Callback cb);
  // Pops cancelled entries off the top; returns false when queue is empty.
  bool SkipCancelled();

  TimeMs now_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t next_counter_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t events_scheduled_ = 0;
  uint64_t events_cancelled_ = 0;
  size_t stale_cancellations_ = 0;
  size_t live_count_ = 0;
  EventArena arena_;
  CalendarQueue queue_;
};

}  // namespace mudi

#endif  // SRC_SIM_SIMULATOR_H_
