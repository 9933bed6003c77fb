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
#include <vector>

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
  using EventId = uint64_t;

  static constexpr EventId kInvalidEventId = 0;

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
  // Per-id lifecycle, tracked in a flat vector indexed by EventId. An id has
  // at most one queue entry at any time (periodic re-arm pushes only after
  // the previous occurrence popped), so one byte of state suffices:
  //   kDead      no entry in the queue (never issued / fired / reaped)
  //   kLive      scheduled entry pending
  //   kCancelled entry still queued but Cancel()ed; reaped by SkipCancelled
  // This replaced two unordered_sets (live_/cancelled_): the per-event cost
  // of two hash inserts + two hash erases became two byte writes, the top
  // hot spot found by the src/perf self-attribution (see BENCH_throughput
  // "sim.event-state-vector"). The vector grows one byte per id ever issued
  // (ids are monotonic) — ~1 MB per million events, reset with the Simulator.
  enum class EventState : uint8_t { kDead = 0, kLive = 1, kCancelled = 2 };

  EventId Push(TimeMs t, TimeMs period, Callback cb, EventId reuse_id = kInvalidEventId);
  // Pops cancelled entries off the top; returns false when queue is empty.
  bool SkipCancelled();
  EventState State(EventId id) const {
    return id < state_.size() ? static_cast<EventState>(state_[id]) : EventState::kDead;
  }
  void SetState(EventId id, EventState s);

  TimeMs now_ = 0.0;
  uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t events_scheduled_ = 0;
  uint64_t events_cancelled_ = 0;
  size_t stale_cancellations_ = 0;
  size_t live_count_ = 0;
  EventArena arena_;
  CalendarQueue queue_;
  std::vector<uint8_t> state_;
};

}  // namespace mudi

#endif  // SRC_SIM_SIMULATOR_H_
