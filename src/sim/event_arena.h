// Slab arena for simulator events. Events live in 256-entry slabs that are
// never freed or moved while the Simulator exists, so an event is addressed
// by a 32-bit slot index that stays valid across queue reshuffles — the
// calendar queue orders 20-byte {time, seq, slot} items while the (larger,
// callback-carrying) Event stays put. Freed slots are recycled LIFO, so the
// steady-state hot path touches the same few cache-warm slots instead of
// growing the heap: after warm-up, schedule/fire costs zero allocations
// (together with SmallFunction; asserted via mudi_perf_alloc_hook).
#ifndef SRC_SIM_EVENT_ARENA_H_
#define SRC_SIM_EVENT_ARENA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/small_function.h"

namespace mudi {

class EventArena {
 public:
  using Slot = uint32_t;
  static constexpr Slot kNullSlot = 0xFFFFFFFFu;

  struct Event {
    double time = 0.0;
    double period = 0.0;  // > 0 marks a periodic event
    uint64_t seq = 0;
    uint64_t id = 0;
    SmallFunction<void()> cb;
  };

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  // MUDI_HOT_PATH  Allocate/Recycle run once per scheduled event; after
  // warm-up every Allocate is served from the free list with zero heap
  // traffic (perf_test pins the 0-alloc steady state).
  // Returns a slot whose Event is default-initialized (cb empty).
  Slot Allocate() {
    if (!free_.empty()) {
      Slot slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (next_fresh_ == slabs_.size() * kSlabSize) {
      // Slab growth happens only while the live-event high-water mark is
      // still rising, never at steady state.
      // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth
      slabs_.push_back(std::make_unique<Event[]>(kSlabSize));
    }
    return next_fresh_++;
  }

  // Destroys the slot's callback (releasing captured state now, not at some
  // future reuse) and recycles the slot.
  void Recycle(Slot slot) {
    Event& ev = (*this)[slot];
    ev.cb = nullptr;
    // free_ only grows to the high-water mark of live events, then its
    // capacity is reused forever.
    // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth
    free_.push_back(slot);
  }
  // MUDI_HOT_PATH_END

  Event& operator[](Slot slot) {
    MUDI_CHECK_LT(slot, next_fresh_);
    return slabs_[slot >> kSlabBits][slot & (kSlabSize - 1)];
  }
  const Event& operator[](Slot slot) const {
    MUDI_CHECK_LT(slot, next_fresh_);
    return slabs_[slot >> kSlabBits][slot & (kSlabSize - 1)];
  }

  size_t slabs() const { return slabs_.size(); }
  size_t capacity() const { return slabs_.size() * kSlabSize; }
  size_t high_water() const { return next_fresh_; }

 private:
  static constexpr size_t kSlabBits = 8;
  static constexpr size_t kSlabSize = size_t{1} << kSlabBits;

  std::vector<std::unique_ptr<Event[]>> slabs_;
  std::vector<Slot> free_;  // LIFO: reuse the most recently freed slot first
  Slot next_fresh_ = 0;
};

}  // namespace mudi

#endif  // SRC_SIM_EVENT_ARENA_H_
