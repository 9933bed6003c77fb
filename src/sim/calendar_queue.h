// Calendar (bucket) priority queue for the simulator's event horizon.
//
// A binary heap pays O(log n) comparisons per push/pop with poor locality.
// Simulation time is ms-granular and events cluster near the clock, so a
// calendar queue maps each event to a 1 ms-wide bucket inside a window of
// B ticks; a bucket is sorted once, lazily, when the clock first enters it
// (by then almost all of its events have arrived, so most items are sorted
// exactly once and pushes are O(1) push_backs). Events past the window go to
// a min-heap overflow that migrates into the calendar as the window slides.
// A bitmap over buckets makes "next non-empty bucket" a word scan.
//
// Window geometry: physical index = tick mod B, and the valid window
// [base, base + B) slides forward in half-window steps (base is a multiple
// of Q = B/2, advanced whenever the cursor crosses base + Q). Sliding by
// half-windows keeps at least Q ticks of look-ahead in front of the cursor
// at all times — with an aligned window that only jumps a full B, the
// look-ahead would shrink to zero as the cursor neared the window end and
// most pushes would detour through the overflow heap. Residues are unique
// within any B-tick span, so a non-empty bucket always holds exactly one
// tick's events and index→tick is unambiguous.
//
// Ordering contract: strictly ascending (time, seq) — identical to the
// std::priority_queue it replaces, so the documented tie-break-by-scheduling
// -order behaviour of Simulator is preserved bit-for-bit. Determinism falls
// out of seq being unique: every comparison is a strict total order, so no
// container reshuffling can change pop order. One usage constraint,
// honoured by the Simulator by construction: a pushed item must not order
// before an already-popped item (its time is >= the clock, i.e. >= the last
// pop), which is what lets a partially-consumed bucket accept sorted inserts
// behind its unconsumed tail.
#ifndef SRC_SIM_CALENDAR_QUEUE_H_
#define SRC_SIM_CALENDAR_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/common/check.h"

namespace mudi {

class CalendarQueue {
 public:
  struct Item {
    double time = 0.0;
    uint64_t seq = 0;   // unique; tie-break among same-time items
    uint32_t slot = 0;  // opaque payload (EventArena slot for the Simulator)
  };

  explicit CalendarQueue(double bucket_width_ms = 1.0, size_t num_buckets = 8192)
      : width_(bucket_width_ms), inv_width_(1.0 / bucket_width_ms), num_buckets_(num_buckets) {
    MUDI_CHECK_GT(width_, 0.0);
    MUDI_CHECK_GE(num_buckets_, 2u);
    MUDI_CHECK_EQ(num_buckets_ & (num_buckets_ - 1), 0u);  // power of two
    buckets_.resize(num_buckets_);
    occupied_.resize((num_buckets_ + 63) / 64, 0);
  }
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Pushing never rejects: in-window items go to their bucket, far-future
  // items to the overflow heap, and an item behind the window (the clock
  // idled forward past a gap, then something scheduled into it) re-bases the
  // whole calendar around it — rare and O(live items).
  // MUDI_HOT_PATH  Push/PeekMin/PopMin run once per simulated event; the
  // steady state must stay allocation-free (perf_test pins it with the alloc
  // hook). Every allocating idiom below is an amortized warm-up or a
  // sanctioned cold spill and carries a NOLINT saying why.
  void Push(const Item& item) {
    MUDI_CHECK_GE(item.time, 0.0);
    int64_t tick = TickOf(item.time);
    if (tick < base_tick_) {
      SpillAndRebase(tick);
    }
    ++size_;
    if (tick >= base_tick_ + static_cast<int64_t>(num_buckets_)) {
      // Far-future spill: rare by the window-sizing argument above, and the
      // heap reuses freed capacity.
      // NOLINTNEXTLINE(mudi-hot-path-alloc): sanctioned cold-path spill
      overflow_.push(item);
      return;
    }
    InsertBucket(item, tick);
    if (tick < cursor_tick_) {
      cursor_tick_ = tick;  // the new item may now be the global minimum
    }
  }

  // Returns the minimum item, or nullptr when empty. The pointer is
  // invalidated by any Push or PopMin.
  const Item* PeekMin() {
    if (size_ == 0) {
      return nullptr;
    }
    if (CalendarCount() == 0) {
      // Only far-future items remain. Every overflow tick is >= base + B >
      // every (nonexistent) calendar tick, so the heap top IS the global
      // minimum: serve it in place instead of dragging the window out to it
      // — a premature window jump would strand later near-time pushes
      // behind base and force a spill per push.
      return &overflow_.top();
    }
    size_t idx = NextOccupiedCircular(IndexOf(cursor_tick_));
    MUDI_CHECK_LT(idx, num_buckets_);
    // Map the physical index back to its unique in-window tick.
    int64_t off =
        static_cast<int64_t>((idx - IndexOf(base_tick_)) & (num_buckets_ - 1));
    cursor_tick_ = base_tick_ + off;
    // Slide the window in half-window steps so pushes always have at least
    // Q ticks of look-ahead, then let newly-in-range overflow items in.
    bool advanced = false;
    while (cursor_tick_ >= base_tick_ + HalfWindow()) {
      base_tick_ += HalfWindow();
      advanced = true;
    }
    if (advanced) {
      ++migrations_;
      MigrateOverflowIn();
    }
    Bucket& b = buckets_[idx];
    if (!b.sorted) {
      std::sort(b.items.begin(), b.items.end(), Before);
      b.head = 0;
      b.sorted = true;
    }
    return &b.items[b.head];
  }

  Item PopMin() {
    MUDI_CHECK_GT(size_, 0u);
    if (CalendarCount() == 0) {
      // Pop straight off the overflow heap, then move the window up to the
      // popped item: the simulation clock has reached it, so (by the usage
      // contract) everything scheduled from here on is at or after it — the
      // rest of its cluster migrates into buckets and gets O(1) treatment.
      Item item = overflow_.top();
      overflow_.pop();
      --size_;
      int64_t tick = TickOf(item.time);
      if (tick >= base_tick_ + static_cast<int64_t>(num_buckets_)) {
        base_tick_ = AlignDown(tick);
        cursor_tick_ = tick;
        ++migrations_;
      }
      MigrateOverflowIn();
      return item;
    }
    const Item* top = PeekMin();
    MUDI_CHECK(top != nullptr);
    Item item = *top;
    size_t idx = IndexOf(cursor_tick_);
    Bucket& b = buckets_[idx];
    ++b.head;
    --size_;
    if (b.head == b.items.size()) {
      ResetBucket(idx);
    }
    return item;
  }
  // MUDI_HOT_PATH_END

  // Observational stats for perf counters.
  uint64_t migrations() const { return migrations_; }

 private:
  struct Bucket {
    std::vector<Item> items;
    size_t head = 0;  // items[0, head) already popped
    bool sorted = false;
  };
  static bool Before(const Item& a, const Item& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }
  struct Later {
    bool operator()(const Item& a, const Item& b) const { return Before(b, a); }
  };

  // Items bucketed in the calendar window (the rest sit in the overflow heap).
  size_t CalendarCount() const { return size_ - overflow_.size(); }

  int64_t TickOf(double t) const { return static_cast<int64_t>(t * inv_width_); }
  size_t IndexOf(int64_t tick) const {
    return static_cast<size_t>(tick) & (num_buckets_ - 1);
  }
  int64_t HalfWindow() const { return static_cast<int64_t>(num_buckets_ / 2); }
  int64_t AlignDown(int64_t tick) const { return (tick / HalfWindow()) * HalfWindow(); }

  // MUDI_HOT_PATH  called from Push for every in-window event.
  void InsertBucket(const Item& item, int64_t tick) {
    size_t idx = IndexOf(tick);
    Bucket& b = buckets_[idx];
    if (b.sorted) {
      // The bucket is or was under the cursor. Consumed items live in
      // [0, head); keep [head, end) ordered. By the usage contract the new
      // item orders after everything consumed, so inserting at upper_bound
      // within the unconsumed tail is exact.
      auto pos = std::upper_bound(b.items.begin() + b.head, b.items.end(), item, Before);
      // ResetBucket clears but keeps capacity, so steady-state inserts
      // reuse it; growth happens during warm-up only.
      // NOLINTNEXTLINE(mudi-hot-path-alloc): capacity reused after warm-up
      b.items.insert(pos, item);
    } else {
      // Same capacity-reuse argument — perf_test's 0-alloc steady-state
      // proof covers this push_back.
      // NOLINTNEXTLINE(mudi-hot-path-alloc): capacity reused after warm-up
      b.items.push_back(item);
    }
    occupied_[idx >> 6] |= uint64_t{1} << (idx & 63);
  }
  // MUDI_HOT_PATH_END

  void ResetBucket(size_t idx) {
    Bucket& b = buckets_[idx];
    b.items.clear();
    b.head = 0;
    b.sorted = false;
    occupied_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  }

  // Pulls every overflow item that now fits the window into its bucket.
  // Heap pops arrive in ascending (time, seq), so a previously-empty bucket
  // fills already sorted; InsertBucket handles the mixed case generically.
  void MigrateOverflowIn() {
    while (!overflow_.empty() &&
           TickOf(overflow_.top().time) < base_tick_ + static_cast<int64_t>(num_buckets_)) {
      InsertBucket(overflow_.top(), TickOf(overflow_.top().time));
      overflow_.pop();
    }
  }

  // A push landed before the window: collect all live calendar items, rebase
  // the window around the new minimum, and reinsert (to buckets or overflow
  // as their ticks now dictate). Only reachable after the window jumped over
  // an idle gap, so it is rare; correctness over speed here.
  void SpillAndRebase(int64_t tick) {
    std::vector<Item> live;
    for (size_t idx = 0; CalendarCount() != live.size() && idx < num_buckets_; ++idx) {
      Bucket& b = buckets_[idx];
      if (b.items.empty()) {
        continue;
      }
      live.insert(live.end(), b.items.begin() + b.head, b.items.end());
      ResetBucket(idx);
    }
    base_tick_ = AlignDown(tick);
    cursor_tick_ = tick;
    for (const Item& item : live) {
      int64_t t = TickOf(item.time);
      if (t >= base_tick_ + static_cast<int64_t>(num_buckets_)) {
        overflow_.push(item);
      } else {
        InsertBucket(item, t);
      }
    }
  }

  // First occupied physical index in circular order starting at `from`, or
  // num_buckets_ when the calendar is empty. Word-at-a-time bitmap scan.
  size_t NextOccupiedCircular(size_t from) const {
    const size_t words = occupied_.size();
    size_t word = from >> 6;
    uint64_t bits = occupied_[word] & (~uint64_t{0} << (from & 63));
    for (size_t scanned = 0; scanned <= words; ++scanned) {
      if (bits != 0) {
        return (word << 6) + static_cast<size_t>(__builtin_ctzll(bits));
      }
      word = word + 1 == words ? 0 : word + 1;
      bits = occupied_[word];
    }
    return num_buckets_;
  }

  double width_;
  double inv_width_;
  size_t num_buckets_;
  std::vector<Bucket> buckets_;
  std::vector<uint64_t> occupied_;
  std::priority_queue<Item, std::vector<Item>, Later> overflow_;
  int64_t base_tick_ = 0;    // window start; multiple of HalfWindow()
  int64_t cursor_tick_ = 0;  // tick of the bucket holding the current minimum
  size_t size_ = 0;
  uint64_t migrations_ = 0;
};

}  // namespace mudi

#endif  // SRC_SIM_CALENDAR_QUEUE_H_
