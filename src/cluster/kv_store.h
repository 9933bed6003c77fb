// In-process etcd-like key/value store with prefix watches.
//
// The paper's implementation stores tuned configurations and intermediate
// results in ETCD; agents watch keys and react to updates (§6). This module
// reproduces that coordination pattern: Put bumps a global revision and
// synchronously notifies watchers whose prefix matches (the simulator is
// single-threaded, so delivery order is deterministic).
//
// Degraded mode (DESIGN.md §13): a production control plane is not a
// zero-latency oracle. EnableDegradedMode turns watch delivery into
// asynchronous simulator events with a per-watcher delay distribution
// (fixed base + exponential jitter, each watcher on its own forked Rng
// stream) and a drop probability, adds partition windows during which
// deliveries are suppressed and control-plane reads fail Unavailable, and
// injects stale reads that serve the store's state at a lagged revision.
// Everything is seeded, so chaos runs stay bit-identical; with the mode off
// the store behaves exactly as before (and schedules nothing, keeping
// fault-free runs byte-identical).
//
// Two read paths exist on purpose:
//  * Get/GetRequired/List — the omniscient harness/test view; never degraded.
//  * CtrlGet/CtrlList — the control-plane view the scheduler must use while
//    a fault plan is armed; subject to partitions and stale reads, and
//    routed through src/sim/retry.h by callers.
#ifndef SRC_CLUSTER_KV_STORE_H_
#define SRC_CLUSTER_KV_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sim/simulator.h"

namespace mudi {

// Watch/read degradation knobs, all off by default. Plain data so fault
// plans can embed and validate them.
struct KvDegradeOptions {
  // Fixed delivery delay added to every watch notification.
  TimeMs watch_delay_ms = 0.0;
  // Mean of an additional exponential jitter term, drawn per delivery from
  // the watcher's own forked stream.
  TimeMs watch_delay_jitter_ms = 0.0;
  // Probability a notification is silently dropped (lost update).
  double watch_drop_prob = 0.0;
  // Probability a CtrlGet/CtrlList is served at a lagged revision.
  double stale_read_prob = 0.0;
  // Maximum revision lag of a stale read (actual lag uniform in [1, max]).
  uint64_t stale_rev_lag = 0;

  bool any() const {
    return watch_delay_ms > 0.0 || watch_delay_jitter_ms > 0.0 || watch_drop_prob > 0.0 ||
           (stale_read_prob > 0.0 && stale_rev_lag > 0);
  }
};

class KvStore {
 public:
  using WatchId = uint64_t;
  // (key, value, revision). A delete event (opt-in, see EnableDeleteEvents)
  // delivers an empty value — the tombstone convention.
  using WatchCallback = std::function<void(const std::string&, const std::string&, uint64_t)>;

  // Stores `value` under `key`, bumps the revision, fires matching watches
  // (synchronously, or as delayed/lossy simulator events in degraded mode).
  uint64_t Put(const std::string& key, const std::string& value);

  std::optional<std::string> Get(const std::string& key) const;

  // Like Get, but a missing key is an error the caller must handle — the
  // graceful-degradation path for entries a failed device deregistered.
  StatusOr<std::string> GetRequired(const std::string& key) const;

  // All (key, value) pairs whose key starts with `prefix`, key-ordered.
  std::vector<std::pair<std::string, std::string>> List(const std::string& prefix) const;

  // Deletes a key. With delete events off (the default) this fires no watch
  // notification and does not bump the revision, matching etcd's
  // delete-event being unused by the paper's agents. Returns true if the
  // key existed.
  bool Delete(const std::string& key);

  // Deletes every key starting with `prefix` (a failed device's whole
  // subtree in one call); returns the number of keys removed.
  size_t DeletePrefix(const std::string& prefix);

  // Registers a callback fired on every Put whose key starts with `prefix`.
  WatchId Watch(const std::string& prefix, WatchCallback callback);
  bool Unwatch(WatchId id);

  // --- control-plane fault surface -----------------------------------------

  // Opt-in tombstone delete events: when enabled, Delete/DeletePrefix bump
  // the revision and notify matching watchers with an empty value, so
  // recovery code can observe deregistration instead of polling. Off by
  // default; existing runs are byte-identical with the flag off.
  void EnableDeleteEvents(bool enabled) { delete_events_ = enabled; }

  // Switches watch delivery to seeded asynchronous simulator events per
  // `options` and starts recording revision history for stale reads.
  // `sim` must outlive the store.
  void EnableDegradedMode(Simulator* sim, const KvDegradeOptions& options, Rng rng);
  bool degraded() const { return degraded_; }

  // Partition windows (kKvPartition faults from FaultInjector, applied by
  // the experiment's ControlPlane): while partitioned, watch notifications
  // are suppressed (not delayed — lost) and CtrlGet/CtrlList fail
  // Unavailable.
  void SetPartitioned(bool partitioned) { partitioned_ = partitioned; }
  bool partitioned() const { return partitioned_; }

  // Control-plane reads: what the scheduler sees through the (possibly
  // degraded) control path. Identical to GetRequired/List when the store is
  // healthy; Unavailable during a partition; served at a lagged revision
  // with probability stale_read_prob. `read_rev` (optional) receives the
  // revision the read was served at, so callers can apply a monotonic
  // guard against stale snapshots regressing newer watch deliveries.
  StatusOr<std::string> CtrlGet(const std::string& key, uint64_t* read_rev = nullptr);
  StatusOr<std::vector<std::pair<std::string, std::string>>> CtrlList(
      const std::string& prefix, uint64_t* read_rev = nullptr);

  uint64_t revision() const { return revision_; }
  size_t size() const { return data_.size(); }

  // Degradation counters (all zero while the store is healthy).
  uint64_t watch_delivered() const { return watch_delivered_; }
  uint64_t watch_dropped() const { return watch_dropped_; }
  uint64_t watch_lost_partition() const { return watch_lost_partition_; }
  uint64_t stale_reads() const { return stale_reads_; }
  uint64_t unavailable_reads() const { return unavailable_reads_; }

 private:
  struct Watcher {
    WatchId id;
    std::string prefix;
    WatchCallback callback;
  };
  // Undo-log entry: `prev` is the value `key` held before revision `rev`
  // (nullopt = absent). Recorded only in degraded mode, bounded to
  // kMaxHistory entries, and replayed newest-first to reconstruct the store
  // at a lagged revision.
  struct UndoEntry {
    uint64_t rev;
    std::string key;
    std::optional<std::string> prev;
  };

  static constexpr size_t kMaxHistory = 4096;

  uint64_t BumpRevision(const std::string& key, std::optional<std::string> prev);
  void NotifyWatchers(const std::string& key, const std::string& value, uint64_t revision);
  void DeliverLater(const Watcher& watcher, const std::string& key, const std::string& value,
                    uint64_t revision);
  Rng& WatcherRng(WatchId id);
  // The store's contents at `target_rev`, rebuilt from the undo log.
  std::map<std::string, std::string> SnapshotAt(uint64_t target_rev) const;
  // Revision a control-plane read is served at: revision_, or a lagged
  // revision when the stale-read draw fires.
  uint64_t ReadRevision();

  uint64_t revision_ = 0;
  WatchId next_watch_id_ = 1;
  std::map<std::string, std::string> data_;
  std::vector<Watcher> watchers_;

  bool delete_events_ = false;
  bool degraded_ = false;
  bool partitioned_ = false;
  Simulator* sim_ = nullptr;
  KvDegradeOptions degrade_;
  std::optional<Rng> degrade_rng_;
  std::map<WatchId, Rng> watcher_rngs_;
  std::deque<UndoEntry> history_;

  uint64_t watch_delivered_ = 0;
  uint64_t watch_dropped_ = 0;
  uint64_t watch_lost_partition_ = 0;
  uint64_t stale_reads_ = 0;
  uint64_t unavailable_reads_ = 0;
};

}  // namespace mudi

#endif  // SRC_CLUSTER_KV_STORE_H_
