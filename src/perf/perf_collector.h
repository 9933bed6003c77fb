// PerfCollector — the self-profiling hub: named scoped-timer regions
// (LatencyStat each, with stable addresses so hot paths cache a pointer
// once) plus named end-of-run snapshot counters.
//
// Design rules (the same contract as src/telemetry):
//  * Observe-only. The collector never schedules events, never draws from a
//    seeded Rng, and never feeds a measured value back into a scheduling
//    decision — attaching or detaching a collector must leave a run
//    bit-identical (determinism_test pins this down).
//  * All wall time flows through the sanctioned mudi::WallTimer
//    (src/common/wallclock.h); no raw std::chrono here (mudi-determinism).
//  * Single-threaded, like the simulator it profiles.
//
// PerfRegion is the RAII scoped timer: construct at the top of the profiled
// scope, destruction records the elapsed wall milliseconds. A null collector
// is the off switch: it makes the region a near-no-op — one branch, no clock
// read.
#ifndef SRC_PERF_PERF_COLLECTOR_H_
#define SRC_PERF_PERF_COLLECTOR_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/wallclock.h"
#include "src/perf/perf_stats.h"

namespace mudi {
namespace perf {

class PerfCollector {
 public:
  PerfCollector() = default;
  PerfCollector(const PerfCollector&) = delete;
  PerfCollector& operator=(const PerfCollector&) = delete;

  // Get-or-create; returned references stay valid for the collector's
  // lifetime (std::map nodes have stable addresses).
  LatencyStat& GetRegionStat(const std::string& name) { return regions_[name]; }
  // Overwrites (for end-of-run exported snapshots, e.g. simulator totals).
  void SetCounter(const std::string& name, uint64_t value) { counters_[name] = value; }

  const std::map<std::string, LatencyStat>& regions() const { return regions_; }
  const std::map<std::string, uint64_t>& counters() const { return counters_; }

 private:
  // std::map: deterministic name-ordered iteration for every export.
  std::map<std::string, LatencyStat> regions_;
  std::map<std::string, uint64_t> counters_;
};

class PerfRegion {
 public:
  // Looks the region up by name; a null collector disables the region.
  PerfRegion(PerfCollector* collector, const char* name)
      : stat_(collector != nullptr ? &collector->GetRegionStat(name) : nullptr) {
    if (stat_ != nullptr) {
      timer_.Restart();
    }
  }

  // Cached-stat variant for hot call sites: resolve the stat once, reuse it.
  explicit PerfRegion(LatencyStat* stat) : stat_(stat) {
    if (stat_ != nullptr) {
      timer_.Restart();
    }
  }

  PerfRegion(const PerfRegion&) = delete;
  PerfRegion& operator=(const PerfRegion&) = delete;

  ~PerfRegion() {
    if (stat_ != nullptr) {
      stat_->Record(timer_.ElapsedMs());
    }
  }

 private:
  LatencyStat* stat_;
  // Unstarted: the disabled path never reads the clock; the non-null branch
  // in the constructors calls Restart().
  WallTimer timer_{WallTimer::Unstarted{}};
};

}  // namespace perf
}  // namespace mudi

#endif  // SRC_PERF_PERF_COLLECTOR_H_
