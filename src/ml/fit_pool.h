// The one sanctioned home of raw threads in the codebase (enforced by the
// mudi_lint `mudi-fit-thread` check). Offline model fitting is the only
// workload allowed to fan out: each shard is a pure, internally-seeded
// function of its inputs, shards are indexed 0..n-1 in a fixed order, and
// every result lands in a pre-sized slot — so the reduction reads identical
// values no matter how shards were interleaved across workers. Anything that
// touches the simulation clock, an Rng stream, or shared mutable state stays
// single-threaded; route new parallelism through ParallelFor or keep it out.
#ifndef SRC_ML_FIT_POOL_H_
#define SRC_ML_FIT_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/thread_annotations.h"

namespace mudi {

class FitPool {
 public:
  // Worker count from MUDI_FIT_THREADS: unset or "0" means auto (hardware
  // concurrency clamped to 8); an explicit positive value is taken verbatim
  // (oversubscription is fine — shards are CPU-bound and independent).
  static size_t ConfiguredThreads() {
    std::optional<std::string> env = GetEnv("MUDI_FIT_THREADS");
    if (env.has_value() && !env->empty()) {
      // A malformed or out-of-range MUDI_FIT_THREADS is a hard error:
      // silently falling back to some thread count would mask a typo in a
      // reproducibility recipe.
      int64_t parsed = ParseNonNegativeInt(*env).value_or(-1);
      MUDI_CHECK(parsed >= 0);
      if (parsed > 0) {
        return static_cast<size_t>(parsed);
      }
    }
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) {
      hw = 1;
    }
    return hw < 8 ? static_cast<size_t>(hw) : 8;
  }

  // Runs fn(0) .. fn(n-1), fanning out across ConfiguredThreads() workers.
  // Shards are handed out via an atomic counter, so which worker runs which
  // shard is nondeterministic — fn must therefore write only to its own
  // index's slot and read only immutable shared inputs. Determinism of the
  // overall fit is the *caller's* obligation (per-shard seeding + fixed-order
  // reduction); this helper only guarantees every index runs exactly once
  // and all work is done on return.
  static void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    size_t workers = ConfiguredThreads();
    if (workers > n) {
      workers = n;
    }
    if (workers <= 1) {
      for (size_t i = 0; i < n; ++i) {
        fn(i);
      }
      return;
    }
    // Work-stealing shard counter, local to one ParallelFor call. It orders
    // nothing the results depend on (each shard writes only its own slot).
    MUDI_GUARDED_STATE("hands out shard indices; result slots are disjoint");
    std::atomic<size_t> next{0};
    auto drain = [&]() {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) {
      threads.emplace_back(drain);
    }
    drain();  // the calling thread is worker 0
    for (auto& t : threads) {
      t.join();
    }
  }
};

}  // namespace mudi

#endif  // SRC_ML_FIT_POOL_H_
