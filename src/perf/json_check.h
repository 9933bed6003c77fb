// Schema gate for the machine-readable perf trajectory (BENCH_throughput.json).
// The JSON itself is parsed by the shared reader in src/common/json.h; this
// file holds only the schema rules. It backs `bench_throughput --validate
// FILE` (the check.sh --bench gate) and the schema assertions in
// tests/perf_test.cc.
#ifndef SRC_PERF_JSON_CHECK_H_
#define SRC_PERF_JSON_CHECK_H_

#include "src/common/json.h"
#include "src/common/status.h"

namespace mudi {
namespace perf {

// Schema gate for the repo-root throughput trajectory (BENCH_throughput.json,
// schema mudi.bench_throughput.v1). Checks: schema tag, build metadata, and a
// non-empty `records` array where every record names {preset, policy} and
// carries events/sec, sim-seconds-per-wall-second, and decision-latency
// p50/p95. Other keys (such as the frozen `optimizations` array of older
// artifacts) are ignored.
Status ValidateBenchThroughputJson(const JsonValue& root);

}  // namespace perf
}  // namespace mudi

#endif  // SRC_PERF_JSON_CHECK_H_
