// Structured diff of two decision traces (tools/trace_diff front-end).
//
// Decisions are aligned positionally on the causal stream — two same-seed
// runs of the same workload emit decisions in the same causal order until
// they diverge, so the first index where the streams disagree IS the first
// divergent decision. Three divergence classes, checked in order:
//   structural — different hook/device/task at the same position (the runs
//                stopped making the same *kind* of decision);
//   choice     — same SelectDevice decision, different chosen device;
//   actions    — same decision point, different actuation sequence.
// Beyond the first divergence, later positions still contribute to the
// aggregate sections (decision counts, per-hook decision-latency deltas,
// SLO attribution from the run summaries) but per-position comparison stops
// being causal and is not reported.
#ifndef SRC_REPLAY_TRACE_DIFF_H_
#define SRC_REPLAY_TRACE_DIFF_H_

#include <optional>
#include <string>
#include <vector>

#include "src/replay/decision_trace.h"

namespace mudi {
namespace replay {

struct DecisionDivergence {
  size_t index = 0;  // position in the aligned decision streams
  uint64_t seq_a = 0;
  uint64_t seq_b = 0;
  std::string kind;  // "structural" | "choice" | "actions"
  std::string detail;
};

// Per-hook decision-latency comparison (wall_us recorded at decision time).
struct HookLatencyDelta {
  HookKind hook = HookKind::kInitialize;
  uint64_t count_a = 0;
  uint64_t count_b = 0;
  double mean_wall_us_a = 0.0;
  double mean_wall_us_b = 0.0;
};

// SLO-attribution delta for one service (from the traces' run summaries).
struct ServiceSloDelta {
  std::string service;
  uint64_t windows_total_a = 0, windows_violated_a = 0;
  uint64_t windows_total_b = 0, windows_violated_b = 0;
};

struct TraceDiffResult {
  std::string policy_a, policy_b;
  std::string mode_a, mode_b;
  size_t decisions_a = 0, decisions_b = 0;
  std::optional<DecisionDivergence> first_divergence;
  size_t diverged_positions = 0;  // aligned positions that disagree
  std::vector<HookLatencyDelta> hook_latency;  // hooks present in either trace
  std::vector<ServiceSloDelta> services;       // empty unless both have summaries
  bool has_summary_a = false, has_summary_b = false;
  double makespan_ms_a = 0.0, makespan_ms_b = 0.0;
  uint64_t tasks_completed_a = 0, tasks_completed_b = 0;
};

TraceDiffResult DiffTraces(const DecisionTrace& a, const DecisionTrace& b);

// Where two action lists first differ ("action i: <label_a> X(...) vs
// <label_b> Y(...)"), or their lengths when one is a prefix of the other.
std::string ActionsDivergence(const std::vector<TraceAction>& a,
                              const std::vector<TraceAction>& b, const char* label_a,
                              const char* label_b);

// Human-readable report (what tools/trace_diff prints).
std::string FormatTraceDiff(const TraceDiffResult& diff);

}  // namespace replay
}  // namespace mudi

#endif  // SRC_REPLAY_TRACE_DIFF_H_
