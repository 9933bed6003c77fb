#include "src/replay/trace_diff.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_map>

namespace mudi {
namespace replay {

namespace {

std::string DescribeDecision(const TraceDecision& d) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s(device=%d, task=%d)",
                HookName(static_cast<HookKind>(d.hook)), d.device_id, d.task_id);
  return buf;
}

// The candidate score a trace attached to `device_id` at this decision, if
// the policy reported one (DeviceSelector does; baselines may not).
std::optional<double> CandidateScore(const TraceDecision& d, int device_id) {
  for (const TraceCandidate& c : d.candidates) {
    if (c.device_id == device_id) {
      return c.score;
    }
  }
  return std::nullopt;
}

std::string ChoiceDetail(const TraceDecision& a, const TraceDecision& b) {
  std::ostringstream out;
  out << "chose device " << a.chosen_device << " vs " << b.chosen_device;
  auto score_a = CandidateScore(a, a.chosen_device);
  auto score_b = CandidateScore(b, b.chosen_device);
  if (score_a.has_value() || score_b.has_value()) {
    out << " (scores:";
    if (score_a.has_value()) {
      out << " A[" << a.chosen_device << "]=" << *score_a;
    }
    if (auto cross = CandidateScore(a, b.chosen_device)) {
      out << " A[" << b.chosen_device << "]=" << *cross;
    }
    if (score_b.has_value()) {
      out << " B[" << b.chosen_device << "]=" << *score_b;
    }
    if (auto cross = CandidateScore(b, a.chosen_device)) {
      out << " B[" << a.chosen_device << "]=" << *cross;
    }
    out << ")";
  }
  return out.str();
}

struct HookAccum {
  uint64_t count = 0;
  double total_wall_us = 0.0;
};

}  // namespace

std::string ActionsDivergence(const std::vector<TraceAction>& a,
                              const std::vector<TraceAction>& b, const char* label_a,
                              const char* label_b) {
  char buf[256];
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const TraceAction& x = a[i];
    const TraceAction& y = b[i];
    if (x != y) {
      std::snprintf(buf, sizeof(buf),
                    "action %zu: %s %s(dev=%d, arg=%d, value=%.6g) vs %s %s(dev=%d, arg=%d, "
                    "value=%.6g)",
                    i, label_a, ActionName(static_cast<ActionKind>(x.kind)), x.device_id, x.arg,
                    x.value, label_b, ActionName(static_cast<ActionKind>(y.kind)), y.device_id,
                    y.arg, y.value);
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "%s took %zu action(s), %s took %zu", label_a, a.size(),
                label_b, b.size());
  return buf;
}

TraceDiffResult DiffTraces(const DecisionTrace& a, const DecisionTrace& b) {
  TraceDiffResult diff;
  diff.policy_a = a.header.policy;
  diff.policy_b = b.header.policy;
  diff.mode_a = a.header.mode;
  diff.mode_b = b.header.mode;
  diff.decisions_a = a.decisions.size();
  diff.decisions_b = b.decisions.size();

  size_t aligned = std::min(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < aligned; ++i) {
    const TraceDecision& da = a.decisions[i];
    const TraceDecision& db = b.decisions[i];
    std::string kind, detail;
    if (da.hook != db.hook || da.device_id != db.device_id || da.task_id != db.task_id) {
      kind = "structural";
      detail = "A " + DescribeDecision(da) + " vs B " + DescribeDecision(db);
    } else if (da.chosen_device != db.chosen_device) {
      kind = "choice";
      detail = ChoiceDetail(da, db);
    } else if (da.actions != db.actions) {
      kind = "actions";
      detail = ActionsDivergence(da.actions, db.actions, "A", "B");
    } else {
      continue;
    }
    ++diff.diverged_positions;
    if (!diff.first_divergence.has_value()) {
      DecisionDivergence first;
      first.index = i;
      first.seq_a = da.seq;
      first.seq_b = db.seq;
      first.kind = std::move(kind);
      first.detail = std::move(detail);
      diff.first_divergence = std::move(first);
    }
  }
  // Unequal stream lengths are themselves a (structural) divergence when no
  // earlier one exists.
  if (!diff.first_divergence.has_value() && a.decisions.size() != b.decisions.size()) {
    DecisionDivergence first;
    first.index = aligned;
    first.seq_a = aligned < a.decisions.size() ? a.decisions[aligned].seq : 0;
    first.seq_b = aligned < b.decisions.size() ? b.decisions[aligned].seq : 0;
    first.kind = "structural";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "stream lengths differ: A has %zu decisions, B has %zu",
                  a.decisions.size(), b.decisions.size());
    first.detail = buf;
    diff.first_divergence = std::move(first);
    ++diff.diverged_positions;
  }

  std::array<HookAccum, kNumHookKinds> accum_a{};
  std::array<HookAccum, kNumHookKinds> accum_b{};
  for (const TraceDecision& d : a.decisions) {
    if (d.hook < kNumHookKinds) {
      ++accum_a[d.hook].count;
      accum_a[d.hook].total_wall_us += d.wall_us;
    }
  }
  for (const TraceDecision& d : b.decisions) {
    if (d.hook < kNumHookKinds) {
      ++accum_b[d.hook].count;
      accum_b[d.hook].total_wall_us += d.wall_us;
    }
  }
  for (size_t h = 0; h < kNumHookKinds; ++h) {
    if (accum_a[h].count == 0 && accum_b[h].count == 0) {
      continue;
    }
    HookLatencyDelta delta;
    delta.hook = static_cast<HookKind>(h);
    delta.count_a = accum_a[h].count;
    delta.count_b = accum_b[h].count;
    delta.mean_wall_us_a =
        accum_a[h].count > 0 ? accum_a[h].total_wall_us / static_cast<double>(accum_a[h].count)
                             : 0.0;
    delta.mean_wall_us_b =
        accum_b[h].count > 0 ? accum_b[h].total_wall_us / static_cast<double>(accum_b[h].count)
                             : 0.0;
    diff.hook_latency.push_back(delta);
  }

  diff.has_summary_a = a.summary.has_value();
  diff.has_summary_b = b.summary.has_value();
  if (a.summary.has_value()) {
    diff.makespan_ms_a = a.summary->makespan_ms;
    diff.tasks_completed_a = a.summary->tasks_completed;
  }
  if (b.summary.has_value()) {
    diff.makespan_ms_b = b.summary->makespan_ms;
    diff.tasks_completed_b = b.summary->tasks_completed;
  }
  if (a.summary.has_value() && b.summary.has_value()) {
    std::unordered_map<std::string, const TraceServiceSummary*> by_name;
    for (const TraceServiceSummary& s : b.summary->services) {
      by_name[s.service] = &s;
    }
    for (const TraceServiceSummary& s : a.summary->services) {
      ServiceSloDelta delta;
      delta.service = s.service;
      delta.windows_total_a = s.windows_total;
      delta.windows_violated_a = s.windows_violated;
      auto it = by_name.find(s.service);
      if (it != by_name.end()) {
        delta.windows_total_b = it->second->windows_total;
        delta.windows_violated_b = it->second->windows_violated;
      }
      diff.services.push_back(std::move(delta));
    }
  }
  return diff;
}

std::string FormatTraceDiff(const TraceDiffResult& diff) {
  std::ostringstream out;
  out << "trace A: policy=" << diff.policy_a << " mode=" << diff.mode_a
      << " decisions=" << diff.decisions_a << "\n";
  out << "trace B: policy=" << diff.policy_b << " mode=" << diff.mode_b
      << " decisions=" << diff.decisions_b << "\n";

  if (diff.first_divergence.has_value()) {
    const DecisionDivergence& f = *diff.first_divergence;
    out << "\nFIRST DIVERGENCE at decision #" << f.index << " (seq A=" << f.seq_a
        << ", B=" << f.seq_b << ") [" << f.kind << "]\n  " << f.detail << "\n";
    out << "diverged positions: " << diff.diverged_positions << "\n";
  } else {
    out << "\nno divergence: the decision streams are identical\n";
  }

  out << "\nper-hook decision latency (mean wall us, A vs B):\n";
  for (const HookLatencyDelta& h : diff.hook_latency) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-22s A: %6llu x %9.1f us   B: %6llu x %9.1f us\n",
                  HookName(h.hook), static_cast<unsigned long long>(h.count_a), h.mean_wall_us_a,
                  static_cast<unsigned long long>(h.count_b), h.mean_wall_us_b);
    out << buf;
  }

  if (diff.has_summary_a && diff.has_summary_b) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\nrun outcome: makespan %.1f ms vs %.1f ms, tasks completed %llu vs %llu\n",
                  diff.makespan_ms_a, diff.makespan_ms_b,
                  static_cast<unsigned long long>(diff.tasks_completed_a),
                  static_cast<unsigned long long>(diff.tasks_completed_b));
    out << buf;
    out << "SLO attribution (violated/total windows, A vs B):\n";
    for (const ServiceSloDelta& s : diff.services) {
      std::snprintf(buf, sizeof(buf), "  %-16s %llu/%llu vs %llu/%llu\n", s.service.c_str(),
                    static_cast<unsigned long long>(s.windows_violated_a),
                    static_cast<unsigned long long>(s.windows_total_a),
                    static_cast<unsigned long long>(s.windows_violated_b),
                    static_cast<unsigned long long>(s.windows_total_b));
      out << buf;
    }
  } else if (diff.has_summary_a != diff.has_summary_b) {
    out << "\nrun outcome: only trace " << (diff.has_summary_a ? "A" : "B")
        << " carries a run summary (counterfactual traces have none)\n";
  }
  return out.str();
}

}  // namespace replay
}  // namespace mudi
