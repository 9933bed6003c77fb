// mudi_lint: repo-specific static analysis for the Mudi codebase.
//
// A deliberately small, libclang-free check engine, now two-pass:
//
//   pass 1  AnalyzeFile() tokenizes each file (comments and string literals
//           stripped, lines tracked) and extracts a FileModel: include
//           directives, MUDI_HOT_PATH regions, annotation lines, and a
//           symbol table of namespace-scope / static-local mutable state and
//           sync-primitive declarations. BuildRepoModel() assembles the
//           per-file models into a RepoModel holding the repo-wide include
//           graph and layer assignment.
//   pass 2  LintFile() runs the per-file checks; LintRepoModel() runs the
//           cross-file checks against the model.
//
// Per-file checks (LintFile):
//
//   mudi-determinism   no wall-clock / ambient-randomness primitives outside
//                      src/common/rng.h and src/common/wallclock.h, and no
//                      raw getenv() outside src/common/env.h. A seeded run
//                      must be byte-identical; rand(), time(),
//                      std::random_device and the std::chrono clocks break
//                      that silently, and unsanctioned env reads hide run
//                      configuration from the replay/shard story.
//   mudi-fit-thread    no std::thread / std::async / <thread> / <future>
//                      outside src/ml/fit_pool.h, the one sanctioned worker
//                      pool. FitPool's deterministic sharding + fixed-order
//                      reduction is what keeps parallel fits bit-identical;
//                      ad-hoc threads would reintroduce scheduling
//                      nondeterminism invisibly.
//   mudi-status        a call to a Status/StatusOr-returning function whose
//                      result is discarded. Backed by [[nodiscard]] on the
//                      types themselves; the lint also catches call sites in
//                      not-yet-compiled code paths and macros.
//   mudi-float-eq      ==/!= against a floating-point literal. Use
//                      ApproxEq/ExactEq from src/common/float_eq.h so intent
//                      (tolerance vs. sentinel) is explicit.
//   mudi-time-unit     a raw numeric literal >= 1000 passed as a time argument
//                      to Simulator scheduling APIs. Large durations must be
//                      spelled with kMsPerSecond/kMsPerMinute/kMsPerHour or a
//                      named constant so the unit is visible.
//   mudi-include       include hygiene: a .cc file includes its own header
//                      first; headers never contain `using namespace`.
//                      FixOwnHeaderFirst() implements `mudi_lint --fix` for
//                      the mechanical own-header-first reordering.
//   mudi-retry         retry/backoff control flow outside src/sim/retry.h:
//                      a while/for condition driven by a retry/attempt/backoff
//                      counter (an ad-hoc retry loop), or a Simulator schedule
//                      call whose argument span performs a KvStore control
//                      read (CtrlGet/CtrlList/GetRequired/List) — naked
//                      polling that re-arms itself. All control-plane
//                      re-attempts go through Retrier so backoff is capped,
//                      deterministic, and counted in ctrl.retries.
//   mudi-trace-sink    decision-trace framing (TraceWriter/EncodeTraceHeader)
//                      outside src/replay/; DecisionRecorder is the one
//                      sanctioned sink.
//
// Cross-file checks (LintRepoModel) — these fence the sharded-simulator
// leap: everything that silently breaks bit-identical distributed
// determinism (hidden shared state, ad-hoc synchronization, layer-crossing
// includes, allocations creeping into the 0-alloc event hot path) is
// invisible to the compiler and only probabilistically visible to TSan,
// so it is fenced statically here instead:
//
//   mudi-layering        src/ is layered
//                          common < telemetry,perf < sim < gpu,workload < ml
//                            < solver < cluster,core,baselines < fault,replay
//                            < exp
//                        and an include must point at the same or a lower
//                        layer; the include graph must also be acyclic.
//   mudi-global-state    namespace-scope / class-static / function-static
//                        mutable state must carry MUDI_SHARD_SHARED("why")
//                        (src/common/thread_annotations.h) on the
//                        declaration line or up to two lines above it. A
//                        shard boundary can only be drawn around state that
//                        is *known*.
//   mudi-sync-primitive  std::mutex / std::atomic / std::condition_variable
//                        (and friends, including their <mutex>/<atomic>/...
//                        headers) only inside the audited allowlist
//                        (logging, FitCache, FitPool, mem_probe/alloc_hook,
//                        thread_annotations), and every declaration there
//                        annotated MUDI_GUARDED_STATE("why").
//   mudi-hot-path-alloc  inside a region bracketed by // MUDI_HOT_PATH and
//                        // MUDI_HOT_PATH_END (to end of file if unclosed),
//                        heap-allocation idioms are flagged: non-placement
//                        `new`, make_unique/make_shared, std::function, a
//                        by-value std::vector/std::string declaration, and
//                        container growth calls (push_back/emplace_back/
//                        push/emplace/insert/resize/reserve/append). This
//                        statically guards the allocation-free steady state
//                        proven at runtime by perf_test's alloc-hook test.
//
// Suppression: append `// NOLINT(mudi-<check>)` to the offending line or put
// `// NOLINTNEXTLINE(mudi-<check>)` on the line above, with a justification
// comment. Bare `// NOLINT` (no check list) suppresses every check on the
// line. Suppressed findings are still returned (with suppressed=true) so the
// CLI can report counts; only unsuppressed findings fail the build.
#ifndef TOOLS_MUDI_LINT_LINT_H_
#define TOOLS_MUDI_LINT_LINT_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace mudi::lint {

enum class Severity {
  kError,    // violates a repo invariant; fails the lint stage
  kWarning,  // style drift; reported but still fails when unsuppressed
};

const char* SeverityName(Severity severity);

struct Finding {
  std::string file;
  int line = 0;
  std::string check;     // e.g. "mudi-determinism"
  Severity severity = Severity::kError;
  std::string message;
  bool suppressed = false;  // an in-scope NOLINT covers this finding

  // "file:line: error: [mudi-check] message" (with a "(suppressed)" suffix).
  std::string ToString() const;
};

// All check ids the engine implements, sorted.
std::vector<std::string> CheckNames();

// Tokenizer output, exposed for tests and future checks.
struct Token {
  enum class Kind { kIdentifier, kNumber, kPunct, kStringLiteral, kCharLiteral };
  Kind kind;
  std::string text;  // literals keep only their quote kind, not their body
  int line = 1;
  bool preprocessor = false;  // token belongs to a preprocessor directive
};

// Tokenizes `content`, stripping comments and literal bodies. NOLINT
// directives found in comments are recorded via `suppressions` (see
// LintFile); tokens never contain comment or string-body text, so banned
// identifiers inside strings do not fire checks.
std::vector<Token> Tokenize(std::string_view content);

// Scans declarations/definitions returning Status or StatusOr<...> and adds
// the bare function names to `out`. Run over every repo file first so
// call-site files can resolve names declared elsewhere.
void CollectStatusFunctions(std::string_view content, std::set<std::string>* out);

// Per-line suppressions parsed from comments: line -> suppressed check ids.
// An empty set means every check is suppressed on that line (bare NOLINT).
using SuppressionMap = std::map<int, std::set<std::string>>;

struct IncludeDirective {
  int line = 0;
  std::string path;
  bool quoted = false;
};

// Pass-1 product: everything the cross-file checks need to know about one
// file, with the token stream discarded.
struct FileModel {
  std::string path;
  bool in_src = false;   // repo-relative path starts with "src/"
  std::string src_dir;   // first component under src/ ("common", ...), else ""
  std::vector<IncludeDirective> includes;

  struct StateSymbol {
    enum class Kind { kGlobal, kClassStatic, kStaticLocal };
    int line = 0;
    std::string name;
    Kind kind = Kind::kGlobal;
    bool annotated = false;  // MUDI_SHARD_SHARED on the line or <=2 above
  };
  std::vector<StateSymbol> state_symbols;  // mutable state only

  struct SyncUse {
    enum class Kind { kDeclaration, kUse, kInclude };
    int line = 0;
    std::string token;  // "mutex", "atomic<...>" type name, or header name
    Kind kind = Kind::kUse;
    bool annotated = false;  // MUDI_GUARDED_STATE on the line or <=2 above
  };
  std::vector<SyncUse> sync_uses;

  struct HotAlloc {
    int line = 0;
    std::string what;  // human-readable idiom ("operator new", ...)
  };
  std::vector<HotAlloc> hot_allocs;  // only sites inside hot regions
  // [begin, end] line ranges of // MUDI_HOT_PATH .. // MUDI_HOT_PATH_END.
  std::vector<std::pair<int, int>> hot_regions;

  SuppressionMap suppressions;
};

// Layer index of a first-level src/ directory, or -1 when the directory is
// not in the layer map (a finding: the map must stay exhaustive).
int LayerOf(std::string_view src_dir);
// The full map, sorted by (layer, dir) — exposed for --layers and tests.
const std::vector<std::pair<std::string, int>>& LayerMap();

// Pass 1 over one file.
FileModel AnalyzeFile(const std::string& path, std::string_view content);

struct RepoModel {
  std::vector<FileModel> files;
};
RepoModel BuildRepoModel(std::vector<FileModel> files);

struct Options {
  // Function names whose return is Status/StatusOr (from
  // CollectStatusFunctions over the whole repo). "Release", "Validate", ...
  std::set<std::string> status_functions;
  // Restrict to a subset of checks; empty means all.
  std::set<std::string> enabled_checks;
};

// Pass 2, cross-file: mudi-layering, mudi-global-state, mudi-sync-primitive,
// mudi-hot-path-alloc. Suppressions from each FileModel are applied; findings
// are sorted by (file, line, check).
std::vector<Finding> LintRepoModel(const RepoModel& model, const Options& options);

// Lints one file (per-file checks only). `path` is the repo-relative path
// (used both for reporting and for path-based allowlists: src/common/rng.h,
// src/common/wallclock.h, src/common/env.h, src/common/float_eq.h,
// src/sim/retry.h, src/ml/fit_pool.h). Findings are sorted by line.
std::vector<Finding> LintFile(const std::string& path, std::string_view content,
                              const Options& options);

// --fix support for the mechanical mudi-include own-header-first reordering.
// Returns the rewritten content when `content` is a .cc/.cpp file whose own
// header is included after other includes; std::nullopt when there is
// nothing to fix (so applying the fix twice is a no-op).
struct IncludeFix {
  std::string fixed_content;
  std::string moved_include;  // the include path that was moved
  int from_line = 0;          // 1-based line it was removed from
  int to_line = 0;            // 1-based line it now occupies
};
std::optional<IncludeFix> FixOwnHeaderFirst(const std::string& path,
                                            const std::string& content);

// Schema gate for `mudi_lint --json` output (schema mudi.lint.v1), in the
// same spirit as ValidateBenchThroughputJson: parse with src/common/json.h
// and verify the document shape, the 12-check catalogue, and that the
// summary counts are consistent with the findings array.
Status ValidateLintJson(const std::string& text);

}  // namespace mudi::lint

#endif  // TOOLS_MUDI_LINT_LINT_H_
