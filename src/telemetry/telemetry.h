// Telemetry facade: one object bundling a MetricsRegistry and a
// TraceRecorder, handed (as a possibly-null pointer) to every instrumented
// layer. The MUDI_TRACE_* macro layer compiles to an unevaluated-operand
// no-op when the build sets MUDI_TRACING_ENABLED=0 (CMake option
// MUDI_ENABLE_TRACING), so hot paths pay nothing when tracing is off — and
// only a null-pointer check when it is compiled in but disabled at runtime.
//
// Telemetry never feeds back into the simulation (no RNG draws, no event
// scheduling), so enabling or disabling it cannot perturb experiment
// results — a property the telemetry tests pin down.
#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <string>

#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/trace_recorder.h"

// Default to tracing compiled in when the build system does not say.
#if !defined(MUDI_TRACING_ENABLED)
#define MUDI_TRACING_ENABLED 1
#endif

namespace mudi {

struct TelemetryOptions {
  // Master switch: when false the experiment does not record anything and
  // instrumented components receive a null Telemetry pointer. When true,
  // trace events are recorded too if the build has MUDI_ENABLE_TRACING=ON.
  bool enabled = false;
  // 0 = unbounded; otherwise a ring buffer of the newest N events.
  size_t trace_ring_capacity = 0;

  // Output paths, written by Telemetry::Flush(); empty = skip.
  std::string trace_file;    // ".json" -> Chrome trace, anything else -> binary
  std::string metrics_json;  // appends one JSON line per Flush (JSONL)
  std::string metrics_csv;   // snapshot time-series CSV (overwritten)

  // Environment overrides, used by bench binaries without code changes:
  //   MUDI_TRACE_FILE=path      enable + write the trace there
  //   MUDI_TRACE_RING=N         ring-buffer capacity (a non-negative integer;
  //                             anything else is a hard error)
  //   MUDI_TELEMETRY_JSON=path  enable + append a metrics JSON line
  //   MUDI_METRICS_CSV=path     enable + write the snapshot CSV
  void ApplyEnvOverrides();
};

class Telemetry {
 public:
  Telemetry() = default;
  explicit Telemetry(TelemetryOptions options);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool enabled() const { return options_.enabled; }
  bool tracing_enabled() const { return tracing_enabled_; }
  static constexpr bool CompiledWithTracing() { return MUDI_TRACING_ENABLED != 0; }

  const TelemetryOptions& options() const { return options_; }
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  telemetry::TraceRecorder& trace() { return trace_; }
  const telemetry::TraceRecorder& trace() const { return trace_; }

  // Writes every configured output. `label` tags the metrics JSON line
  // (e.g. the policy name of the run that just finished).
  void Flush(const std::string& label = "");

  // Writes the trace to `path` (Chrome JSON if it ends in ".json", binary
  // otherwise). Returns false when the file cannot be opened.
  bool WriteTraceFile(const std::string& path) const;

 private:
  TelemetryOptions options_;
  bool tracing_enabled_ = false;
  telemetry::MetricsRegistry metrics_;
  telemetry::TraceRecorder trace_;
};

namespace telemetry_internal {
// Declared, never defined: MUDI_TRACE_* arguments land in an unevaluated
// sizeof() operand when tracing is compiled out, so they cost nothing yet
// still typecheck and count as used (no -Wunused warnings).
template <typename... Args>
int Sink(Args&&... args);
}  // namespace telemetry_internal

}  // namespace mudi

#if MUDI_TRACING_ENABLED

// MUDI_TRACE_COMPLETE(tel, cat, name, tid, start_ms, dur_ms [, args])
#define MUDI_TRACE_COMPLETE(tel, ...)                        \
  do {                                                       \
    ::mudi::Telemetry* mudi_trace_tel_ = (tel);              \
    if (mudi_trace_tel_ && mudi_trace_tel_->tracing_enabled()) \
      mudi_trace_tel_->trace().Complete(__VA_ARGS__);        \
  } while (0)

// MUDI_TRACE_INSTANT(tel, cat, name, tid, ts_ms [, args])
#define MUDI_TRACE_INSTANT(tel, ...)                         \
  do {                                                       \
    ::mudi::Telemetry* mudi_trace_tel_ = (tel);              \
    if (mudi_trace_tel_ && mudi_trace_tel_->tracing_enabled()) \
      mudi_trace_tel_->trace().Instant(__VA_ARGS__);         \
  } while (0)

// MUDI_TRACE_COUNTER(tel, name, tid, ts_ms, value)
#define MUDI_TRACE_COUNTER(tel, ...)                         \
  do {                                                       \
    ::mudi::Telemetry* mudi_trace_tel_ = (tel);              \
    if (mudi_trace_tel_ && mudi_trace_tel_->tracing_enabled()) \
      mudi_trace_tel_->trace().Counter(__VA_ARGS__);         \
  } while (0)

#else  // !MUDI_TRACING_ENABLED

#define MUDI_TRACE_COMPLETE(tel, ...) \
  ((void)sizeof(::mudi::telemetry_internal::Sink((tel), __VA_ARGS__)))
#define MUDI_TRACE_INSTANT(tel, ...) \
  ((void)sizeof(::mudi::telemetry_internal::Sink((tel), __VA_ARGS__)))
#define MUDI_TRACE_COUNTER(tel, ...) \
  ((void)sizeof(::mudi::telemetry_internal::Sink((tel), __VA_ARGS__)))

#endif  // MUDI_TRACING_ENABLED

#endif  // SRC_TELEMETRY_TELEMETRY_H_
