// The one sanctioned process-environment read.
//
// Environment variables (MUDI_FIT_THREADS, MUDI_BENCH_SCALE, MUDI_TRACE_FILE,
// ...) are ambient configuration: invisible in a command line, easy to lose
// when a run is reproduced, and — once the simulator shards across processes
// — easy to desynchronize between shards. Funneling every read through
// GetEnv keeps the surface auditable: mudi_lint (mudi-determinism) bans raw
// getenv() everywhere else, so grepping for GetEnv call sites enumerates
// every env-derived knob a sharded launcher must capture and replicate.
//
// GetEnv distinguishes unset from set-but-empty (std::nullopt vs ""): callers
// like BenchScale treat an unset variable as a default but an empty string as
// a hard configuration error, so the distinction must not be collapsed here.
#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace mudi {

// Returns the value of environment variable `name`, or std::nullopt when the
// variable is not set at all. An empty value returns an empty string.
inline std::optional<std::string> GetEnv(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return std::nullopt;
  }
  return std::string(value);
}

// Parses `text` as a non-negative decimal integer that spans the whole
// string. Returns std::nullopt for an empty string, a sign, leading or
// trailing characters ("10k", " 5"), or a value past INT64_MAX (the ERANGE
// case strtoll would have clamped): an integer knob read from the
// environment is either exactly right or a hard error at its call site.
inline std::optional<int64_t> ParseNonNegativeInt(std::string_view text) {
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return std::nullopt;
  }
  int64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;  // result_out_of_range is ERANGE
  }
  return value;
}

}  // namespace mudi

#endif  // SRC_COMMON_ENV_H_
