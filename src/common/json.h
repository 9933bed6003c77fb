// The repository's one JSON reader and writer.
//
// Reader: a strict recursive-descent parser into a small DOM for the
// documents the simulator and its tools exchange (BENCH_*.json, perf
// reports, Chrome traces, decision-trace headers, mudi.lint.v1). It follows
// RFC 8259 numbers, rejects raw control bytes inside strings, caps nesting at
// 64 levels (so input from outside the program cannot exhaust the stack) and
// reports errors with a line number. Object members keep document order.
//
// Writer: WriteJsonString / WriteJsonNumber, the only escaping and number
// formatting every JSON emitter uses.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace mudi {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  double NumberOr(double fallback) const { return is_number() ? number_ : fallback; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  // Members in document order (duplicate keys are kept).
  const std::vector<Member>& object() const { return object_; }

  // First member named `key`; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

// Parses one complete JSON document (trailing whitespace allowed, anything
// else after the document is an error). `\uXXXX` escapes below 0x80 decode
// to that byte; others decode to '?'.
StatusOr<JsonValue> ParseJson(const std::string& text);

// Reads and parses a JSON file.
StatusOr<JsonValue> ParseJsonFile(const std::string& path);

// Writes `s` as a quoted JSON string: `"`, `\`, newline and tab get their
// short escapes, every other byte below 0x20 becomes \u00XX.
void WriteJsonString(std::ostream& os, const std::string& s);

// Writes `v` with the stream's formatting; NaN and infinities, which JSON
// cannot represent, are written as 0.
void WriteJsonNumber(std::ostream& os, double v);

}  // namespace mudi

#endif  // SRC_COMMON_JSON_H_
