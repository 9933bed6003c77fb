#include "src/common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

namespace mudi {

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const Member& member : object_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

namespace {

constexpr int kMaxDepth = 64;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexValue(char c) {
  if (IsDigit(c)) return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue root;
    MUDI_RETURN_IF_ERROR(ParseValue(0, &root));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON document");
    }
    return root;
  }

 private:
  Status Error(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at line " << line << " (offset " << pos_ << "): " << message;
    return InvalidArgumentError(os.str());
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  // Skips a run of digits; returns how many there were.
  size_t SkipDigits() {
    size_t start = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) {
      ++pos_;
    }
    return pos_ - start;
  }

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) {
      return Error("nesting deeper than 64 levels");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(JsonValue* out) {
    bool is_true = ConsumeLiteral("true");
    if (is_true || ConsumeLiteral("false")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = is_true;
      return Status::Ok();
    }
    if (ConsumeLiteral("null")) {
      out->kind_ = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    return Error("invalid literal");
  }

  Status ParseObject(int depth, JsonValue* out) {
    ++pos_;  // '{'
    out->kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      return Status::Ok();
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a string object key");
      }
      JsonValue::Member member;
      MUDI_RETURN_IF_ERROR(ParseString(&member.first));
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      MUDI_RETURN_IF_ERROR(ParseValue(depth + 1, &member.second));
      out->object_.push_back(std::move(member));
      SkipWhitespace();
      if (Consume('}')) {
        return Status::Ok();
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  Status ParseArray(int depth, JsonValue* out) {
    ++pos_;  // '['
    out->kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      return Status::Ok();
    }
    for (;;) {
      out->array_.emplace_back();
      MUDI_RETURN_IF_ERROR(ParseValue(depth + 1, &out->array_.back()));
      SkipWhitespace();
      if (Consume(']')) {
        return Status::Ok();
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      switch (text_[pos_++]) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            int digit = HexValue(text_[pos_ + i]);
            if (digit < 0) {
              return Error("invalid \\u escape");
            }
            code = code * 16 + static_cast<unsigned>(digit);
          }
          pos_ += 4;
          // The writers emit ASCII only; anything wider degrades to '?'.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    Consume('-');
    if (!Consume('0') && SkipDigits() == 0) {
      return Error("invalid value");
    }
    if (Consume('.') && SkipDigits() == 0) {
      return Error("malformed number: no digits after '.'");
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) {
        Consume('-');
      }
      if (SkipDigits() == 0) {
        return Error("malformed number: no exponent digits");
      }
    }
    // The grammar check above ends where strtod would stop on any input
    // that can still parse as a whole document.
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = std::strtod(text_.c_str() + start, nullptr);
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

StatusOr<JsonValue> ParseJson(const std::string& text) { return JsonParser(text).Parse(); }

StatusOr<JsonValue> ParseJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJson(buffer.str());
}

void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void WriteJsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  os << v;
}

}  // namespace mudi
