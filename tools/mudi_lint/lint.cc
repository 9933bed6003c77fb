#include "tools/mudi_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_set>

#include "src/common/json.h"

namespace mudi::lint {

namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

// Parses NOLINT / NOLINTNEXTLINE directives out of one comment's text.
void ParseNolint(std::string_view comment, int line, SuppressionMap* suppressions) {
  size_t pos = 0;
  while ((pos = comment.find("NOLINT", pos)) != std::string_view::npos) {
    size_t after = pos + 6;  // past "NOLINT"
    int target = line;
    if (comment.substr(pos).rfind("NOLINTNEXTLINE", 0) == 0) {
      target = line + 1;
      after = pos + 14;
    }
    std::set<std::string> checks;
    if (after < comment.size() && comment[after] == '(') {
      size_t close = comment.find(')', after);
      if (close != std::string_view::npos) {
        std::string list(comment.substr(after + 1, close - after - 1));
        std::stringstream ss(list);
        std::string item;
        while (std::getline(ss, item, ',')) {
          item.erase(0, item.find_first_not_of(" \t"));
          item.erase(item.find_last_not_of(" \t") + 1);
          if (!item.empty()) {
            checks.insert(item);
          }
        }
        after = close + 1;
      }
    }
    // Convention: an empty set at a line means "suppress every check".
    auto it = suppressions->find(target);
    if (checks.empty()) {
      (*suppressions)[target] = {};
    } else if (it == suppressions->end()) {
      (*suppressions)[target] = std::move(checks);
    } else if (!it->second.empty()) {
      it->second.insert(checks.begin(), checks.end());
    }
    pos = after;
  }
}

struct TokenizeResult {
  std::vector<Token> tokens;
  SuppressionMap suppressions;
  // Raw #include directives in order: (line, path, quoted?).
  struct Include {
    int line;
    std::string path;
    bool quoted;
  };
  std::vector<Include> includes;
  // [begin, end] line ranges bracketed by // MUDI_HOT_PATH markers. An
  // unclosed region runs to the last line of the file.
  std::vector<std::pair<int, int>> hot_regions;
};

// The multi-character operators the checks care about. Longest-match first.
const char* const kMultiPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "==", "!=", "<=", ">=", "&&",
    "||",  "<<",  ">>",  "+=",  "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "++",  "--",
};

TokenizeResult TokenizeImpl(std::string_view src) {
  TokenizeResult result;
  size_t i = 0;
  int line = 1;
  bool in_preprocessor = false;
  bool at_line_start = true;  // only whitespace seen so far on this line
  int open_hot = -1;          // line of an unclosed // MUDI_HOT_PATH marker

  auto push = [&](Token::Kind kind, std::string text, int tok_line) {
    result.tokens.push_back(Token{kind, std::move(text), tok_line, in_preprocessor});
  };

  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      // A preprocessor directive ends at an unescaped newline.
      if (in_preprocessor && !(i >= 2 && src[i - 2] == '\\')) {
        in_preprocessor = false;
      }
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string_view::npos) {
        end = src.size();
      }
      std::string_view body = src.substr(i, end - i);
      ParseNolint(body, line, &result.suppressions);
      // Hot-path region markers live in line comments (mirroring NOLINT).
      // Only a comment whose first word IS the marker counts — prose that
      // merely mentions MUDI_HOT_PATH (like this one) must not open a region.
      std::string_view marker = body.substr(2);
      while (!marker.empty() && (marker.front() == ' ' || marker.front() == '\t')) {
        marker.remove_prefix(1);
      }
      size_t word_end = 0;
      while (word_end < marker.size() && (std::isalnum(static_cast<unsigned char>(marker[word_end])) || marker[word_end] == '_')) {
        ++word_end;
      }
      std::string_view word = marker.substr(0, word_end);
      if (word == "MUDI_HOT_PATH_END") {
        if (open_hot >= 0) {
          result.hot_regions.emplace_back(open_hot, line);
          open_hot = -1;
        }
      } else if (word == "MUDI_HOT_PATH") {
        if (open_hot < 0) {
          open_hot = line;
        }
      }
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      if (end == std::string_view::npos) {
        end = src.size();
      } else {
        end += 2;
      }
      std::string_view body = src.substr(i, end - i);
      ParseNolint(body, line, &result.suppressions);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = end;
      at_line_start = false;
      continue;
    }
    // Preprocessor directive start.
    if (c == '#' && at_line_start) {
      in_preprocessor = true;
      at_line_start = false;
      // Parse #include targets for the include-hygiene check.
      size_t j = i + 1;
      while (j < src.size() && (src[j] == ' ' || src[j] == '\t')) {
        ++j;
      }
      if (src.substr(j).rfind("include", 0) == 0) {
        j += 7;
        while (j < src.size() && (src[j] == ' ' || src[j] == '\t')) {
          ++j;
        }
        if (j < src.size() && (src[j] == '"' || src[j] == '<')) {
          char open = src[j];
          char close = open == '"' ? '"' : '>';
          size_t end = src.find(close, j + 1);
          if (end != std::string_view::npos) {
            result.includes.push_back(
                {line, std::string(src.substr(j + 1, end - j - 1)), open == '"'});
          }
        }
      }
      push(Token::Kind::kPunct, "#", line);
      ++i;
      continue;
    }
    at_line_start = false;
    // Raw string literal: [prefix]R"delim( ... )delim".
    if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"') {
      size_t open_paren = src.find('(', i + 2);
      if (open_paren != std::string_view::npos) {
        std::string delim(src.substr(i + 2, open_paren - (i + 2)));
        std::string terminator = ")" + delim + "\"";
        size_t end = src.find(terminator, open_paren + 1);
        if (end == std::string_view::npos) {
          end = src.size();
        } else {
          end += terminator.size();
        }
        std::string_view body = src.substr(i, end - i);
        line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
        push(Token::Kind::kStringLiteral, "\"\"", line);
        i = end;
        continue;
      }
    }
    // String / char literal (body discarded so embedded code never fires).
    if (c == '"' || c == '\'') {
      char quote = c;
      size_t j = i + 1;
      while (j < src.size() && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < src.size()) {
          ++j;
        }
        if (src[j] == '\n') {
          ++line;
        }
        ++j;
      }
      push(quote == '"' ? Token::Kind::kStringLiteral : Token::Kind::kCharLiteral,
           std::string(1, quote) + quote, line);
      i = j + 1;
      continue;
    }
    // Identifier.
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < src.size() && IsIdentChar(src[j])) {
        ++j;
      }
      push(Token::Kind::kIdentifier, std::string(src.substr(i, j - i)), line);
      i = j;
      continue;
    }
    // Number (pp-number rule: digits, dots, exponents, separators, suffixes).
    if (IsDigit(c) || (c == '.' && i + 1 < src.size() && IsDigit(src[i + 1]))) {
      size_t j = i + 1;
      while (j < src.size()) {
        char n = src[j];
        if (IsIdentChar(n) || n == '.' || n == '\'') {
          ++j;
        } else if ((n == '+' || n == '-') && j > i &&
                   (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                    src[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      push(Token::Kind::kNumber, std::string(src.substr(i, j - i)), line);
      i = j;
      continue;
    }
    // Punctuation, longest multi-char operator first.
    bool matched = false;
    for (const char* op : kMultiPuncts) {
      size_t len = std::char_traits<char>::length(op);
      if (src.substr(i, len) == op) {
        push(Token::Kind::kPunct, op, line);
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      push(Token::Kind::kPunct, std::string(1, c), line);
      ++i;
    }
  }
  if (open_hot >= 0) {
    result.hot_regions.emplace_back(open_hot, line);  // unclosed: runs to EOF
  }
  return result;
}

bool IsFloatLiteral(const std::string& text) {
  if (text.size() > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    return false;  // hex (incl. hex floats; nobody ==-compares those here)
  }
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '.' || c == 'e' || c == 'E' || c == 'f' || c == 'F') {
      return true;
    }
  }
  return false;
}

double NumericValue(const std::string& text) {
  std::string cleaned;
  for (char c : text) {
    if (c != '\'') {
      cleaned.push_back(c);
    }
  }
  return std::strtod(cleaned.c_str(), nullptr);
}

bool CheckEnabled(const Options& options, const std::string& check) {
  return options.enabled_checks.empty() || options.enabled_checks.count(check) != 0;
}

// ---------------------------------------------------------------------------
// mudi-determinism
// ---------------------------------------------------------------------------

// Identifiers banned anywhere (types/objects whose mere presence signals
// ambient randomness or wall-clock time).
const std::unordered_set<std::string>& BannedIdentifiers() {
  static const std::unordered_set<std::string> kSet = {
      "random_device",  "system_clock", "steady_clock", "high_resolution_clock",
      "mt19937",        "mt19937_64",   "minstd_rand",  "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48",  "knuth_b",
      "random_shuffle",
  };
  return kSet;
}

// Identifiers banned as direct calls: `name(` not preceded by `.` or `->`
// (member functions named e.g. `time()` on our own types stay legal).
const std::unordered_set<std::string>& BannedCallIdentifiers() {
  static const std::unordered_set<std::string> kSet = {
      "rand", "srand", "time", "clock", "gettimeofday", "clock_gettime", "timespec_get",
  };
  return kSet;
}

void CheckDeterminism(const std::string& path, const std::vector<Token>& tokens,
                      std::vector<Finding>* findings) {
  if (EndsWith(path, "src/common/rng.h") || EndsWith(path, "src/common/wallclock.h")) {
    return;  // the sanctioned randomness / wall-clock implementations
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdentifier) {
      continue;
    }
    if (BannedIdentifiers().count(tok.text) != 0) {
      findings->push_back(
          {path, tok.line, "mudi-determinism", Severity::kError,
           "'" + tok.text +
               "' breaks seeded reproducibility; use mudi::Rng (src/common/rng.h) for "
               "randomness or mudi::WallTimer (src/common/wallclock.h) for observational "
               "wall-clock timing"});
      continue;
    }
    bool call_like = i + 1 < tokens.size() && tokens[i + 1].kind == Token::Kind::kPunct &&
                     tokens[i + 1].text == "(";
    bool member = i > 0 && tokens[i - 1].kind == Token::Kind::kPunct &&
                  (tokens[i - 1].text == "." || tokens[i - 1].text == "->");
    if (BannedCallIdentifiers().count(tok.text) != 0 && call_like && !member) {
      findings->push_back({path, tok.line, "mudi-determinism", Severity::kError,
                           "call to '" + tok.text +
                               "()' is nondeterministic; simulation code must derive all "
                               "randomness from a seeded mudi::Rng and all time from the "
                               "Simulator virtual clock"});
      continue;
    }
    // Raw environment reads are sanctioned only inside mudi::GetEnv itself.
    if ((tok.text == "getenv" || tok.text == "secure_getenv") && call_like && !member &&
        !EndsWith(path, "src/common/env.h")) {
      findings->push_back(
          {path, tok.line, "mudi-determinism", Severity::kError,
           "raw '" + tok.text +
               "()' call; read the environment through mudi::GetEnv (src/common/env.h) so "
               "every env-derived knob is funneled through one auditable entry point that a "
               "sharded run can capture and replicate"});
    }
  }
}

// ---------------------------------------------------------------------------
// mudi-fit-thread
// ---------------------------------------------------------------------------

// Thread-spawning primitives are confined to src/ml/fit_pool.h, the one
// sanctioned worker pool (deterministic sharding, fixed-order reduction,
// MUDI_FIT_THREADS-bounded). Ad-hoc std::thread/std::async anywhere else
// can introduce scheduling-order nondeterminism that the seeded-run
// bit-identity contract cannot tolerate.
void CheckFitThread(const std::string& path, const std::vector<Token>& tokens,
                    std::vector<Finding>* findings) {
  if (EndsWith(path, "src/ml/fit_pool.h")) {
    return;  // the sanctioned fit worker pool
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdentifier) {
      continue;
    }
    // `#include <thread>` / `<future>`: the headers exist only to spawn.
    if (tok.preprocessor && (tok.text == "thread" || tok.text == "future") && i >= 2 &&
        tokens[i - 1].text == "<" && tokens[i - 2].text == "include") {
      findings->push_back({path, tok.line, "mudi-fit-thread", Severity::kError,
                           "#include <" + tok.text +
                               "> outside src/ml/fit_pool.h; spawn workers only through "
                               "FitPool::ParallelFor so parallelism stays deterministic"});
      continue;
    }
    // `std::thread` / `std::jthread` / `std::async` spawn sites.
    if ((tok.text == "thread" || tok.text == "jthread" || tok.text == "async") && i >= 2 &&
        tokens[i - 1].kind == Token::Kind::kPunct && tokens[i - 1].text == "::" &&
        tokens[i - 2].kind == Token::Kind::kIdentifier && tokens[i - 2].text == "std") {
      findings->push_back({path, tok.line, "mudi-fit-thread", Severity::kError,
                           "'std::" + tok.text +
                               "' outside src/ml/fit_pool.h; spawn workers only through "
                               "FitPool::ParallelFor (src/ml/fit_pool.h) so fits stay "
                               "bit-identical for any MUDI_FIT_THREADS"});
    }
  }
}

// ---------------------------------------------------------------------------
// mudi-status
// ---------------------------------------------------------------------------

const std::unordered_set<std::string>& StatementKeywords() {
  static const std::unordered_set<std::string> kSet = {
      "return",   "if",     "else",    "while",  "for",       "do",      "switch",
      "case",     "break",  "continue", "goto",  "new",       "delete",  "throw",
      "co_return", "co_await", "using", "namespace", "class", "struct",  "enum",
      "template", "typedef", "static",  "const", "constexpr", "auto",    "void",
      "int",      "double", "float",   "bool",   "char",      "unsigned", "signed",
      "long",     "short",  "public",  "private", "protected", "friend", "virtual",
      "explicit", "inline", "operator", "sizeof", "typename", "default",
  };
  return kSet;
}

void CheckStatusDiscard(const std::string& path, const std::vector<Token>& tokens,
                        const Options& options, std::vector<Finding>* findings) {
  if (options.status_functions.empty()) {
    return;
  }
  bool statement_start = true;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.preprocessor) {
      continue;
    }
    if (tok.kind == Token::Kind::kPunct &&
        (tok.text == ";" || tok.text == "{" || tok.text == "}" || tok.text == ":")) {
      statement_start = true;
      continue;
    }
    if (!statement_start) {
      continue;
    }
    statement_start = false;
    if (tok.kind != Token::Kind::kIdentifier || StatementKeywords().count(tok.text) != 0) {
      continue;
    }
    // Parse a postfix chain: ident [args] ((:: | . | ->) ident [args])* ';'
    size_t j = i;
    int chain_line = tok.line;
    std::string last_called;
    std::string current = tok.text;
    ++j;
    while (j < tokens.size()) {
      const Token& t = tokens[j];
      if (t.kind == Token::Kind::kPunct && t.text == "(") {
        int depth = 1;
        ++j;
        while (j < tokens.size() && depth > 0) {
          if (tokens[j].kind == Token::Kind::kPunct) {
            if (tokens[j].text == "(") {
              ++depth;
            } else if (tokens[j].text == ")") {
              --depth;
            }
          }
          ++j;
        }
        last_called = current;
        continue;
      }
      if (t.kind == Token::Kind::kPunct &&
          (t.text == "::" || t.text == "." || t.text == "->") &&
          j + 1 < tokens.size() && tokens[j + 1].kind == Token::Kind::kIdentifier) {
        current = tokens[j + 1].text;
        j += 2;
        continue;
      }
      break;
    }
    if (j < tokens.size() && tokens[j].kind == Token::Kind::kPunct && tokens[j].text == ";" &&
        !last_called.empty() && options.status_functions.count(last_called) != 0) {
      findings->push_back(
          {path, chain_line, "mudi-status", Severity::kError,
           "result of Status-returning call '" + last_called +
               "()' is discarded; use MUDI_CHECK_OK, MUDI_RETURN_IF_ERROR, or an explicit "
               "`(void)` cast with a comment explaining why the error is ignorable"});
    }
  }
}

// ---------------------------------------------------------------------------
// mudi-float-eq
// ---------------------------------------------------------------------------

void CheckFloatEquality(const std::string& path, const std::vector<Token>& tokens,
                        std::vector<Finding>* findings) {
  if (EndsWith(path, "src/common/float_eq.h")) {
    return;  // the sanctioned comparison helpers
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kPunct || (tok.text != "==" && tok.text != "!=")) {
      continue;
    }
    bool float_operand = false;
    if (i > 0 && tokens[i - 1].kind == Token::Kind::kNumber &&
        IsFloatLiteral(tokens[i - 1].text)) {
      float_operand = true;
    }
    size_t r = i + 1;
    if (r < tokens.size() && tokens[r].kind == Token::Kind::kPunct &&
        (tokens[r].text == "-" || tokens[r].text == "+")) {
      ++r;
    }
    if (r < tokens.size() && tokens[r].kind == Token::Kind::kNumber &&
        IsFloatLiteral(tokens[r].text)) {
      float_operand = true;
    }
    if (float_operand) {
      findings->push_back(
          {path, tok.line, "mudi-float-eq", Severity::kError,
           "'" + tok.text +
               "' against a floating-point literal; use ApproxEq (tolerance) or ExactEq "
               "(intentional sentinel compare) from src/common/float_eq.h"});
    }
  }
}

// ---------------------------------------------------------------------------
// mudi-time-unit
// ---------------------------------------------------------------------------

struct TimeApi {
  const char* name;
  int time_args;  // leading arguments that are virtual-time values
};

const TimeApi kTimeApis[] = {
    {"ScheduleAt", 1},
    {"ScheduleAfter", 1},
    {"SchedulePeriodic", 2},
    {"RunUntil", 1},
};

void CheckTimeUnits(const std::string& path, const std::vector<Token>& tokens,
                    std::vector<Finding>* findings) {
  constexpr double kThresholdMs = 1000.0;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdentifier) {
      continue;
    }
    const TimeApi* api = nullptr;
    for (const TimeApi& candidate : kTimeApis) {
      if (tok.text == candidate.name) {
        api = &candidate;
        break;
      }
    }
    if (api == nullptr || tokens[i + 1].kind != Token::Kind::kPunct ||
        tokens[i + 1].text != "(") {
      continue;
    }
    // Scan the leading time arguments (stop at top-level commas).
    int depth = 1;
    int arg_index = 0;
    bool arg_has_ident = false;
    const Token* arg_big_literal = nullptr;
    size_t j = i + 2;
    auto finish_arg = [&]() {
      if (arg_index < api->time_args && arg_big_literal != nullptr && !arg_has_ident) {
        findings->push_back(
            {path, arg_big_literal->line, "mudi-time-unit", Severity::kError,
             "raw millisecond literal '" + arg_big_literal->text + "' passed to " +
                 std::string(api->name) +
                 "; spell durations >= 1s with kMsPerSecond/kMsPerMinute/kMsPerHour or a "
                 "named constant so the unit is visible"});
      }
      ++arg_index;
      arg_has_ident = false;
      arg_big_literal = nullptr;
    };
    while (j < tokens.size() && depth > 0 && arg_index < api->time_args) {
      const Token& t = tokens[j];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") {
          ++depth;
        } else if (t.text == ")" || t.text == "]" || t.text == "}") {
          --depth;
          if (depth == 0) {
            finish_arg();
            break;
          }
        } else if (t.text == "," && depth == 1) {
          finish_arg();
        }
      } else if (t.kind == Token::Kind::kIdentifier) {
        arg_has_ident = true;
      } else if (t.kind == Token::Kind::kNumber && NumericValue(t.text) >= kThresholdMs) {
        arg_big_literal = &t;
      }
      ++j;
    }
  }
}

// ---------------------------------------------------------------------------
// mudi-retry
// ---------------------------------------------------------------------------

// Retry/backoff control flow is confined to src/sim/retry.h (Retrier +
// BackoffDelayMs: capped exponential backoff, deterministic jitter, deadline,
// total_retries() accounting). Everywhere else, two shapes are banned:
//   (a) a while/for whose condition mentions a retry/attempt/backoff counter
//       — an ad-hoc retry loop with its own (unaudited) backoff policy;
//   (b) a Simulator schedule call (ScheduleAfter/ScheduleAt/SchedulePeriodic)
//       whose argument span performs a KvStore control-plane read
//       (CtrlGet/CtrlList/GetRequired/List) — naked polling that re-arms
//       itself instead of going through Retrier, so it neither backs off nor
//       shows up in the ctrl.retries telemetry.

bool IsRetryIdentifier(const std::string& text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return lower.find("retry") != std::string::npos ||
         lower.find("retries") != std::string::npos ||
         lower.find("attempt") != std::string::npos ||
         lower.find("backoff") != std::string::npos;
}

const std::unordered_set<std::string>& KvReadApis() {
  static const std::unordered_set<std::string> kSet = {
      "CtrlGet", "CtrlList", "GetRequired", "List",
  };
  return kSet;
}

void CheckRetry(const std::string& path, const std::vector<Token>& tokens,
                std::vector<Finding>* findings) {
  if (EndsWith(path, "src/sim/retry.h")) {
    return;  // the sanctioned retry/backoff implementation
  }
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdentifier || tokens[i + 1].kind != Token::Kind::kPunct ||
        tokens[i + 1].text != "(") {
      continue;
    }
    bool loop_head = tok.text == "while" || tok.text == "for";
    bool schedule_call = tok.text == "ScheduleAfter" || tok.text == "ScheduleAt" ||
                         tok.text == "SchedulePeriodic";
    if (!loop_head && !schedule_call) {
      continue;
    }
    // Scan the balanced-paren span: for loops that is the condition (plus the
    // init/step of a `for`, which is fine — a retry counter there is still a
    // retry loop); for schedule calls it includes any lambda body argument.
    int depth = 1;
    size_t j = i + 2;
    bool flagged = false;
    while (j < tokens.size() && depth > 0 && !flagged) {
      const Token& t = tokens[j];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "(") {
          ++depth;
        } else if (t.text == ")") {
          --depth;
        }
      } else if (t.kind == Token::Kind::kIdentifier) {
        if (loop_head && IsRetryIdentifier(t.text)) {
          findings->push_back(
              {path, tok.line, "mudi-retry", Severity::kError,
               "ad-hoc retry loop ('" + t.text + "' drives a '" + tok.text +
                   "'); route re-attempts through Retrier (src/sim/retry.h) so backoff "
                   "is capped, deterministically jittered, and counted in ctrl.retries"});
          flagged = true;
        } else if (schedule_call && KvReadApis().count(t.text) != 0 && j > 0 &&
                   tokens[j - 1].kind == Token::Kind::kPunct &&
                   (tokens[j - 1].text == "." || tokens[j - 1].text == "->") &&
                   j + 1 < tokens.size() && tokens[j + 1].kind == Token::Kind::kPunct &&
                   tokens[j + 1].text == "(") {
          findings->push_back(
              {path, t.line, "mudi-retry", Severity::kError,
               "'" + t.text + "()' inside a " + tok.text +
                   " argument is naked KvStore polling; use Retrier::Start "
                   "(src/sim/retry.h) so the re-read backs off and is accounted for"});
          flagged = true;
        }
      }
      ++j;
    }
  }
}

// ---------------------------------------------------------------------------
// mudi-trace-sink
// ---------------------------------------------------------------------------

// Decision-trace emission is confined to src/replay/: DecisionRecorder is the
// sanctioned sink, and the raw framing layer underneath it (TraceWriter +
// EncodeTraceHeader) must not be driven from anywhere else. An ad-hoc writer
// elsewhere would emit oracle observations or policy decisions that skip the
// recorder's causal sequence numbers and header validation, producing trace
// files that ReplaySource and trace_diff cannot align. Read-side APIs
// (ReadDecisionTrace, SummarizeDecisionTrace, DiffTraces) are fine anywhere.
// tests/replay_test.cc is allowlisted: it round-trips the framing on purpose.

bool IsSanctionedTraceSink(const std::string& path) {
  return path.find("src/replay/") != std::string::npos ||
         EndsWith(path, "tests/replay_test.cc");
}

void CheckTraceSink(const std::string& path, const std::vector<Token>& tokens,
                    std::vector<Finding>* findings) {
  if (IsSanctionedTraceSink(path)) {
    return;
  }
  for (const Token& tok : tokens) {
    if (tok.kind != Token::Kind::kIdentifier) {
      continue;
    }
    if (tok.text == "TraceWriter" || tok.text == "EncodeTraceHeader") {
      findings->push_back(
          {path, tok.line, "mudi-trace-sink", Severity::kError,
           "'" + tok.text +
               "' outside src/replay/ is ad-hoc decision-trace emission; record "
               "oracle/policy events through DecisionRecorder "
               "(src/replay/decision_recorder.h) so every record carries the causal "
               "sequence number and validated mudi.decision_trace.v1 framing"});
    }
  }
}

// ---------------------------------------------------------------------------
// mudi-include
// ---------------------------------------------------------------------------

void CheckIncludeHygiene(const std::string& path, const TokenizeResult& tokenized,
                         std::vector<Finding>* findings) {
  bool is_source = EndsWith(path, ".cc") || EndsWith(path, ".cpp");
  bool is_header = EndsWith(path, ".h") || EndsWith(path, ".hpp");
  if (is_source && !tokenized.includes.empty()) {
    // basename without extension
    size_t slash = path.find_last_of('/');
    std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
    size_t dot = base.find_last_of('.');
    std::string own_header = base.substr(0, dot) + ".h";
    for (size_t k = 0; k < tokenized.includes.size(); ++k) {
      const auto& inc = tokenized.includes[k];
      if (!inc.quoted) {
        continue;
      }
      size_t inc_slash = inc.path.find_last_of('/');
      std::string inc_base =
          inc_slash == std::string::npos ? inc.path : inc.path.substr(inc_slash + 1);
      if (inc_base == own_header) {
        if (k != 0) {
          findings->push_back({path, inc.line, "mudi-include", Severity::kWarning,
                               "a .cc file must include its own header first (\"" + inc.path +
                                   "\" found after other includes); this keeps every header "
                                   "self-contained"});
        }
        break;
      }
    }
  }
  if (is_header) {
    const auto& tokens = tokenized.tokens;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind == Token::Kind::kIdentifier && tokens[i].text == "using" &&
          tokens[i + 1].kind == Token::Kind::kIdentifier &&
          tokens[i + 1].text == "namespace") {
        findings->push_back({path, tokens[i].line, "mudi-include", Severity::kWarning,
                             "'using namespace' in a header leaks into every includer; "
                             "qualify names or alias them instead"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 1: model extraction (shared-state symbol table, sync-primitive sites,
// hot-path allocation sites)
// ---------------------------------------------------------------------------

// True when an annotation macro appears on `line` or up to two lines above it
// (the justification string often wraps onto its own line).
bool HasAnnotationNear(const std::set<int>& annotation_lines, int line) {
  auto it = annotation_lines.lower_bound(line - 2);
  return it != annotation_lines.end() && *it <= line;
}

// Named synchronization types under std:: (plus anything starting "atomic":
// atomic<T>, atomic_int, atomic_flag, atomic_ref, atomic_thread_fence, ...).
const std::unordered_set<std::string>& SyncTypeNames() {
  static const std::unordered_set<std::string> kSet = {
      "mutex",        "timed_mutex",        "recursive_mutex",
      "shared_mutex", "shared_timed_mutex", "recursive_timed_mutex",
      "condition_variable", "condition_variable_any", "once_flag",
      "counting_semaphore", "binary_semaphore", "latch", "barrier",
  };
  return kSet;
}

bool IsSyncTypeName(const std::string& text) {
  return SyncTypeNames().count(text) != 0 || text.rfind("atomic", 0) == 0;
}

// Standard headers whose only purpose is synchronization.
const std::unordered_set<std::string>& SyncHeaderNames() {
  static const std::unordered_set<std::string> kSet = {
      "mutex", "atomic", "condition_variable", "shared_mutex",
      "semaphore", "latch", "barrier", "stop_token",
  };
  return kSet;
}

// Identifiers that can never be the name of a declared object.
const std::unordered_set<std::string>& NonCandidateIdents() {
  static const std::unordered_set<std::string> kSet = {
      "nullptr", "true", "false", "this", "auto", "void", "operator",
      "default", "delete", "override", "final", "noexcept", "const",
  };
  return kSet;
}

// Advances past a balanced template-argument list starting at tokens[j] ==
// "<"; returns j unchanged when there is none. Bails at ';'/'{' so a stray
// less-than comparison cannot swallow the rest of the file.
size_t SkipTemplateArgs(const std::vector<Token>& tokens, size_t j) {
  if (j >= tokens.size() || tokens[j].kind != Token::Kind::kPunct || tokens[j].text != "<") {
    return j;
  }
  size_t start = j;
  int depth = 0;
  while (j < tokens.size()) {
    if (tokens[j].kind == Token::Kind::kPunct) {
      const std::string& t = tokens[j].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth <= 0) {
          return j + 1;
        }
      } else if (t == ">>") {
        depth -= 2;
        if (depth <= 0) {
          return j + 1;
        }
      } else if (t == ";" || t == "{" || t == "}") {
        return start;  // not a template-argument list after all
      }
    }
    ++j;
  }
  return start;
}

// Scope kinds tracked while walking brace nesting. The tracker is a
// heuristic (no real parse), tuned so misclassification errs toward false
// negatives: state is only recorded at namespace scope, or with an explicit
// `static`, so a function body mistaken for an expression scope loses a
// finding rather than inventing one.
enum class ScopeKind { kNamespace, kClass, kFunction, kExpr };

void ExtractStateSymbols(const std::vector<Token>& tokens, const std::set<int>& shard_lines,
                         FileModel* model) {
  std::vector<ScopeKind> scopes = {ScopeKind::kNamespace};  // file scope
  std::vector<const Token*> stmt;  // tokens since the last ; { } boundary
  int stmt_depth = 0;              // ( and [ nesting inside the statement
  bool resolved = false;           // statement already yielded its candidate

  auto stmt_has = [&](std::string_view word) {
    for (const Token* t : stmt) {
      if (t->kind == Token::Kind::kIdentifier && t->text == word) {
        return true;
      }
    }
    return false;
  };
  auto clear_stmt = [&] {
    stmt.clear();
    stmt_depth = 0;
    resolved = false;
  };

  auto record = [&](const Token* name_tok) {
    resolved = true;
    if (name_tok == nullptr || name_tok->kind != Token::Kind::kIdentifier ||
        NonCandidateIdents().count(name_tok->text) != 0) {
      return;
    }
    // Statements that are not mutable-object declarations. const/constexpr
    // anywhere in the statement is taken as "immutable" — a deliberate
    // heuristic (`const char* p` is a mutable pointer but reads as config).
    static const char* const kReject[] = {
        "using",     "typedef",   "namespace", "friend",    "template",  "operator",
        "return",    "if",        "while",     "for",       "switch",    "case",
        "goto",      "throw",     "do",        "else",      "break",     "continue",
        "public",    "private",   "protected", "extern",    "const",     "constexpr",
        "constinit", "consteval", "class",     "struct",    "union",     "enum",
        "sizeof",    "new",       "delete",    "try",       "catch",     "requires",
        "concept",   "static_assert", "alignas", "asm",     "co_return", "co_await",
        "co_yield",
    };
    for (const char* w : kReject) {
      if (stmt_has(w)) {
        return;
      }
    }
    ScopeKind scope = scopes.back();
    bool is_static = stmt_has("static");
    FileModel::StateSymbol::Kind kind;
    if (scope == ScopeKind::kNamespace) {
      kind = FileModel::StateSymbol::Kind::kGlobal;  // static or not: shared
    } else if (scope == ScopeKind::kClass) {
      if (!is_static) {
        return;  // plain data member: per-object state, not process-shared
      }
      kind = FileModel::StateSymbol::Kind::kClassStatic;
    } else {
      if (!is_static) {
        return;  // ordinary local
      }
      kind = FileModel::StateSymbol::Kind::kStaticLocal;
    }
    model->state_symbols.push_back({name_tok->line, name_tok->text, kind,
                                    HasAnnotationNear(shard_lines, name_tok->line)});
  };

  // Declared name immediately before a top-level `=` / `{`, skipping a
  // balanced array extent: `int kTable[4] =` resolves to kTable.
  auto decl_name_before = [&]() -> const Token* {
    int depth = 0;
    for (size_t k = stmt.size(); k-- > 0;) {
      const Token* t = stmt[k];
      if (t->kind == Token::Kind::kPunct) {
        if (t->text == "]") {
          ++depth;
        } else if (t->text == "[") {
          --depth;
        } else if (depth == 0) {
          return nullptr;
        }
      } else if (depth == 0) {
        return t->kind == Token::Kind::kIdentifier ? t : nullptr;
      }
    }
    return nullptr;
  };

  // Rule for `;`-terminated statements without an initializer: the last
  // top-level identifier not followed by a call `(` — `HookMarker g_marker;`
  // resolves to g_marker, `DoThing(a, b);` resolves to nothing.
  auto finalize_stmt = [&] {
    if (!resolved && !stmt.empty()) {
      const Token* cand = nullptr;
      bool cand_called = false;
      int depth = 0;
      for (size_t k = 0; k < stmt.size(); ++k) {
        const Token* t = stmt[k];
        if (t->kind == Token::Kind::kPunct) {
          if (t->text == "(") {
            if (depth == 0 && cand != nullptr && k > 0 && stmt[k - 1] == cand) {
              cand_called = true;
            }
            ++depth;
          } else if (t->text == "[") {
            ++depth;
          } else if ((t->text == ")" || t->text == "]") && depth > 0) {
            --depth;
          }
        } else if (t->kind == Token::Kind::kIdentifier && depth == 0) {
          cand = t;
          cand_called = false;
        }
      }
      if (!cand_called) {
        record(cand);
      }
    }
    clear_stmt();
  };

  for (const Token& tok : tokens) {
    if (tok.preprocessor || tok.kind == Token::Kind::kCharLiteral) {
      continue;
    }
    if (tok.kind != Token::Kind::kPunct) {
      stmt.push_back(&tok);
      continue;
    }
    const std::string& t = tok.text;
    if (t == "(" || t == "[") {
      ++stmt_depth;
      stmt.push_back(&tok);
    } else if (t == ")" || t == "]") {
      if (stmt_depth > 0) {
        --stmt_depth;
      }
      stmt.push_back(&tok);
    } else if (t == ";") {
      if (stmt_depth == 0) {
        finalize_stmt();
      } else {
        stmt.push_back(&tok);  // e.g. the ';'s of a for-header
      }
    } else if (t == "=" && stmt_depth == 0) {
      if (!resolved) {
        record(decl_name_before());
      }
      stmt.push_back(&tok);
    } else if (t == ":" && stmt.size() == 1 && stmt[0]->kind == Token::Kind::kIdentifier &&
               (stmt[0]->text == "public" || stmt[0]->text == "private" ||
                stmt[0]->text == "protected")) {
      clear_stmt();  // access specifier: start a fresh statement
    } else if (t == "{") {
      ScopeKind kind = ScopeKind::kExpr;
      if (stmt_depth == 0) {
        const Token* prev = stmt.empty() ? nullptr : stmt.back();
        bool has_paren = false;
        for (const Token* s : stmt) {
          if (s->kind == Token::Kind::kPunct && s->text == "(") {
            has_paren = true;
            break;
          }
        }
        if (stmt_has("namespace")) {
          kind = ScopeKind::kNamespace;
        } else if (!has_paren && (stmt_has("class") || stmt_has("struct") ||
                                  stmt_has("union") || stmt_has("enum"))) {
          kind = ScopeKind::kClass;
        } else if (prev == nullptr ||
                   (prev->kind == Token::Kind::kPunct && prev->text == ")") ||
                   (has_paren && prev->kind == Token::Kind::kIdentifier &&
                    (prev->text == "const" || prev->text == "noexcept" ||
                     prev->text == "override" || prev->text == "final" ||
                     prev->text == "try"))) {
          kind = ScopeKind::kFunction;  // fn body (or a bare block: same rules)
        } else if (prev->kind == Token::Kind::kIdentifier && !resolved) {
          record(decl_name_before());  // brace-init: `std::atomic<int> g{0};`
        }
      }
      scopes.push_back(kind);
      clear_stmt();
    } else if (t == "}") {
      if (scopes.size() > 1) {
        scopes.pop_back();
      }
      clear_stmt();
    } else {
      stmt.push_back(&tok);
    }
  }
}

void ExtractSyncUses(const TokenizeResult& tokenized, const std::set<int>& guarded_lines,
                     FileModel* model) {
  for (const auto& inc : tokenized.includes) {
    if (!inc.quoted && SyncHeaderNames().count(inc.path) != 0) {
      model->sync_uses.push_back(
          {inc.line, inc.path, FileModel::SyncUse::Kind::kInclude, false});
    }
  }
  const auto& tokens = tokenized.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdentifier || tok.preprocessor ||
        !IsSyncTypeName(tok.text)) {
      continue;
    }
    if (!(i >= 2 && tokens[i - 1].kind == Token::Kind::kPunct && tokens[i - 1].text == "::" &&
          tokens[i - 2].kind == Token::Kind::kIdentifier && tokens[i - 2].text == "std")) {
      continue;
    }
    // Declaration vs use: a declaration is `std::sync_type<...> name`, with
    // no pointer/reference binding in between. Everything else (template
    // argument, member access, fence call, parameter reference) is a use.
    size_t j = SkipTemplateArgs(tokens, i + 1);
    bool pointer_like = false;
    while (j < tokens.size() && tokens[j].kind == Token::Kind::kPunct &&
           (tokens[j].text == "*" || tokens[j].text == "&" || tokens[j].text == "&&")) {
      pointer_like = true;
      ++j;
    }
    bool is_decl = !pointer_like && j < tokens.size() &&
                   tokens[j].kind == Token::Kind::kIdentifier &&
                   NonCandidateIdents().count(tokens[j].text) == 0;
    model->sync_uses.push_back(
        {tok.line, tok.text,
         is_decl ? FileModel::SyncUse::Kind::kDeclaration : FileModel::SyncUse::Kind::kUse,
         is_decl && HasAnnotationNear(guarded_lines, tok.line)});
  }
}

void ExtractHotAllocs(const TokenizeResult& tokenized, FileModel* model) {
  if (tokenized.hot_regions.empty()) {
    return;
  }
  auto in_hot = [&](int line) {
    for (const auto& r : tokenized.hot_regions) {
      if (line >= r.first && line <= r.second) {
        return true;
      }
    }
    return false;
  };
  static const std::unordered_set<std::string> kGrowthCalls = {
      "push_back", "emplace_back", "push", "emplace",
      "resize",    "reserve",      "insert", "append",
  };
  const auto& tokens = tokenized.tokens;
  auto add = [&](int line, std::string what) {
    model->hot_allocs.push_back({line, std::move(what)});
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdentifier || tok.preprocessor || !in_hot(tok.line)) {
      continue;
    }
    bool next_is_paren = i + 1 < tokens.size() &&
                         tokens[i + 1].kind == Token::Kind::kPunct &&
                         tokens[i + 1].text == "(";
    if (tok.text == "new") {
      if (!next_is_paren) {  // placement new `new (addr) T` stays legal
        add(tok.line, "'new' expression");
      }
      continue;
    }
    if (tok.text == "make_unique" || tok.text == "make_shared") {
      add(tok.line, "std::" + tok.text);
      continue;
    }
    bool after_std = i >= 2 && tokens[i - 1].kind == Token::Kind::kPunct &&
                     tokens[i - 1].text == "::" &&
                     tokens[i - 2].kind == Token::Kind::kIdentifier &&
                     tokens[i - 2].text == "std";
    if (tok.text == "function" && after_std) {
      add(tok.line, "std::function (type-erased callable; allocates on capture)");
      continue;
    }
    if ((tok.text == "vector" || tok.text == "string") && after_std) {
      size_t j = SkipTemplateArgs(tokens, i + 1);
      bool ref_like = j < tokens.size() && tokens[j].kind == Token::Kind::kPunct &&
                      (tokens[j].text == "&" || tokens[j].text == "*" ||
                       tokens[j].text == "&&");
      if (!ref_like && j < tokens.size() && tokens[j].kind == Token::Kind::kIdentifier &&
          NonCandidateIdents().count(tokens[j].text) == 0) {
        add(tok.line, "by-value std::" + tok.text + " construction");
      }
      continue;
    }
    if (kGrowthCalls.count(tok.text) != 0 && next_is_paren && i > 0 &&
        tokens[i - 1].kind == Token::Kind::kPunct &&
        (tokens[i - 1].text == "." || tokens[i - 1].text == "->")) {
      add(tok.line, "container growth call '" + tok.text + "()'");
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: cross-file checks
// ---------------------------------------------------------------------------

// mudi-layering: up-layer includes plus include-graph cycles (Tarjan SCC over
// the scanned files; only quoted includes that resolve to a scanned path form
// edges, so system headers never participate).
void CheckLayering(const RepoModel& model, std::vector<Finding>* findings) {
  for (const FileModel& f : model.files) {
    if (!f.in_src) {
      continue;  // tests/bench/tools/examples may reach any layer
    }
    int self = LayerOf(f.src_dir);
    if (self < 0) {
      findings->push_back(
          {f.path, 1, "mudi-layering", Severity::kError,
           "src/" + f.src_dir + "/ is not in the layer map; every first-level src/ "
           "directory must be assigned a layer in tools/mudi_lint (LayerMap) before code "
           "can live there"});
      continue;
    }
    for (const auto& inc : f.includes) {
      if (!inc.quoted || inc.path.rfind("src/", 0) != 0) {
        continue;
      }
      size_t slash = inc.path.find('/', 4);
      if (slash == std::string::npos) {
        continue;
      }
      std::string target_dir = inc.path.substr(4, slash - 4);
      int target = LayerOf(target_dir);
      if (target > self) {
        findings->push_back(
            {f.path, inc.line, "mudi-layering", Severity::kError,
             "up-layer include: \"" + inc.path + "\" (src/" + target_dir + ", layer " +
                 std::to_string(target) + ") may not be included from src/" + f.src_dir +
                 " (layer " + std::to_string(self) +
                 "); invert the dependency with an interface in the lower layer or move "
                 "the code"});
      }
    }
  }

  // Cycle detection over every scanned file (not just src/).
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < model.files.size(); ++i) {
    index[model.files[i].path] = i;
  }
  const size_t n = model.files.size();
  std::vector<std::vector<size_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& inc : model.files[i].includes) {
      if (!inc.quoted) {
        continue;
      }
      auto it = index.find(inc.path);
      if (it != index.end()) {
        adj[i].push_back(it->second);
      }
    }
  }
  // Iterative Tarjan (explicit stack; recursion depth is include-chain depth,
  // fine today, but the explicit form is immune to deep vendored trees).
  std::vector<int> idx(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  int counter = 0;
  struct Frame {
    size_t v;
    size_t child;
  };
  for (size_t root = 0; root < n; ++root) {
    if (idx[root] != -1) {
      continue;
    }
    std::vector<Frame> frames{{root, 0}};
    idx[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.child < adj[fr.v].size()) {
        size_t w = adj[fr.v][fr.child++];
        if (idx[w] == -1) {
          idx[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[fr.v] = std::min(low[fr.v], idx[w]);
        }
      } else {
        size_t v = fr.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
        if (low[v] == idx[v]) {
          std::vector<size_t> scc;
          while (true) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == v) {
              break;
            }
          }
          bool self_loop = scc.size() == 1 &&
                           std::find(adj[scc[0]].begin(), adj[scc[0]].end(), scc[0]) !=
                               adj[scc[0]].end();
          if (scc.size() > 1 || self_loop) {
            std::vector<std::string> members;
            members.reserve(scc.size());
            for (size_t w : scc) {
              members.push_back(model.files[w].path);
            }
            std::sort(members.begin(), members.end());
            // Anchor the finding at the anchor file's first include into the
            // cycle, so the report points at an actual edge.
            const std::string& anchor = members.front();
            size_t anchor_idx = index[anchor];
            int line = 1;
            std::set<std::string> member_set(members.begin(), members.end());
            for (const auto& inc : model.files[anchor_idx].includes) {
              if (inc.quoted && member_set.count(inc.path) != 0 &&
                  (scc.size() > 1 || inc.path == anchor)) {
                line = inc.line;
                break;
              }
            }
            std::string chain;
            for (const std::string& m : members) {
              chain += m + " -> ";
            }
            chain += members.front();
            findings->push_back(
                {anchor, line, "mudi-layering", Severity::kError,
                 "include cycle: " + chain +
                     "; break it with a forward declaration or an interface header — a "
                     "cyclic graph has no layer order at all"});
          }
        }
      }
    }
  }
}

void CheckGlobalState(const RepoModel& model, std::vector<Finding>* findings) {
  for (const FileModel& f : model.files) {
    if (!f.in_src) {
      continue;  // tests/bench/tools own their process; no shard boundary
    }
    for (const auto& sym : f.state_symbols) {
      if (sym.annotated) {
        continue;
      }
      const char* kind = "namespace-scope global";
      if (sym.kind == FileModel::StateSymbol::Kind::kClassStatic) {
        kind = "class-static member";
      } else if (sym.kind == FileModel::StateSymbol::Kind::kStaticLocal) {
        kind = "function-static local";
      }
      findings->push_back(
          {f.path, sym.line, "mudi-global-state", Severity::kError,
           std::string(kind) + " '" + sym.name +
               "' is mutable shared state without MUDI_SHARD_SHARED(\"why\") "
               "(src/common/thread_annotations.h); the sharded-simulator audit can only "
               "draw shard boundaries around state it knows about"});
    }
  }
}

// Files audited to hold synchronization primitives. Everything here predates
// the sharding work and is documented (at the declaration, via
// MUDI_GUARDED_STATE) for why the primitive is needed.
bool IsSanctionedSyncFile(const std::string& path) {
  static const char* const kAllow[] = {
      "src/common/logging.cc",          // log-level gate, set by tests/CLIs
      "src/common/thread_annotations.h",
      "src/ml/fit_cache.h",  "src/ml/fit_cache.cc",  // cross-fit memo table
      "src/ml/fit_pool.h",                           // the sanctioned pool
      "src/perf/mem_probe.h", "src/perf/mem_probe.cc",
      "src/perf/alloc_hook.cc",                      // global-new instrumentation
  };
  for (const char* p : kAllow) {
    if (EndsWith(path, p)) {
      return true;
    }
  }
  return false;
}

void CheckSyncPrimitive(const RepoModel& model, std::vector<Finding>* findings) {
  for (const FileModel& f : model.files) {
    if (!f.in_src) {
      continue;
    }
    bool sanctioned = IsSanctionedSyncFile(f.path);
    for (const auto& use : f.sync_uses) {
      if (!sanctioned) {
        std::string what = use.kind == FileModel::SyncUse::Kind::kInclude
                               ? "#include <" + use.token + ">"
                               : "'std::" + use.token + "'";
        findings->push_back(
            {f.path, use.line, "mudi-sync-primitive", Severity::kError,
             what + " outside the audited sync allowlist; simulation code must not "
                    "synchronize ad hoc — the sharded simulator owns cross-shard ordering. "
                    "If this file genuinely needs a primitive, add it to the allowlist in "
                    "tools/mudi_lint (IsSanctionedSyncFile) with review"});
      } else if (use.kind == FileModel::SyncUse::Kind::kDeclaration && !use.annotated) {
        findings->push_back(
            {f.path, use.line, "mudi-sync-primitive", Severity::kError,
             "sync-primitive declaration 'std::" + use.token +
                 "' missing MUDI_GUARDED_STATE(\"why\") "
                 "(src/common/thread_annotations.h); each instance must state what it "
                 "guards and why that survives sharding"});
      }
    }
  }
}

void CheckHotPathAlloc(const RepoModel& model, std::vector<Finding>* findings) {
  for (const FileModel& f : model.files) {
    for (const auto& alloc : f.hot_allocs) {
      findings->push_back(
          {f.path, alloc.line, "mudi-hot-path-alloc", Severity::kError,
           "heap allocation on the event hot path: " + alloc.what +
               " inside a MUDI_HOT_PATH region; the steady-state event loop is "
               "allocation-free (perf_test proves it with the alloc hook) — preallocate, "
               "or NOLINT with a justification if this is a sanctioned cold-path spill"});
    }
  }
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
  }
  return "unknown";
}

std::string Finding::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": " << SeverityName(severity) << ": [" << check << "] "
     << message;
  if (suppressed) {
    os << " (suppressed)";
  }
  return os.str();
}

std::vector<std::string> CheckNames() {
  return {"mudi-determinism",    "mudi-fit-thread", "mudi-float-eq",
          "mudi-global-state",   "mudi-hot-path-alloc", "mudi-include",
          "mudi-layering",       "mudi-retry",      "mudi-status",
          "mudi-sync-primitive", "mudi-time-unit",  "mudi-trace-sink"};
}

std::vector<Token> Tokenize(std::string_view content) {
  return TokenizeImpl(content).tokens;
}

void CollectStatusFunctions(std::string_view content, std::set<std::string>* out) {
  std::vector<Token> tokens = Tokenize(content);
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdentifier ||
        (tok.text != "Status" && tok.text != "StatusOr")) {
      continue;
    }
    size_t j = i + 1;
    if (tok.text == "StatusOr") {
      if (j >= tokens.size() || tokens[j].kind != Token::Kind::kPunct ||
          tokens[j].text != "<") {
        continue;
      }
      int depth = 1;
      ++j;
      while (j < tokens.size() && depth > 0) {
        if (tokens[j].kind == Token::Kind::kPunct) {
          if (tokens[j].text == "<") {
            ++depth;
          } else if (tokens[j].text == ">") {
            --depth;
          } else if (tokens[j].text == ">>") {
            depth -= 2;
          }
        }
        ++j;
      }
    }
    // Optional qualified name: Ident (:: Ident)*, then '('.
    if (j >= tokens.size() || tokens[j].kind != Token::Kind::kIdentifier) {
      continue;
    }
    std::string name = tokens[j].text;
    ++j;
    while (j + 1 < tokens.size() && tokens[j].kind == Token::Kind::kPunct &&
           tokens[j].text == "::" && tokens[j + 1].kind == Token::Kind::kIdentifier) {
      name = tokens[j + 1].text;
      j += 2;
    }
    if (j < tokens.size() && tokens[j].kind == Token::Kind::kPunct && tokens[j].text == "(") {
      out->insert(name);
    }
  }
}

std::vector<Finding> LintFile(const std::string& path, std::string_view content,
                              const Options& options) {
  TokenizeResult tokenized = TokenizeImpl(content);
  std::vector<Finding> findings;
  if (CheckEnabled(options, "mudi-determinism")) {
    CheckDeterminism(path, tokenized.tokens, &findings);
  }
  if (CheckEnabled(options, "mudi-fit-thread")) {
    CheckFitThread(path, tokenized.tokens, &findings);
  }
  if (CheckEnabled(options, "mudi-status")) {
    CheckStatusDiscard(path, tokenized.tokens, options, &findings);
  }
  if (CheckEnabled(options, "mudi-float-eq")) {
    CheckFloatEquality(path, tokenized.tokens, &findings);
  }
  if (CheckEnabled(options, "mudi-time-unit")) {
    CheckTimeUnits(path, tokenized.tokens, &findings);
  }
  if (CheckEnabled(options, "mudi-retry")) {
    CheckRetry(path, tokenized.tokens, &findings);
  }
  if (CheckEnabled(options, "mudi-trace-sink")) {
    CheckTraceSink(path, tokenized.tokens, &findings);
  }
  if (CheckEnabled(options, "mudi-include")) {
    CheckIncludeHygiene(path, tokenized, &findings);
  }
  // Apply suppressions.
  for (Finding& f : findings) {
    auto it = tokenized.suppressions.find(f.line);
    if (it != tokenized.suppressions.end() &&
        (it->second.empty() || it->second.count(f.check) != 0)) {
      f.suppressed = true;
    }
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.check < b.check;
  });
  return findings;
}

const std::vector<std::pair<std::string, int>>& LayerMap() {
  // The layer order mirrors DESIGN.md §15: a file may include only its own
  // layer or below. Directories sharing a number are peers that must not
  // include each other's headers either — but peer edges are rare enough
  // (and legitimate enough, e.g. cluster <-> core) that only the numeric
  // order is enforced.
  static const std::vector<std::pair<std::string, int>> kMap = {
      {"common", 0},
      {"perf", 1},      {"telemetry", 1},
      {"sim", 2},
      {"gpu", 3},       {"workload", 3},
      {"ml", 4},
      {"solver", 5},
      {"baselines", 6}, {"cluster", 6}, {"core", 6},
      {"fault", 7},     {"replay", 7},
      {"exp", 8},
  };
  return kMap;
}

int LayerOf(std::string_view src_dir) {
  for (const auto& [dir, layer] : LayerMap()) {
    if (dir == src_dir) {
      return layer;
    }
  }
  return -1;
}

FileModel AnalyzeFile(const std::string& path, std::string_view content) {
  TokenizeResult tokenized = TokenizeImpl(content);
  FileModel model;
  model.path = path;
  model.in_src = path.rfind("src/", 0) == 0;
  if (model.in_src) {
    size_t slash = path.find('/', 4);
    if (slash != std::string::npos) {
      model.src_dir = path.substr(4, slash - 4);
    }
  }
  model.includes.reserve(tokenized.includes.size());
  for (const auto& inc : tokenized.includes) {
    model.includes.push_back({inc.line, inc.path, inc.quoted});
  }
  model.hot_regions = tokenized.hot_regions;
  model.suppressions = tokenized.suppressions;

  std::set<int> shard_lines;
  std::set<int> guarded_lines;
  for (const Token& t : tokenized.tokens) {
    if (t.kind == Token::Kind::kIdentifier && !t.preprocessor) {
      if (t.text == "MUDI_SHARD_SHARED") {
        shard_lines.insert(t.line);
      } else if (t.text == "MUDI_GUARDED_STATE") {
        guarded_lines.insert(t.line);
      }
    }
  }
  ExtractStateSymbols(tokenized.tokens, shard_lines, &model);
  ExtractSyncUses(tokenized, guarded_lines, &model);
  ExtractHotAllocs(tokenized, &model);
  return model;
}

RepoModel BuildRepoModel(std::vector<FileModel> files) {
  RepoModel model;
  model.files = std::move(files);
  std::sort(model.files.begin(), model.files.end(),
            [](const FileModel& a, const FileModel& b) { return a.path < b.path; });
  return model;
}

std::vector<Finding> LintRepoModel(const RepoModel& model, const Options& options) {
  std::vector<Finding> findings;
  if (CheckEnabled(options, "mudi-layering")) {
    CheckLayering(model, &findings);
  }
  if (CheckEnabled(options, "mudi-global-state")) {
    CheckGlobalState(model, &findings);
  }
  if (CheckEnabled(options, "mudi-sync-primitive")) {
    CheckSyncPrimitive(model, &findings);
  }
  if (CheckEnabled(options, "mudi-hot-path-alloc")) {
    CheckHotPathAlloc(model, &findings);
  }
  std::map<std::string, const SuppressionMap*> by_path;
  for (const FileModel& f : model.files) {
    by_path[f.path] = &f.suppressions;
  }
  for (Finding& f : findings) {
    auto it = by_path.find(f.file);
    if (it == by_path.end()) {
      continue;
    }
    auto sit = it->second->find(f.line);
    if (sit != it->second->end() && (sit->second.empty() || sit->second.count(f.check) != 0)) {
      f.suppressed = true;
    }
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.check < b.check;
  });
  return findings;
}

namespace {

// Parses one source line as an #include directive; returns (quoted, path).
std::optional<std::pair<bool, std::string>> ParseIncludeLine(const std::string& line) {
  size_t i = line.find_first_not_of(" \t");
  if (i == std::string::npos || line[i] != '#') {
    return std::nullopt;
  }
  i = line.find_first_not_of(" \t", i + 1);
  if (i == std::string::npos || line.compare(i, 7, "include") != 0) {
    return std::nullopt;
  }
  i = line.find_first_not_of(" \t", i + 7);
  if (i == std::string::npos || (line[i] != '"' && line[i] != '<')) {
    return std::nullopt;
  }
  char close = line[i] == '"' ? '"' : '>';
  size_t end = line.find(close, i + 1);
  if (end == std::string::npos) {
    return std::nullopt;
  }
  return std::make_pair(line[i] == '"', line.substr(i + 1, end - i - 1));
}

}  // namespace

std::optional<IncludeFix> FixOwnHeaderFirst(const std::string& path,
                                            const std::string& content) {
  if (!EndsWith(path, ".cc") && !EndsWith(path, ".cpp")) {
    return std::nullopt;
  }
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  std::string own_header = base.substr(0, base.find_last_of('.')) + ".h";

  std::vector<std::string> lines;
  bool trailing_newline = !content.empty() && content.back() == '\n';
  for (size_t pos = 0; pos < content.size();) {
    size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(content.substr(pos));
      break;
    }
    lines.push_back(content.substr(pos, nl - pos));
    pos = nl + 1;
  }

  int first_include = -1;
  int own_index = -1;
  for (size_t k = 0; k < lines.size(); ++k) {
    auto inc = ParseIncludeLine(lines[k]);
    if (!inc.has_value()) {
      continue;
    }
    if (first_include < 0) {
      first_include = static_cast<int>(k);
    }
    if (own_index < 0 && inc->first) {
      size_t inc_slash = inc->second.find_last_of('/');
      std::string inc_base = inc_slash == std::string::npos
                                 ? inc->second
                                 : inc->second.substr(inc_slash + 1);
      if (inc_base == own_header) {
        own_index = static_cast<int>(k);
      }
    }
  }
  if (own_index < 0 || first_include < 0 || own_index == first_include) {
    return std::nullopt;  // no own header, or already first: nothing to do
  }

  IncludeFix fix;
  fix.moved_include = ParseIncludeLine(lines[own_index])->second;
  fix.from_line = own_index + 1;
  fix.to_line = first_include + 1;
  std::string moved = lines[own_index];
  lines.erase(lines.begin() + own_index);
  lines.insert(lines.begin() + first_include, moved);

  std::string out;
  out.reserve(content.size());
  for (size_t k = 0; k < lines.size(); ++k) {
    out += lines[k];
    if (k + 1 < lines.size() || trailing_newline) {
      out += '\n';
    }
  }
  fix.fixed_content = std::move(out);
  return fix;
}

Status ValidateLintJson(const std::string& text) {
  StatusOr<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return InvalidArgumentError("lint json: root must be an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string() != "mudi.lint.v1") {
    return InvalidArgumentError("lint json: schema must be the string \"mudi.lint.v1\"");
  }
  const JsonValue* files_scanned = root.Find("files_scanned");
  if (files_scanned == nullptr || !files_scanned->is_number() ||
      files_scanned->number() < 0) {
    return InvalidArgumentError("lint json: files_scanned must be a non-negative number");
  }

  const std::vector<std::string> names = CheckNames();
  const JsonValue* checks = root.Find("checks");
  if (checks == nullptr || !checks->is_array() || checks->array().size() != names.size()) {
    return InvalidArgumentError("lint json: checks must be an array of exactly " +
                                std::to_string(names.size()) + " entries");
  }
  double per_check_suppressed = 0;
  double per_check_unsuppressed = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const JsonValue& entry = checks->array()[i];
    if (!entry.is_object()) {
      return InvalidArgumentError("lint json: checks[" + std::to_string(i) +
                                  "] must be an object");
    }
    const JsonValue* name = entry.Find("name");
    if (name == nullptr || !name->is_string() || name->string() != names[i]) {
      return InvalidArgumentError("lint json: checks[" + std::to_string(i) +
                                  "].name must be \"" + names[i] +
                                  "\" (the catalogue, in sorted order)");
    }
    for (const char* key : {"unsuppressed", "suppressed"}) {
      const JsonValue* count = entry.Find(key);
      if (count == nullptr || !count->is_number() || count->number() < 0) {
        return InvalidArgumentError("lint json: checks[" + std::to_string(i) + "]." + key +
                                    " must be a non-negative number");
      }
    }
    per_check_unsuppressed += entry.Find("unsuppressed")->number();
    per_check_suppressed += entry.Find("suppressed")->number();
  }

  const JsonValue* findings = root.Find("findings");
  if (findings == nullptr || !findings->is_array()) {
    return InvalidArgumentError("lint json: findings must be an array");
  }
  const std::set<std::string> catalogue(names.begin(), names.end());
  double suppressed_total = 0;
  double unsuppressed_total = 0;
  for (size_t i = 0; i < findings->array().size(); ++i) {
    const JsonValue& f = findings->array()[i];
    std::string where = "lint json: findings[" + std::to_string(i) + "]";
    if (!f.is_object()) {
      return InvalidArgumentError(where + " must be an object");
    }
    const JsonValue* file = f.Find("file");
    if (file == nullptr || !file->is_string() || file->string().empty()) {
      return InvalidArgumentError(where + ".file must be a non-empty string");
    }
    const JsonValue* line = f.Find("line");
    if (line == nullptr || !line->is_number() || line->number() < 1) {
      return InvalidArgumentError(where + ".line must be a number >= 1");
    }
    const JsonValue* check = f.Find("check");
    if (check == nullptr || !check->is_string() ||
        catalogue.count(check->string()) == 0) {
      return InvalidArgumentError(where + ".check must name a catalogue check");
    }
    const JsonValue* severity = f.Find("severity");
    if (severity == nullptr || !severity->is_string() ||
        (severity->string() != "error" && severity->string() != "warning")) {
      return InvalidArgumentError(where + ".severity must be \"error\" or \"warning\"");
    }
    const JsonValue* suppressed = f.Find("suppressed");
    if (suppressed == nullptr || !suppressed->is_bool()) {
      return InvalidArgumentError(where + ".suppressed must be a boolean");
    }
    const JsonValue* message = f.Find("message");
    if (message == nullptr || !message->is_string() || message->string().empty()) {
      return InvalidArgumentError(where + ".message must be a non-empty string");
    }
    if (suppressed->boolean()) {
      suppressed_total += 1;
    } else {
      unsuppressed_total += 1;
    }
  }

  const JsonValue* total_suppressed = root.Find("suppressed");
  const JsonValue* total_unsuppressed = root.Find("unsuppressed");
  if (total_suppressed == nullptr || !total_suppressed->is_number() ||
      total_unsuppressed == nullptr || !total_unsuppressed->is_number()) {
    return InvalidArgumentError("lint json: suppressed/unsuppressed totals must be numbers");
  }
  if (total_suppressed->number() != suppressed_total ||
      total_unsuppressed->number() != unsuppressed_total) {
    return InvalidArgumentError(
        "lint json: suppressed/unsuppressed totals disagree with the findings array");
  }
  if (per_check_suppressed != suppressed_total ||
      per_check_unsuppressed != unsuppressed_total) {
    return InvalidArgumentError(
        "lint json: per-check counts disagree with the findings array");
  }
  return Status::Ok();
}

}  // namespace mudi::lint
