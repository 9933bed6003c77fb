// mudi_lint CLI: scans the repo (default: src/ tests/ bench/ tools/
// examples/) and reports repo-invariant violations. Exits non-zero when any unsuppressed
// finding remains — scripts/check.sh runs this as its `== lint ==` stage.
//
// Usage:
//   mudi_lint [--root DIR] [--json] [--check mudi-NAME]... [--list-checks]
//             [--fix] [--validate FILE] [path...]
//
// The run is two-pass: pass 1 reads every file, collects Status-returning
// function names, and builds the repo model (include graph, layer map,
// shared-state symbol table, hot-path regions); pass 2 runs the per-file
// checks plus the cross-file checks (mudi-layering, mudi-global-state,
// mudi-sync-primitive, mudi-hot-path-alloc) against that model.
//
// --fix applies the mechanical own-header-first include reordering in place
// (idempotent; prints one summary line per rewritten file) before linting.
// --validate FILE checks a previously emitted --json report against the
// mudi.lint.v1 schema and exits (0 valid / 1 invalid), the same gate shape
// as `bench_throughput --validate`.
//
// Paths are files or directories relative to --root (default: the current
// directory). See tools/mudi_lint/lint.h for the check catalogue and the
// NOLINT(mudi-<check>) suppression syntax.
#include "tools/mudi_lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace fs = std::filesystem;

namespace {

bool HasLintableExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

std::string ReadFile(const fs::path& p, bool* ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream os;
  os << in.rdbuf();
  *ok = true;
  return os.str();
}

// A quoted, escaped JSON string for the --json report.
std::string JsonQuoted(const std::string& s) {
  std::ostringstream os;
  mudi::WriteJsonString(os, s);
  return os.str();
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: mudi_lint [--root DIR] [--json] [--check mudi-NAME]... "
               "[--list-checks] [--fix] [--validate FILE] [path...]\n"
               "default paths: src tests bench tools examples\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool json = false;
  bool fix = false;
  std::string validate_path;
  std::set<std::string> enabled_checks;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--validate" && i + 1 < argc) {
      validate_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      enabled_checks.insert(argv[++i]);
    } else if (arg == "--list-checks") {
      for (const std::string& name : mudi::lint::CheckNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mudi_lint: unknown flag '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (!validate_path.empty()) {
    bool ok = false;
    std::string text = ReadFile(validate_path, &ok);
    if (!ok) {
      std::fprintf(stderr, "mudi_lint: cannot read %s\n", validate_path.c_str());
      return 2;
    }
    mudi::Status status = mudi::lint::ValidateLintJson(text);
    if (!status.ok()) {
      std::fprintf(stderr, "mudi_lint: %s: %s\n", validate_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("mudi_lint: %s: valid mudi.lint.v1\n", validate_path.c_str());
    return 0;
  }

  if (paths.empty()) {
    paths = {"src", "tests", "bench", "tools", "examples"};
  }
  for (const std::string& check : enabled_checks) {
    const auto known = mudi::lint::CheckNames();
    if (std::find(known.begin(), known.end(), check) == known.end()) {
      std::fprintf(stderr, "mudi_lint: unknown check '%s' (see --list-checks)\n",
                   check.c_str());
      return 2;
    }
  }

  const fs::path root_path(root);
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    fs::path full = root_path / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (fs::recursive_directory_iterator it(full, ec), end; it != end;
           it.increment(ec)) {
        if (!ec && it->is_regular_file() && HasLintableExtension(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(full, ec)) {
      files.push_back(full);
    } else {
      std::fprintf(stderr, "mudi_lint: no such file or directory: %s\n",
                   full.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: read every file, apply --fix rewrites, collect Status-returning
  // function names, and build the per-file models for the cross-file checks.
  mudi::lint::Options options;
  options.enabled_checks = enabled_checks;
  std::vector<std::pair<std::string, std::string>> contents;  // (rel path, text)
  std::vector<mudi::lint::FileModel> models;
  contents.reserve(files.size());
  models.reserve(files.size());
  size_t fixed_files = 0;
  for (const fs::path& file : files) {
    bool ok = false;
    std::string text = ReadFile(file, &ok);
    if (!ok) {
      std::fprintf(stderr, "mudi_lint: cannot read %s\n", file.string().c_str());
      return 2;
    }
    std::error_code ec;
    fs::path rel = fs::relative(file, root_path, ec);
    std::string rel_str = ec ? file.string() : rel.generic_string();
    if (fix) {
      auto rewritten = mudi::lint::FixOwnHeaderFirst(rel_str, text);
      if (rewritten.has_value()) {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        if (!out) {
          std::fprintf(stderr, "mudi_lint: cannot write %s\n", file.string().c_str());
          return 2;
        }
        out << rewritten->fixed_content;
        out.close();
        std::printf("mudi_lint: fixed %s: moved \"%s\" from line %d to line %d\n",
                    rel_str.c_str(), rewritten->moved_include.c_str(),
                    rewritten->from_line, rewritten->to_line);
        text = std::move(rewritten->fixed_content);
        ++fixed_files;
      }
    }
    mudi::lint::CollectStatusFunctions(text, &options.status_functions);
    models.push_back(mudi::lint::AnalyzeFile(rel_str, text));
    contents.emplace_back(rel_str, std::move(text));
  }
  if (fix && fixed_files > 0) {
    std::printf("mudi_lint: --fix rewrote %zu file(s)\n", fixed_files);
  }

  // Pass 2: per-file checks, then the cross-file checks on the repo model.
  std::vector<mudi::lint::Finding> findings;
  for (const auto& [rel, text] : contents) {
    std::vector<mudi::lint::Finding> file_findings =
        mudi::lint::LintFile(rel, text, options);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  mudi::lint::RepoModel repo = mudi::lint::BuildRepoModel(std::move(models));
  std::vector<mudi::lint::Finding> cross = mudi::lint::LintRepoModel(repo, options);
  findings.insert(findings.end(), cross.begin(), cross.end());
  std::sort(findings.begin(), findings.end(),
            [](const mudi::lint::Finding& a, const mudi::lint::Finding& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              return a.check < b.check;
            });

  size_t suppressed = 0;
  size_t unsuppressed = 0;
  std::map<std::string, std::pair<size_t, size_t>> per_check;  // (unsup, sup)
  for (const std::string& name : mudi::lint::CheckNames()) {
    per_check[name] = {0, 0};
  }
  for (const auto& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      ++per_check[f.check].second;
    } else {
      ++unsuppressed;
      ++per_check[f.check].first;
    }
  }

  if (json) {
    std::printf("{\n  \"schema\": \"mudi.lint.v1\",\n  \"files_scanned\": %zu,\n",
                contents.size());
    std::printf("  \"checks\": [");
    bool first = true;
    for (const auto& [name, counts] : per_check) {
      std::printf("%s\n    {\"name\": \"%s\", \"unsuppressed\": %zu, \"suppressed\": %zu}",
                  first ? "" : ",", name.c_str(), counts.first, counts.second);
      first = false;
    }
    std::printf("\n  ],\n  \"findings\": [");
    first = true;
    for (const auto& f : findings) {
      std::printf("%s\n    {\"file\": %s, \"line\": %d, \"check\": \"%s\", "
                  "\"severity\": \"%s\", \"suppressed\": %s, \"message\": %s}",
                  first ? "" : ",", JsonQuoted(f.file).c_str(), f.line, f.check.c_str(),
                  mudi::lint::SeverityName(f.severity), f.suppressed ? "true" : "false",
                  JsonQuoted(f.message).c_str());
      first = false;
    }
    std::printf("\n  ],\n  \"suppressed\": %zu,\n  \"unsuppressed\": %zu\n}\n", suppressed,
                unsuppressed);
  } else {
    for (const auto& f : findings) {
      if (!f.suppressed) {
        std::printf("%s\n", f.ToString().c_str());
      }
    }
    std::printf("mudi_lint: %zu file(s) scanned, %zu finding(s) (%zu suppressed)\n",
                contents.size(), unsuppressed + suppressed, suppressed);
    for (const auto& [name, counts] : per_check) {
      if (counts.first + counts.second > 0) {
        std::printf("mudi_lint:   %-21s %zu unsuppressed, %zu suppressed\n", name.c_str(),
                    counts.first, counts.second);
      }
    }
  }
  return unsuppressed == 0 ? 0 : 1;
}
