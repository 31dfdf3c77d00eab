#include "lint_driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "checks_program.hpp"
#include "source_scan.hpp"
#include "token_model.hpp"

namespace fs = std::filesystem;

namespace quora::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h";
}

std::string to_repo_relative(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::proximate(p, root, ec);
  std::string s = (ec || rel.empty() ? p : rel).generic_string();
  // A path that escapes the root stays as given — still reportable.
  return s;
}

} // namespace

CheckScope scope_for_path(std::string_view rel_path, bool all_scopes) {
  CheckScope scope;
  if (all_scopes) {
    scope.macro_args = scope.entropy = scope.unordered = scope.raw_obs =
        scope.concurrency = true;
    return scope;
  }
  scope.macro_args = true;
  for (std::string_view dir : {"src/sim/", "src/msg/", "src/core/",
                               "src/conn/", "src/fault/", "src/dyn/",
                               "src/model/", "src/adapt/"}) {
    if (starts_with(rel_path, dir)) scope.entropy = true;
  }
  for (std::string_view dir : {"src/fault/", "src/obs/", "src/report/"}) {
    if (starts_with(rel_path, dir)) scope.unordered = true;
  }
  scope.raw_obs =
      starts_with(rel_path, "src/") && !starts_with(rel_path, "src/obs/");
  // L009 guards the layers the explorer single-steps deterministically:
  // a raw primitive there would introduce scheduling the model cannot see.
  for (std::string_view dir :
       {"src/msg/", "src/quorum/", "src/fault/", "src/model/"}) {
    if (starts_with(rel_path, dir)) scope.concurrency = true;
  }
  return scope;
}

std::vector<std::string> collect_files(const DriverOptions& opts,
                                       std::vector<std::string>* problems) {
  const fs::path root = fs::path(opts.root);
  std::vector<std::string> inputs = opts.paths;
  if (inputs.empty()) inputs = {"src", "tools", "bench"};
  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    fs::path p = fs::path(in);
    if (p.is_relative()) p = root / p;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file() && is_source_file(it->path())) {
          files.push_back(to_repo_relative(it->path(), root));
        }
      }
      if (ec && problems != nullptr) {
        problems->push_back("cannot walk '" + in + "': " + ec.message());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(to_repo_relative(p, root));
    } else if (problems != nullptr) {
      problems->push_back("no such file or directory: '" + in + "'");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

bool read_file(const std::string& path, std::string* text, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *text = buf.str();
  return true;
}

void apply_suppressions(const DriverOptions& opts,
                        std::vector<Finding>* findings,
                        std::vector<std::string>* problems) {
  Baseline baseline;
  if (!opts.baseline_path.empty()) {
    std::string text;
    std::string error;
    if (!read_file(opts.baseline_path, &text, &error)) {
      problems->push_back("baseline: " + error);
    } else {
      baseline = Baseline::parse(text, problems);
    }
  }
  // Group by path so each file's suppression comments are scanned once.
  std::string current_path;
  Suppressions sup;
  bool have_sup = false;
  std::sort(findings->begin(), findings->end(), finding_less);
  for (Finding& f : *findings) {
    if (f.path != current_path) {
      current_path = f.path;
      have_sup = false;
      std::string text;
      std::string error;
      fs::path abs = fs::path(f.path);
      if (abs.is_relative()) abs = fs::path(opts.root) / abs;
      if (read_file(abs.string(), &text, &error)) {
        sup = scan_suppressions(text);
        have_sup = true;
        for (const auto& [line, what] : sup.problems) {
          problems->push_back(f.path + ":" + std::to_string(line) +
                              ": malformed suppression: " + what);
        }
      }
    }
    if (have_sup && sup.allows(f.code, f.line)) f.suppressed = true;
    if (!f.suppressed && baseline.contains(f)) f.baselined = true;
  }
}

void dedupe_findings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(), finding_less);
  findings->erase(
      std::unique(findings->begin(), findings->end(),
                  [](const Finding& a, const Finding& b) {
                    return a.code == b.code && a.path == b.path &&
                           a.line == b.line;
                  }),
      findings->end());
}

RunResult run_token_engine(const DriverOptions& opts) {
  RunResult result;
  const std::vector<std::string> files = collect_files(opts, &result.problems);
  ProgramModel model;
  for (const std::string& rel : files) {
    fs::path abs = fs::path(rel);
    if (abs.is_relative()) abs = fs::path(opts.root) / abs;
    std::string text;
    std::string error;
    if (!read_file(abs.string(), &text, &error)) {
      result.problems.push_back(error);
      continue;
    }
    const CheckScope scope = scope_for_path(rel, opts.all_scopes);
    run_token_checks(rel, text, scope, &result.findings);
    // The whole-program model accumulates across the sweep; the
    // interprocedural pass runs once afterwards, when every function
    // definition and member type has been seen.
    build_token_model(rel, text, &model);
    // Malformed suppression comments are reported even in files with no
    // findings — a typo must never silently disable a future suppression.
    for (const auto& [line, what] : scan_suppressions(text).problems) {
      result.problems.push_back(rel + ":" + std::to_string(line) +
                                ": malformed suppression: " + what);
    }
  }
  run_program_checks(model, opts.all_scopes, &result.findings);
  std::sort(result.problems.begin(), result.problems.end());
  result.problems.erase(
      std::unique(result.problems.begin(), result.problems.end()),
      result.problems.end());
  // apply_suppressions re-scans per file; cheap relative to the sweep and
  // keeps one code path for both engines.
  std::vector<std::string> sup_problems;
  apply_suppressions(opts, &result.findings, &sup_problems);
  for (std::string& p : sup_problems) {
    if (std::find(result.problems.begin(), result.problems.end(), p) ==
        result.problems.end()) {
      result.problems.push_back(std::move(p));
    }
  }
  return result;
}

} // namespace quora::lint
