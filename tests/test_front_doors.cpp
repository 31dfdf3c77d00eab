// Numeric-token mutation sweep over the shipped corpus: every text front
// door (the system format, `.quora`, `.chaos`, `.model`) must accept a
// mutated input or reject it with a ParseError that names the mutated
// line. No other exception, no other line. The sweep is deterministic and
// is the seed corpus for a front-door fuzzer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "io/config_audit.hpp"
#include "model/scope.hpp"

namespace {

namespace fs = std::filesystem;

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream cells(line.substr(0, line.find('#')));
  std::vector<std::string> tokens;
  for (std::string token; cells >> token;) tokens.push_back(token);
  return tokens;
}

std::string join(const std::vector<std::string>& tokens) {
  std::string text;
  for (const std::string& token : tokens) text += (text.empty() ? "" : " ") + token;
  return text;
}

bool reads_whole_number(const std::string& token) {
  char* end = nullptr;
  std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

/// Feeds `text` to the front door for `path`'s extension. Returns an empty
/// string when the input is accepted or rejected at `line`, else what went
/// wrong.
std::string misreport(const fs::path& path, const std::string& text,
                      std::size_t line) {
  std::istringstream in(text);
  try {
    if (path.extension() == ".chaos") {
      quora::fault::load_chaos(in);
    } else if (path.extension() == ".model") {
      quora::model::load_model(in);
    } else {
      const std::string at = "line " + std::to_string(line) + ": ";
      for (const quora::io::AuditFinding& f : quora::io::audit_config(in).findings) {
        if (f.code == quora::io::AuditCode::kParseError &&
            f.message.rfind(at, 0) != 0) {
          return "parse-error " + f.message;
        }
      }
    }
  } catch (const quora::io::ParseError& e) {
    if (e.line() != line) return e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
  return {};
}

TEST(FrontDoorSweep, NumericMutationsAreAcceptedOrRejectedAtTheirLine) {
  const char* const replacements[] = {"-1", "5x", "nan", "1e999", "4294967296"};
  std::vector<fs::path> corpus;
  for (const char* dir : {"configs", "chaos", "model", "data"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(fs::path(QUORA_EXAMPLES_DIR) / dir)) {
      const fs::path ext = entry.path().extension();
      if (ext == ".quora" || ext == ".topo" || ext == ".chaos" || ext == ".model") {
        corpus.push_back(entry.path());
      }
    }
  }
  std::sort(corpus.begin(), corpus.end());

  std::size_t cases = 0;
  std::vector<std::string> misreported;
  for (const fs::path& path : corpus) {
    const std::vector<std::string> lines = read_lines(path);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::vector<std::string> tokens = tokens_of(lines[i]);
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        if (!reads_whole_number(tokens[t])) continue;
        for (const char* replacement : replacements) {
          std::vector<std::string> mutated = tokens;
          mutated[t] = replacement;
          std::string text;
          for (std::size_t j = 0; j < lines.size(); ++j) {
            text += (j == i ? join(mutated) : lines[j]) + '\n';
          }
          ++cases;
          const std::string problem = misreport(path, text, i + 1);
          if (!problem.empty()) {
            misreported.push_back(path.filename().string() + ":" +
                                  std::to_string(i + 1) + " '" + join(mutated) +
                                  "' -> " + problem);
          }
        }
      }
    }
  }
  EXPECT_GE(corpus.size(), 33u);
  EXPECT_GT(cases, 1000u);
  std::string shown;
  for (std::size_t k = 0; k < misreported.size() && k < 20; ++k) {
    shown += misreported[k] + '\n';
  }
  EXPECT_TRUE(misreported.empty())
      << misreported.size() << " of " << cases << " cases misreported:\n"
      << shown;
}

} // namespace
