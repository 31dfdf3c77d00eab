// Round-trip tests for the shared SARIF 2.1.0 writer
// (src/io/config_audit.hpp): the emitted log is parsed back with a
// minimal JSON reader and the structure the SARIF schema (and GitHub
// code scanning) requires is asserted field by field — $schema/version,
// tool.driver with a rule table, ruleId/ruleIndex agreement, physical
// locations, and string escaping (no raw control characters).

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/config_audit.hpp"

namespace {

using quora::io::SarifResult;
using quora::io::SarifRule;

// ------------------------------------------------------ tiny JSON reader

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const {
    static const Json missing;
    auto it = object.find(key);
    return it == object.end() ? missing : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class Parser {
public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(Json* out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == text_.size();
  }

private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      // JSON forbids raw control characters inside a string.
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {
            // The writer escapes only bytes below 0x20, always as \u00XX.
            if (text_.compare(pos_, 2, "00") != 0 || pos_ + 4 > text_.size())
              return false;
            const std::string hex = text_.substr(pos_ + 2, 2);
            if (!std::isxdigit(static_cast<unsigned char>(hex[0])) ||
                !std::isxdigit(static_cast<unsigned char>(hex[1])))
              return false;
            c = static_cast<char>(std::stoi(hex, nullptr, 16));
            pos_ += 4;
            break;
          }
          default: return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool value(Json* out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Json::Kind::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(&key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        Json child;
        if (!value(&child)) return false;
        out->object.emplace(std::move(key), std::move(child));
        skip_ws();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = Json::Kind::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json child;
        if (!value(&child)) return false;
        out->array.push_back(std::move(child));
        skip_ws();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return string(&out->str);
    }
    if (c == 't' || c == 'f') {
      out->kind = Json::Kind::kBool;
      out->boolean = c == 't';
      return literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->kind = Json::Kind::kNull;
      return literal("null");
    }
    out->kind = Json::Kind::kNumber;
    std::size_t used = 0;
    try {
      out->number = std::stod(text_.substr(pos_), &used);
    } catch (const std::exception&) {
      return false;
    }
    pos_ += used;
    return used > 0;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json write_and_parse(const std::vector<SarifRule>& rules,
                     const std::vector<SarifResult>& results,
                     const std::string& tool = "quora_lint",
                     const std::string& version = "") {
  std::ostringstream out;
  quora::io::write_sarif(out, tool, version, rules, results);
  Json log;
  EXPECT_TRUE(Parser(out.str()).parse(&log)) << out.str();
  return log;
}

std::vector<SarifRule> two_rules() {
  return {{"L006", "hot-path-allocation", "allocation on a hot path"},
          {"L007", "cross-shard-state", "state crosses a shard boundary"}};
}

// ------------------------------------------------------------- the tests

TEST(SarifWriter, EmitsTheRequiredTopLevelStructure) {
  const Json log = write_and_parse(two_rules(), {});
  EXPECT_EQ(log.at("version").str, "2.1.0");
  EXPECT_NE(log.at("$schema").str.find("sarif-schema-2.1.0.json"),
            std::string::npos);
  ASSERT_EQ(log.at("runs").array.size(), 1u);
  const Json& driver = log.at("runs").array[0].at("tool").at("driver");
  EXPECT_EQ(driver.at("name").str, "quora_lint");
  EXPECT_FALSE(driver.has("version"));  // omitted when empty
  ASSERT_EQ(driver.at("rules").array.size(), 2u);
  const Json& rule = driver.at("rules").array[0];
  EXPECT_EQ(rule.at("id").str, "L006");
  EXPECT_EQ(rule.at("name").str, "hot-path-allocation");
  EXPECT_EQ(rule.at("shortDescription").at("text").str,
            "allocation on a hot path");
  EXPECT_EQ(log.at("runs").array[0].at("results").array.size(), 0u);
}

TEST(SarifWriter, ResultsRoundTripWithRuleIndexAndLocation) {
  SarifResult r;
  r.rule_id = "L007";
  r.level = "error";
  r.message = "shard \"msg\" reached\nfrom sim";  // exercises escaping
  r.path = "src/sim/simulator.cpp";
  r.line = 42;
  r.column = 7;
  SarifResult control = r;
  control.message = "carriage\rreturn and \x01 byte";  // must not appear raw
  const Json log =
      write_and_parse(two_rules(), {r, control}, "quora_lint", "0.6");
  const Json& run = log.at("runs").array[0];
  EXPECT_EQ(run.at("tool").at("driver").at("version").str, "0.6");
  ASSERT_EQ(run.at("results").array.size(), 2u);
  EXPECT_EQ(run.at("results").array[1].at("message").at("text").str,
            "carriage\rreturn and \x01 byte");
  const Json& result = run.at("results").array[0];
  EXPECT_EQ(result.at("ruleId").str, "L007");
  EXPECT_EQ(result.at("ruleIndex").number, 1.0);  // second table entry
  EXPECT_EQ(result.at("level").str, "error");
  EXPECT_EQ(result.at("message").at("text").str,
            "shard \"msg\" reached\nfrom sim");
  ASSERT_EQ(result.at("locations").array.size(), 1u);
  const Json& physical = result.at("locations").array[0].at("physicalLocation");
  EXPECT_EQ(physical.at("artifactLocation").at("uri").str,
            "src/sim/simulator.cpp");
  EXPECT_EQ(physical.at("region").at("startLine").number, 42.0);
  EXPECT_EQ(physical.at("region").at("startColumn").number, 7.0);
}

TEST(SarifWriter, OmitsLocationAndRuleIndexWhenUnknown) {
  SarifResult r;
  r.rule_id = "L999";  // not in the rule table
  r.level = "warning";
  r.message = "no file, no region";
  const Json log = write_and_parse(two_rules(), {r});
  const Json& result = log.at("runs").array[0].at("results").array[0];
  EXPECT_FALSE(result.has("ruleIndex"));
  EXPECT_FALSE(result.has("locations"));
  EXPECT_EQ(result.at("level").str, "warning");
}

TEST(SarifWriter, AuditFindingsMapOntoTheSharedWriter) {
  const std::vector<SarifRule> rules = quora::io::audit_sarif_rules();
  ASSERT_GE(rules.size(), 15u);  // every AuditCode is a rule
  for (const SarifRule& rule : rules) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.short_description.empty());
  }

  quora::io::AuditFinding finding;
  finding.code = quora::io::AuditCode::kQuorumIntersection;
  finding.severity = quora::io::AuditSeverity::kError;
  finding.message = "q_r + q_w <= T";
  const SarifResult mapped =
      quora::io::audit_sarif_result(finding, "examples/bad.cfg");
  EXPECT_EQ(mapped.rule_id, "quorum-intersection");
  EXPECT_EQ(mapped.level, "error");
  EXPECT_EQ(mapped.path, "examples/bad.cfg");

  const Json log = write_and_parse(rules, {mapped}, "quora_check");
  const Json& result = log.at("runs").array[0].at("results").array[0];
  EXPECT_EQ(result.at("ruleId").str, "quorum-intersection");
  ASSERT_TRUE(result.has("ruleIndex"));
  // The index must point back at the matching rule row.
  const std::size_t idx = static_cast<std::size_t>(result.at("ruleIndex").number);
  EXPECT_EQ(log.at("runs")
                .array[0]
                .at("tool")
                .at("driver")
                .at("rules")
                .array[idx]
                .at("id")
                .str,
            "quorum-intersection");
  // File-level finding: artifact location without a region.
  const Json& physical =
      result.at("locations").array[0].at("physicalLocation");
  EXPECT_EQ(physical.at("artifactLocation").at("uri").str, "examples/bad.cfg");
  EXPECT_FALSE(physical.has("region"));
}

TEST(SarifWriter, AdaptConfigCodeRoundTrips) {
  // The adaptive-control audit code must appear in the shared rule table
  // and survive the writer round trip like every other code.
  const std::vector<SarifRule> rules = quora::io::audit_sarif_rules();
  std::size_t adapt_row = rules.size();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].id == "adapt-config") adapt_row = i;
  }
  ASSERT_LT(adapt_row, rules.size()) << "adapt-config missing from rule table";

  quora::io::AuditFinding finding;
  finding.code = quora::io::AuditCode::kAdaptConfig;
  finding.severity = quora::io::AuditSeverity::kError;
  finding.message = "adapt_threshold 1.5 outside [0, 1]";
  const SarifResult mapped =
      quora::io::audit_sarif_result(finding, "examples/configs/broken/adapt.quora");
  EXPECT_EQ(mapped.rule_id, "adapt-config");
  EXPECT_EQ(mapped.level, "error");

  const Json log = write_and_parse(rules, {mapped}, "quora_check");
  const Json& result = log.at("runs").array[0].at("results").array[0];
  EXPECT_EQ(result.at("ruleId").str, "adapt-config");
  ASSERT_TRUE(result.has("ruleIndex"));
  EXPECT_EQ(static_cast<std::size_t>(result.at("ruleIndex").number), adapt_row);
  EXPECT_EQ(result.at("message").at("text").str,
            "adapt_threshold 1.5 outside [0, 1]");
}

TEST(SarifWriter, ModelScopeConfigCodeRoundTrips) {
  // The `.model` scope audit code (quora_check on model-checker scopes)
  // must appear in the shared rule table and survive the writer round
  // trip like every other code.
  const std::vector<SarifRule> rules = quora::io::audit_sarif_rules();
  std::size_t row = rules.size();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].id == "model-scope-config") row = i;
  }
  ASSERT_LT(row, rules.size()) << "model-scope-config missing from rule table";

  quora::io::AuditFinding finding;
  finding.code = quora::io::AuditCode::kModelScopeConfig;
  finding.severity = quora::io::AuditSeverity::kError;
  finding.message = "scope has 6 sites; bounded exploration handles at most 4";
  const SarifResult mapped = quora::io::audit_sarif_result(
      finding, "examples/model/broken/too_large.model");
  EXPECT_EQ(mapped.rule_id, "model-scope-config");
  EXPECT_EQ(mapped.level, "error");

  const Json log = write_and_parse(rules, {mapped}, "quora_check");
  const Json& result = log.at("runs").array[0].at("results").array[0];
  EXPECT_EQ(result.at("ruleId").str, "model-scope-config");
  ASSERT_TRUE(result.has("ruleIndex"));
  EXPECT_EQ(static_cast<std::size_t>(result.at("ruleIndex").number), row);
  const Json& physical =
      result.at("locations").array[0].at("physicalLocation");
  EXPECT_EQ(physical.at("artifactLocation").at("uri").str,
            "examples/model/broken/too_large.model");
}

} // namespace
