// Unit tests for quora_lint's core library: the lexer, the suppression
// and baseline parsers, the token-level checks, and the path-scope map.
// The end-to-end binary behaviour (exit codes, JSON, engines) is covered
// by test_lint_fixtures.cpp.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks_token.hpp"
#include "lint_driver.hpp"
#include "lint_types.hpp"
#include "source_scan.hpp"

namespace {

using namespace quora::lint;

// Assembled at runtime so linting the test sources never mistakes these
// literals for real suppression directives.
std::string marker() { return std::string("quora-lint") + ":"; }

CheckScope all_scopes() {
  CheckScope s;
  s.macro_args = s.entropy = s.unordered = s.raw_obs = s.concurrency = true;
  return s;
}

std::vector<Finding> check(const std::string& text,
                           CheckScope scope = all_scopes()) {
  std::vector<Finding> out;
  run_token_checks("fixture.cpp", text, scope, &out);
  return out;
}

std::multiset<LintCode> codes(const std::vector<Finding>& findings) {
  std::multiset<LintCode> out;
  for (const Finding& f : findings) out.insert(f.code);
  return out;
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, SkipsCommentsStringsAndPreprocessorLines) {
  const auto toks = lex(
      "#define QUORA_TRACE(...) \\\n  do_not_see_me(__VA_ARGS__)\n"
      "// line comment rand()\n"
      "/* block\n comment time() */\n"
      "const char* s = \"rand() inside a string\";\n"
      "const char* r = R\"(raw rand())\";\n");
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "do_not_see_me");
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
  }
  // The declaration identifiers themselves do survive.
  std::vector<std::string> idents;
  for (const Token& t : toks) {
    if (t.kind == Token::Kind::kIdent) idents.push_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"const", "char", "s", "const",
                                              "char", "r"}));
}

TEST(LintLexer, TracksLinesAndMatchesLongOperatorsGreedily) {
  const auto toks = lex("a <<= b;\nc ->* d;");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[1].text, "<<=");
  EXPECT_EQ(toks[1].kind, Token::Kind::kPunct);
  EXPECT_EQ(toks[1].line, 1u);
  EXPECT_EQ(toks[5].text, "->*");
  EXPECT_EQ(toks[5].line, 2u);
}

TEST(LintLexer, LexesNumbersWithExponentsAsOneToken) {
  const auto toks = lex("x = 1e-5 + 0x1p+3;");
  std::vector<std::string> nums;
  for (const Token& t : toks) {
    if (t.kind == Token::Kind::kNumber) nums.push_back(t.text);
  }
  EXPECT_EQ(nums, (std::vector<std::string>{"1e-5", "0x1p+3"}));
}

// ----------------------------------------------------------- code table

TEST(LintCodes, TagsRoundTripAndUnknownTagsAreRejected) {
  const LintCode all[] = {
      LintCode::kL001SideEffectObsArg, LintCode::kL002SideEffectContractArg,
      LintCode::kL003ForbiddenEntropy, LintCode::kL004UnorderedIteration,
      LintCode::kL005RawObsCall,       LintCode::kL006HotPathAllocation,
      LintCode::kL007CrossShardState,  LintCode::kL008UnsharedGlobalState,
      LintCode::kL009RawConcurrencyPrimitive};
  static_assert(sizeof(all) / sizeof(all[0]) == kLintCodeCount,
                "new codes must join the round-trip test");
  for (const LintCode c : all) {
    LintCode parsed;
    ASSERT_TRUE(parse_lint_code_tag(lint_code_tag(c), &parsed));
    EXPECT_EQ(parsed, c);
  }
  LintCode parsed;
  EXPECT_TRUE(parse_lint_code_tag("l003", &parsed));  // case-insensitive
  EXPECT_EQ(parsed, LintCode::kL003ForbiddenEntropy);
  EXPECT_FALSE(parse_lint_code_tag("L999", nullptr));
  EXPECT_FALSE(parse_lint_code_tag("X001", nullptr));
  EXPECT_FALSE(parse_lint_code_tag("L0011", nullptr));
}

// --------------------------------------------------------- suppressions

TEST(LintSuppressions, AllowsOwnLineAndNextLine) {
  const std::string text = "int a;\n// " + marker() +
                           " allow(L001) counter is obs-only\nint b;\nint c;\n";
  const Suppressions sup = scan_suppressions(text);
  EXPECT_TRUE(sup.problems.empty());
  EXPECT_TRUE(sup.allows(LintCode::kL001SideEffectObsArg, 2));  // own line
  EXPECT_TRUE(sup.allows(LintCode::kL001SideEffectObsArg, 3));  // next line
  EXPECT_FALSE(sup.allows(LintCode::kL001SideEffectObsArg, 4));
  EXPECT_FALSE(sup.allows(LintCode::kL002SideEffectContractArg, 3));
}

TEST(LintSuppressions, ParsesMultipleCodesInOneDirective) {
  const std::string text =
      "x(); // " + marker() + " allow(L003, L004) reporting-only path\n";
  const Suppressions sup = scan_suppressions(text);
  EXPECT_TRUE(sup.problems.empty());
  EXPECT_TRUE(sup.allows(LintCode::kL003ForbiddenEntropy, 1));
  EXPECT_TRUE(sup.allows(LintCode::kL004UnorderedIteration, 1));
  EXPECT_FALSE(sup.allows(LintCode::kL005RawObsCall, 1));
}

TEST(LintSuppressions, MalformedDirectivesAreReportedNotIgnored) {
  const std::string text = "// " + marker() + " allow(L001)\n" +      // no reason
                           "// " + marker() + " allow(L999) bogus\n" +  // bad tag
                           "// " + marker() + " allowed(L001) typo\n";  // keyword
  const Suppressions sup = scan_suppressions(text);
  ASSERT_EQ(sup.problems.size(), 3u);
  EXPECT_EQ(sup.problems[0].first, 1u);
  EXPECT_EQ(sup.problems[1].first, 2u);
  EXPECT_EQ(sup.problems[2].first, 3u);
  EXPECT_TRUE(sup.allowed.empty());
}

// ------------------------------------------------------------- baseline

TEST(LintBaseline, ParsesEntriesAndMatchesFindings) {
  std::vector<std::string> problems;
  const Baseline b = Baseline::parse(
      "# comment\n"
      "L003\tsrc/sim/simulator.cpp\t42\n"
      "L005\tsrc/core/planner.cpp\t7\n",
      &problems);
  EXPECT_TRUE(problems.empty());
  EXPECT_EQ(b.size(), 2u);
  Finding f;
  f.code = LintCode::kL003ForbiddenEntropy;
  f.path = "src/sim/simulator.cpp";
  f.line = 42;
  EXPECT_TRUE(b.contains(f));
  f.line = 43;  // baselines pin exact lines: edits re-surface the finding
  EXPECT_FALSE(b.contains(f));
}

TEST(LintBaseline, MalformedLinesAreReported) {
  std::vector<std::string> problems;
  const Baseline b = Baseline::parse(
      "L001 src/a.cpp 3\n"      // spaces, not tabs
      "L777\tsrc/a.cpp\t3\n"    // unknown tag
      "L001\tsrc/a.cpp\tzz\n",  // line not a number
      &problems);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(problems.size(), 3u);
}

TEST(LintBaseline, RenderRoundTripsThroughParse) {
  Finding f;
  f.code = LintCode::kL004UnorderedIteration;
  f.path = "src/report/table.cpp";
  f.line = 12;
  const std::string text = Baseline::render({f});
  std::vector<std::string> problems;
  const Baseline b = Baseline::parse(text, &problems);
  EXPECT_TRUE(problems.empty());
  ASSERT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.contains(f));
}

// --------------------------------------------------------- token checks

TEST(LintChecksL001, FlagsMutationsInObsMacroArguments) {
  const auto findings = check(
      "void f() {\n"
      "  QUORA_TRACE(trace_, step, attempts++);\n"
      "  QUORA_METRIC_ADD(obs_grants, total += 1);\n"
      "  QUORA_METRIC_RECORD(obs_latency, gen.next_double());\n"
      "}\n");
  EXPECT_EQ(codes(findings),
            (std::multiset<LintCode>{LintCode::kL001SideEffectObsArg,
                                     LintCode::kL001SideEffectObsArg,
                                     LintCode::kL001SideEffectObsArg}));
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintChecksL001, PureArgumentsAndObsOnlyStateAreClean) {
  const auto findings = check(
      "void f() {\n"
      "  QUORA_TRACE(trace_, step, attempts + 1);\n"
      "  QUORA_METRIC_SET(obs_depth, depth);\n"
      "  QUORA_OBS_ONLY(obs_window = attempts;)\n"  // obs_* state may mutate
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintChecksL002, FlagsMutationsInContractArguments) {
  const auto findings = check(
      "void f() {\n"
      "  QUORA_ASSERT(++steps < limit, \"m\");\n"
      "  QUORA_PRECONDITION(total = compute(), \"m\");\n"
      "  QUORA_INVARIANT(set.insert(3).second, \"m\");\n"
      "  QUORA_ASSERT(total == compute(), \"pure\");\n"
      "}\n");
  EXPECT_EQ(codes(findings),
            (std::multiset<LintCode>{LintCode::kL002SideEffectContractArg,
                                     LintCode::kL002SideEffectContractArg,
                                     LintCode::kL002SideEffectContractArg}));
}

TEST(LintChecksL003, FlagsEntropySourcesButNotPlainIdentifiers) {
  const auto findings = check(
      "void f() {\n"
      "  std::random_device rd;\n"
      "  std::mt19937 mt(1);\n"
      "  int r = std::rand();\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  std::time_t w = std::time(nullptr);\n"
      "  double time = 0;\n"   // identifier named `time`, not a call
      "  (void)time;\n"
      "}\n");
  EXPECT_EQ(codes(findings).count(LintCode::kL003ForbiddenEntropy), 5u);
}

TEST(LintChecksL004, FlagsIterationOverDeclaredUnorderedContainers) {
  const auto findings = check(
      "std::unordered_map<int, long> table;\n"
      "std::vector<long> ordered;\n"
      "long f() {\n"
      "  long s = 0;\n"
      "  for (const auto& kv : table) s += kv.second;\n"
      "  for (long v : ordered) s += v;\n"
      "  s += std::accumulate(table.begin(), table.end(), 0L);\n"
      "  if (table.find(3) != table.end()) s += 1;\n"  // lookups are fine
      "  return s;\n"
      "}\n");
  EXPECT_EQ(codes(findings),
            (std::multiset<LintCode>{LintCode::kL004UnorderedIteration,
                                     LintCode::kL004UnorderedIteration}));
  EXPECT_EQ(findings[0].line, 5u);
  EXPECT_EQ(findings[1].line, 7u);
}

TEST(LintChecksL005, FlagsRawCallsByNamingConvention) {
  const auto findings = check(
      "void f() {\n"
      "  trace_->record(1, 2);\n"
      "  obs_grants_.add(1);\n"
      "  obs_depth_.set(4);\n"
      "  hist.add(7);\n"          // not obs_*: stats histograms are fine
      "  trace_->set_clock(&c);\n"  // wiring, not a record call
      "}\n");
  EXPECT_EQ(codes(findings),
            (std::multiset<LintCode>{LintCode::kL005RawObsCall,
                                     LintCode::kL005RawObsCall,
                                     LintCode::kL005RawObsCall}));
}

TEST(LintChecksL009, FlagsRawPrimitivesOutsideShardSharedDeclarations) {
  const auto findings = check(
      "std::mutex table_lock;\n"
      "std::atomic<int> inflight{0};\n"
      "thread_local int scratch = 0;\n"
      "QUORA_SHARD_SHARED std::atomic<long> epoch{0};\n"
      "void f() {\n"
      "  std::atomic_int hits{0};\n"
      "  inflight += 1;\n"        // use of a declared name: decl-site only
      "  int mutex = 0;\n"        // bare identifier, not std::-qualified
      "  (void)mutex; (void)hits;\n"
      "}\n");
  EXPECT_EQ(codes(findings).count(LintCode::kL009RawConcurrencyPrimitive), 4u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
  EXPECT_EQ(findings[2].line, 3u);  // line 4 is QUORA_SHARD_SHARED: clean
  EXPECT_EQ(findings[3].line, 6u);
}

TEST(LintChecksL009, ShardSharedAnnotationCoversOneDeclarationOnly) {
  const auto findings = check(
      "QUORA_SHARD_SHARED std::atomic<long> epoch{0};\n"
      "std::atomic<long> next_epoch{0};\n");  // the annotation does not leak
  ASSERT_EQ(codes(findings).count(LintCode::kL009RawConcurrencyPrimitive), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

// ------------------------------------------------------------ scope map

TEST(LintScope, MapsRepoLayersToChecks) {
  const CheckScope sim = scope_for_path("src/sim/simulator.cpp", false);
  EXPECT_TRUE(sim.macro_args);
  EXPECT_TRUE(sim.entropy);
  EXPECT_FALSE(sim.unordered);
  EXPECT_TRUE(sim.raw_obs);
  EXPECT_FALSE(sim.concurrency);  // the parallel simulator may synchronize

  // The adaptive loop decides installs; its replay must be seed-exact.
  const CheckScope adapt = scope_for_path("src/adapt/access_loop.cpp", false);
  EXPECT_TRUE(adapt.entropy);

  const CheckScope fault = scope_for_path("src/fault/plan.cpp", false);
  EXPECT_TRUE(fault.entropy);
  EXPECT_TRUE(fault.unordered);
  EXPECT_TRUE(fault.raw_obs);
  EXPECT_TRUE(fault.concurrency);

  // Protocol layers the model checker single-steps get L009 (and the
  // model scope is a deterministic layer, so L003 rides along).
  const CheckScope msg = scope_for_path("src/msg/cluster.cpp", false);
  EXPECT_TRUE(msg.concurrency);
  const CheckScope model = scope_for_path("src/model/explorer.cpp", false);
  EXPECT_TRUE(model.concurrency);
  EXPECT_TRUE(model.entropy);
  const CheckScope quorum = scope_for_path("src/quorum/assign.cpp", false);
  EXPECT_TRUE(quorum.concurrency);

  // The obs layer's own internals are exactly where raw calls must live.
  const CheckScope obs = scope_for_path("src/obs/trace.cpp", false);
  EXPECT_FALSE(obs.entropy);
  EXPECT_TRUE(obs.unordered);
  EXPECT_FALSE(obs.raw_obs);

  const CheckScope tool = scope_for_path("tools/quora_check.cpp", false);
  EXPECT_TRUE(tool.macro_args);
  EXPECT_FALSE(tool.entropy);
  EXPECT_FALSE(tool.unordered);
  EXPECT_FALSE(tool.raw_obs);

  const CheckScope forced = scope_for_path("tools/quora_check.cpp", true);
  EXPECT_TRUE(forced.entropy);
  EXPECT_TRUE(forced.unordered);
  EXPECT_TRUE(forced.raw_obs);
  EXPECT_TRUE(forced.concurrency);
}

// ---------------------------------------------------------- JSON output

TEST(LintJson, EscapesAndOmitsSuppressedUnlessAsked) {
  Finding open;
  open.code = LintCode::kL003ForbiddenEntropy;
  open.path = "src/sim/a.cpp";
  open.line = 3;
  open.column = 5;
  open.message = "uses \"rand\"\n";
  Finding hidden = open;
  hidden.suppressed = true;
  hidden.line = 9;

  std::ostringstream only_open;
  write_findings_json(only_open, {open, hidden}, /*include_all=*/false);
  EXPECT_NE(only_open.str().find("\\\"rand\\\"\\n"), std::string::npos);
  EXPECT_NE(only_open.str().find("\"tag\": \"L003\""), std::string::npos);
  EXPECT_EQ(only_open.str().find("\"suppressed\""), std::string::npos);
  EXPECT_EQ(only_open.str().find("\"line\": 9"), std::string::npos);

  std::ostringstream all;
  write_findings_json(all, {open, hidden}, /*include_all=*/true);
  EXPECT_NE(all.str().find("\"suppressed\": true"), std::string::npos);
  EXPECT_NE(all.str().find("\"line\": 9"), std::string::npos);
}

TEST(LintDedupe, CollapsesTokenAndAstOverlap) {
  Finding a;
  a.code = LintCode::kL003ForbiddenEntropy;
  a.path = "src/sim/a.cpp";
  a.line = 3;
  a.message = "token-engine wording";
  Finding b = a;
  b.message = "ast-engine wording";
  std::vector<Finding> findings{a, b};
  dedupe_findings(&findings);
  EXPECT_EQ(findings.size(), 1u);
}

} // namespace
