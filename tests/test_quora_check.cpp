// The quora-check static audit engine (io/config_audit): valid
// configurations pass, and each class of breakage is rejected with its own
// machine-readable code — so CI failures name the violated invariant, not
// just "bad config".

#include "io/config_audit.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>

namespace {

using quora::io::audit_code_name;
using quora::io::audit_config;
using quora::io::AuditCode;
using quora::io::AuditReport;
using quora::io::AuditSeverity;

AuditReport audit(const std::string& text) {
  std::istringstream in(text);
  return audit_config(in);
}

TEST(QuoraCheck, ValidCanonicalConfigPasses) {
  const AuditReport report = audit(
      "sites 7\n"
      "complete\n"
      "vote 0 3\n"
      "vote 1 2\n"
      "vote 2 2\n"
      "total_votes 11\n"
      "quorum 4 8\n"
      "qr_version default 2\n");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_EQ(report.warning_count(), 0u);
}

TEST(QuoraCheck, TopologyOnlyConfigPasses) {
  // No checker directives at all: the structural audits still run.
  const AuditReport report = audit("sites 5\nring\n");
  EXPECT_TRUE(report.ok());
}

TEST(QuoraCheck, NonIntersectingQuorumRejected) {
  const AuditReport report = audit(
      "sites 6\n"
      "complete\n"
      "quorum 2 4\n");  // 2 + 4 = 6 = T
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kQuorumIntersection));
  EXPECT_FALSE(report.has(AuditCode::kWriteWriteIntersection));
}

TEST(QuoraCheck, SplitBrainWriteQuorumRejected) {
  const AuditReport report = audit(
      "sites 9\n"
      "complete\n"
      "quorum 6 4\n");  // condition 1 holds, 2*4 <= 9 does not
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kWriteWriteIntersection));
  EXPECT_FALSE(report.has(AuditCode::kQuorumIntersection));
}

TEST(QuoraCheck, VoteSumMismatchRejected) {
  const AuditReport report = audit(
      "sites 5\n"
      "complete\n"
      "vote 0 3\n"
      "total_votes 5\n"  // actual sum is 7
      "quorum 3 5\n");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kVoteSumMismatch));
}

TEST(QuoraCheck, StaleQrVersionRejected) {
  const AuditReport report = audit(
      "sites 5\n"
      "ring\n"
      "quorum 2 4\n"
      "qr_version default 4\n"
      "qr_version 3 1\n");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kStaleQrVersion));
}

TEST(QuoraCheck, UniformVersionsPass) {
  const AuditReport report = audit(
      "sites 5\n"
      "ring\n"
      "quorum 2 4\n"
      "qr_version default 7\n"
      "qr_version 3 7\n");
  EXPECT_TRUE(report.ok());
}

TEST(QuoraCheck, ThreeFailureModesCarryDistinctCodes) {
  // The acceptance contract: broken intersection, vote-sum mismatch and a
  // stale QR version are not just all "rejected" — each carries its own
  // code, so CI output names the violated invariant.
  const AuditReport intersection = audit("sites 6\ncomplete\nquorum 2 4\n");
  const AuditReport votes =
      audit("sites 5\ncomplete\nvote 0 3\ntotal_votes 5\nquorum 3 5\n");
  const AuditReport stale = audit(
      "sites 5\nring\nquorum 2 4\nqr_version default 4\nqr_version 3 1\n");
  std::set<AuditCode> first_error_codes;
  for (const AuditReport* r : {&intersection, &votes, &stale}) {
    ASSERT_FALSE(r->ok());
    for (const auto& f : r->findings) {
      if (f.severity == AuditSeverity::kError) {
        first_error_codes.insert(f.code);
        break;
      }
    }
  }
  EXPECT_EQ(first_error_codes.size(), 3u);
}

TEST(QuoraCheck, StrandedVotesAndUnreachableQuorumRejected) {
  const AuditReport report = audit(
      "sites 7\n"
      "link 0 1\nlink 1 2\nlink 2 3\nlink 3 0\n"
      "link 4 5\nlink 5 6\n"
      "quorum 3 5\n");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kUnreachableVotes));
  EXPECT_TRUE(report.has(AuditCode::kUnreachableQuorum));
}

TEST(QuoraCheck, DominatedAssignmentIsAWarning) {
  const AuditReport report = audit(
      "sites 7\n"
      "complete\n"
      "quorum 4 6\n");  // canonical q_w would be 7 - 4 + 1 = 4
  EXPECT_TRUE(report.ok());  // still operable, just wasteful
  EXPECT_TRUE(report.has(AuditCode::kDominatedAssignment));
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST(QuoraCheck, ZeroVoteWitnessAndEvenTotalAreWarnings) {
  const AuditReport report = audit(
      "sites 4\n"
      "complete\n"
      "vote 3 0\n"  // witness-style copy, total drops to 3... make it even
      "vote 0 2\n"  // total = 2 + 1 + 1 + 0 = 4
      "quorum 2 3\n");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kZeroVoteSite));
  EXPECT_TRUE(report.has(AuditCode::kEvenVoteTotal));
}

TEST(QuoraCheck, OutOfRangeQuorumRejected) {
  const AuditReport report = audit("sites 5\ncomplete\nquorum 3 9\n");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kQuorumRange));
}

TEST(QuoraCheck, ParseErrorsAreReportedNotThrown) {
  EXPECT_TRUE(audit("sites 5\nbogus_directive 1\n").has(AuditCode::kParseError));
  EXPECT_TRUE(audit("").has(AuditCode::kParseError));
  EXPECT_TRUE(audit("sites 5\nquorum 1\n").has(AuditCode::kParseError));
  EXPECT_TRUE(
      audit("sites 5\nring\nqr_version 9 1\n").has(AuditCode::kParseError));
  EXPECT_TRUE(
      audit("sites 5\nring\nqr_version 1x 3\n").has(AuditCode::kParseError));
  // A system error after checker directives names the file's own line.
  const AuditReport late =
      audit("quorum 2 2\ntotal_votes 4\nsites 4\nring\nbogus 1\n");
  ASSERT_TRUE(late.has(AuditCode::kParseError));
  EXPECT_EQ(late.findings.front().message.rfind("line 5:", 0), 0u)
      << late.findings.front().message;
}

TEST(QuoraCheck, SmallSystemCoterieCrossCheckStaysClean) {
  // For <= 20 sites the audit also enumerates the vote coteries; a valid
  // assignment must never trip the set-system checks.
  const AuditReport report = audit(
      "sites 9\n"
      "complete\n"
      "quorum 4 6\n");
  EXPECT_FALSE(report.has(AuditCode::kCoterieIntersection));
  EXPECT_FALSE(report.has(AuditCode::kCoterieMinimality));
}

TEST(QuoraCheck, ReportFormatsAreMachineReadable) {
  const AuditReport report = audit("sites 6\ncomplete\nquorum 2 4\n");
  std::ostringstream tsv;
  quora::io::write_report(tsv, report);
  EXPECT_NE(tsv.str().find("error\tquorum-intersection\t"), std::string::npos);

  std::ostringstream json;
  quora::io::write_report_json(json, report);
  EXPECT_NE(json.str().find("\"code\": \"quorum-intersection\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"severity\": \"error\""), std::string::npos);
  // Stream-based audits have no file, so no path field appears...
  EXPECT_EQ(json.str().find("\"path\""), std::string::npos);

  // ...while a named source tags every finding (the quora_check CLI
  // passes each FILE argument through and emits one combined array).
  std::ostringstream json_with_path;
  quora::io::write_report_json(json_with_path, report, "examples/c.quora");
  EXPECT_NE(json_with_path.str().find("\"path\": \"examples/c.quora\""),
            std::string::npos);
}

TEST(QuoraCheck, AuditCodeNamesAreUniqueSlugs) {
  const AuditCode all[] = {
      AuditCode::kParseError,           AuditCode::kQuorumRange,
      AuditCode::kQuorumIntersection,   AuditCode::kWriteWriteIntersection,
      AuditCode::kDominatedAssignment,  AuditCode::kVoteSumMismatch,
      AuditCode::kStaleQrVersion,       AuditCode::kUnreachableQuorum,
      AuditCode::kUnreachableVotes,     AuditCode::kZeroVoteSite,
      AuditCode::kEvenVoteTotal,        AuditCode::kCoterieIntersection,
      AuditCode::kCoterieMinimality,    AuditCode::kChaosBadSchedule,
      AuditCode::kChaosUnknownTarget,   AuditCode::kDomainConfig,
      AuditCode::kAdaptConfig,          AuditCode::kModelScopeConfig,
  };
  std::set<std::string> names;
  for (const AuditCode code : all) names.insert(audit_code_name(code));
  EXPECT_EQ(names.size(), std::size(all));
  EXPECT_STREQ(audit_code_name(AuditCode::kDomainConfig), "domain-config");
  EXPECT_STREQ(audit_code_name(AuditCode::kModelScopeConfig),
               "model-scope-config");
}

TEST(QuoraCheck, DuplicateDomainDefinitionRejected) {
  const AuditReport report = audit(
      "sites 5\n"
      "ring\n"
      "domain 0 rg0/dc0\n"
      "domain 2 rg0/dc1\n"
      "domain 2 rg1/dc0\n"
      "quorum 3 3\n");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kDomainConfig));
}

TEST(QuoraCheck, OverlappingDomainPathsWarn) {
  // Site 0's full path "rg0" is an ancestor of site 1's "rg0/dc1":
  // membership of "domain rg0" becomes ambiguous to a reader.
  const AuditReport report = audit(
      "sites 5\n"
      "ring\n"
      "domain 0 rg0\n"
      "domain 1 rg0/dc1\n"
      "quorum 3 3\n");
  EXPECT_TRUE(report.ok());  // a warning, not an error
  EXPECT_TRUE(report.has(AuditCode::kDomainConfig));
  EXPECT_GT(report.warning_count(), 0u);
}

TEST(QuoraCheck, ValidAdaptBlockPasses) {
  const AuditReport report = audit(
      "sites 5\n"
      "ring\n"
      "quorum 3 3\n"
      "adapt on\n"
      "adapt_epoch 50\n"
      "adapt_threshold 0.02\n"
      "adapt_dwell 2\n"
      "adapt_p 0.96\n"
      "adapt_min_write 0.1\n"
      "gossip on\n");
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.has(AuditCode::kAdaptConfig));
}

TEST(QuoraCheck, AdaptKnobsOutOfDomainRejected) {
  // Each bad knob carries the adapt-config code: threshold outside
  // [0, 1], dwell below 1, non-positive epoch, p outside (0, 1].
  EXPECT_TRUE(audit("sites 5\nring\nadapt on\nadapt_threshold 1.5\n")
                  .has(AuditCode::kAdaptConfig));
  EXPECT_TRUE(audit("sites 5\nring\nadapt on\nadapt_dwell 0\n")
                  .has(AuditCode::kAdaptConfig));
  EXPECT_TRUE(audit("sites 5\nring\nadapt on\nadapt_epoch 0\n")
                  .has(AuditCode::kAdaptConfig));
  EXPECT_TRUE(audit("sites 5\nring\nadapt on\nadapt_p 1.5\n")
                  .has(AuditCode::kAdaptConfig));
}

TEST(QuoraCheck, AdaptWithoutGossipRejected) {
  // Adaptation installs new assignments through the §2.2 QR protocol;
  // with gossip disabled every recommendation would be unreachable.
  const AuditReport report = audit(
      "sites 5\n"
      "ring\n"
      "quorum 3 3\n"
      "adapt on\n"
      "gossip off\n");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kAdaptConfig));
}

TEST(QuoraCheck, AdaptInfeasibleWriteFloorRejected) {
  // 5 single-vote sites at p = 0.5: the loosest write quorum is
  // q_w = 5 - 2 + 1 = 4, so the best write availability is
  // P[V >= 4] = 6/32 = 0.1875; a 0.9 floor can never be met, and the
  // static audit proves it before any run.
  const AuditReport infeasible = audit(
      "sites 5\n"
      "ring\n"
      "adapt on\n"
      "adapt_p 0.5\n"
      "adapt_min_write 0.9\n");
  EXPECT_FALSE(infeasible.ok());
  EXPECT_TRUE(infeasible.has(AuditCode::kAdaptConfig));
  // The same floor is fine when the sites are reliable enough.
  const AuditReport feasible = audit(
      "sites 5\n"
      "ring\n"
      "adapt on\n"
      "adapt_p 0.99\n"
      "adapt_min_write 0.9\n");
  EXPECT_FALSE(feasible.has(AuditCode::kAdaptConfig));
}

TEST(QuoraCheck, AdaptDirectiveParseErrorsAreReported) {
  EXPECT_TRUE(audit("sites 5\nring\nadapt maybe\n").has(AuditCode::kParseError));
  EXPECT_TRUE(
      audit("sites 5\nring\nadapt_threshold x\n").has(AuditCode::kParseError));
  EXPECT_TRUE(
      audit("sites 5\nring\nadapt_dwell 2.5\n").has(AuditCode::kParseError));
}

TEST(QuoraCheck, CleanDomainAnnotationsPass) {
  const AuditReport report = audit(
      "sites 4\n"
      "ring\n"
      "domain 0 rg0/dc0\n"
      "domain 1 rg0/dc1\n"
      "domain 2 rg1/dc0\n"
      "domain 3 rg1/dc1\n"
      "quorum 3 3\n");
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.has(AuditCode::kDomainConfig));
}

} // namespace
