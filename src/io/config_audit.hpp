#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "io/topology_io.hpp"
#include "quorum/quorum_spec.hpp"

namespace quora::io {

/// Machine-readable finding codes for `audit_config` / quora-check. Each
/// distinct failure mode gets its own code so CI and tests can assert on
/// the *reason* a configuration was rejected, not just the rejection.
enum class AuditCode {
  kParseError,            // the file does not parse at all
  kQuorumRange,           // q_r or q_w outside [1, T]
  kQuorumIntersection,    // q_r + q_w <= T: a read and a write can miss
  kWriteWriteIntersection,// 2*q_w <= T: two disjoint writes possible
  kDominatedAssignment,   // q_w > T - q_r + 1: a strictly better q_w exists
  kVoteSumMismatch,       // declared `total_votes` != sum of site votes
  kStaleQrVersion,        // some site still holds an old QR version
  kUnreachableQuorum,     // no static component can ever assemble a quorum
  kUnreachableVotes,      // votes stranded outside the main static component
  kZeroVoteSite,          // a site holds no votes (witness-style; warning)
  kEvenVoteTotal,         // even T: vote-assignment coteries are dominated
  kCoterieIntersection,   // enumerated write groups fail pairwise intersection
  kCoterieMinimality,     // enumerated quorum groups are not an antichain
  kChaosBadSchedule,      // .chaos plan: inverted window, bad probability,
                          // missing horizon, overlapping partition groups
  kChaosUnknownTarget,    // .chaos plan names a site/link the topology lacks
  kDomainConfig,          // failure-domain problems: duplicate/overlapping
                          // domain definitions, or a chaos directive naming
                          // a domain no site belongs to
  kAdaptConfig,           // adaptive-loop block problems: hysteresis
                          // threshold outside [0,1], dwell < 1 epoch,
                          // non-positive epoch length, write floor no vote
                          // assignment can meet, or adaptation enabled with
                          // QR gossip disabled (installs could never spread)
  kModelScopeConfig,      // .model scope problems: site count beyond the
                          // explorable bound, no/too many scripted accesses,
                          // a fault the model-mode cluster cannot express
                          // (stochastic windows, crash-on-commit triggers,
                          // regime shifts), or depth/state budgets outside
                          // the tractable range
};

/// Stable kebab-case slug for a code (what the report prints).
const char* audit_code_name(AuditCode code);

enum class AuditSeverity { kWarning, kError };

struct AuditFinding {
  AuditCode code;
  AuditSeverity severity;
  std::string message;
};

/// Result of statically auditing one configuration file.
struct AuditReport {
  std::vector<AuditFinding> findings;

  std::size_t error_count() const;
  std::size_t warning_count() const;
  /// True when nothing rose to error severity.
  bool ok() const { return error_count() == 0; }
  bool has(AuditCode code) const;
};

/// Audits the extended check-configuration format: everything
/// `load_system` accepts (see topology_io.hpp) plus three checker-only
/// directives that describe the quorum state to validate:
///
/// ```
/// quorum 3 5            # audit this (q_r, q_w) assignment
/// total_votes 7         # declared vote total, cross-checked against sum
/// qr_version 2 4        # site 2 believes QR version 4
/// qr_version default 5
///
/// # adaptive-loop block (src/adapt), audited under kAdaptConfig:
/// adapt on              # closed-loop reoptimization enabled
/// adapt_epoch 50        # epoch length in simulated seconds (> 0)
/// adapt_threshold 0.02  # hysteresis gain threshold, in [0, 1]
/// adapt_dwell 2         # epochs the gain must persist (>= 1)
/// adapt_min_write 0.5   # §5.4 write floor A(0, q_r) >= A_w, in [0, 1]
/// adapt_p 0.96          # assumed site reliability for the floor check
/// gossip on             # §2.2 QR propagation (off + adapt on = error)
/// ```
///
/// Without a `quorum` directive the canonical family q_w = T - q_r + 1 is
/// assumed and only the structural audits run. The file is read once
/// (`io::read_directives`); the checker directives are claimed and the
/// remaining directives go to `io::load_system`, so every
/// topology/vote/reliability feature keeps its one parser and every
/// `parse-error` finding names the file's own line.
AuditReport audit_config(std::istream& in);
AuditReport audit_config_file(const std::string& path);

/// Writes `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// newline, tab and carriage return use their short escapes, and every
/// other byte below 0x20 is written as `\u00XX`. The one JSON string
/// writer behind quora_check, quora_chaos and quora_lint.
void write_json_string(std::ostream& out, std::string_view s);

/// Writes the report, one finding per line:
/// `error\tquorum-intersection\tmessage...` — stable, grep- and
/// machine-friendly (this is what quora-check emits and CI parses).
void write_report(std::ostream& out, const AuditReport& report);

/// Same content as a JSON array of {code, severity, path, message}
/// objects — the shared CI artifact schema also emitted by `quora_lint
/// --json` (which adds tag/line/column; consumers must treat fields as
/// optional). `path` names the audited file in every object; when empty
/// the field is omitted (stream-based audits have no file).
void write_report_json(std::ostream& out, const AuditReport& report,
                       std::string_view path = {});

/// One finding as a JSON object (no surrounding array), for callers that
/// assemble a combined array across several reports — quora_check emits
/// a single array covering every FILE argument this way.
void write_finding_json(std::ostream& out, const AuditFinding& finding,
                        std::string_view path);

// ---------------------------------------------------------------------------
// SARIF 2.1.0 — the shared static-analysis interchange writer behind
// `quora_lint --sarif` and `quora_check --sarif`, consumed by GitHub
// code scanning. Tool-agnostic: callers map their finding type onto
// SarifResult rows and their check taxonomy onto SarifRule entries.

/// One reportingDescriptor in the driver's rule table.
struct SarifRule {
  std::string id;                 // stable rule id: "L006", "quorum-range"
  std::string name;               // kebab-case short name
  std::string short_description;  // one-line summary
};

/// One result. `level` must be a SARIF level: "error", "warning",
/// "note", or "none". An empty `path` omits the physical location
/// (stream-based audits have no file); line/column 0 omit the region.
struct SarifResult {
  std::string rule_id;
  std::string level;
  std::string message;
  std::string path;    // repo-relative artifact URI
  unsigned line = 0;   // 1-based
  unsigned column = 0; // 1-based
};

/// Writes a complete single-run SARIF 2.1.0 log: `$schema` + `version`,
/// one run whose tool.driver carries `tool_name`/`tool_version` and the
/// rule table, and one result per row (with ruleIndex resolved against
/// the table when the id is present there).
void write_sarif(std::ostream& out, std::string_view tool_name,
                 std::string_view tool_version,
                 const std::vector<SarifRule>& rules,
                 const std::vector<SarifResult>& results);

/// The audit-check taxonomy as SARIF rules (every AuditCode).
std::vector<SarifRule> audit_sarif_rules();

/// Maps one audit finding onto a SARIF result row.
SarifResult audit_sarif_result(const AuditFinding& finding,
                               std::string_view path);

} // namespace quora::io
