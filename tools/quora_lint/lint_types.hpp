#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace quora::lint {

/// Machine-readable check codes. Same philosophy as `io::AuditCode`
/// (quora-check): one code per *reason* a source file violates the
/// repo's determinism or macro-discipline invariants, so CI artifacts
/// and tests can assert on the reason, not just the rejection.
///
/// The taxonomy is documented in docs/STATIC_ANALYSIS.md; codes are
/// append-only (L006+ for new checks) so baselines stay stable.
enum class LintCode : std::uint8_t {
  kL001SideEffectObsArg,       // side effect in QUORA_TRACE / QUORA_METRIC_*
  kL002SideEffectContractArg,  // side effect in QUORA_ASSERT / INVARIANT / ...
  kL003ForbiddenEntropy,       // random_device / rand / time / *_clock::now
                               // in the deterministic sim layers
  kL004UnorderedIteration,     // iterating an unordered container in
                               // transcript-feeding code
  kL005RawObsCall,             // raw TraceRecorder / metric-handle call that
                               // bypasses the QUORA_OBS gating macros
  kL006HotPathAllocation,      // QUORA_HOT_PATH function transitively reaches
                               // a heap allocation (new/delete, container
                               // growth, string construction)
  kL007CrossShardState,        // shard confinement: entry point of one domain
                               // reaches another domain's QUORA_SHARD_LOCAL
                               // state, or the annotations themselves conflict
  kL008UnsharedGlobalState,    // mutable global/static reachable from an
                               // annotated hot path without QUORA_SHARD_SHARED
  kL009RawConcurrencyPrimitive,  // std::mutex / std::atomic / thread_local in
                                 // a protocol layer outside QUORA_SHARD_SHARED
                                 // state — the simulator owns all scheduling
};

inline constexpr std::size_t kLintCodeCount = 9;

/// Stable "L001".."L005" tag (what suppressions and baselines name).
const char* lint_code_tag(LintCode code);

/// Stable kebab-case slug (what the JSON `code` field carries), mirroring
/// quora-check's code naming style.
const char* lint_code_name(LintCode code);

/// One-line human summary of what the check enforces.
const char* lint_code_summary(LintCode code);

/// Parses "L001".."L005" (case-insensitive). Returns false on anything
/// else — unknown tags in suppression comments are themselves reported.
bool parse_lint_code_tag(std::string_view tag, LintCode* out);

enum class LintSeverity : std::uint8_t { kWarning, kError };

const char* lint_severity_name(LintSeverity severity);

/// One finding: a (code, location, message) triple. `path` is stored as
/// given on the command line / compile database (normalized to
/// repo-relative by the driver when possible) so baselines are portable
/// across checkouts.
struct Finding {
  LintCode code = LintCode::kL001SideEffectObsArg;
  LintSeverity severity = LintSeverity::kError;
  std::string path;
  unsigned line = 0;
  unsigned column = 0;
  std::string message;
  bool suppressed = false;   // matched an inline allow-comment
  bool baselined = false;    // matched the checked-in baseline file
};

/// Stable ordering for reports: path, then line, then column, then code.
bool finding_less(const Finding& a, const Finding& b);

/// Counts findings that are neither suppressed nor baselined.
std::size_t unsuppressed_count(const std::vector<Finding>& findings);

/// Text report, one finding per line:
///   path:line:col: severity: [L00x determinism-slug] message
/// Suppressed/baselined findings are annotated when `show_suppressed`.
void write_findings_text(std::ostream& out, const std::vector<Finding>& findings,
                         bool show_suppressed);

/// JSON array of {code, severity, path, line, column, message} objects —
/// the shared CI artifact schema also emitted by `quora_check --json`
/// (which omits line/column; consumers must treat fields as optional).
/// Suppressed and baselined findings are omitted unless `include_all`,
/// in which case they carry "suppressed": true / "baselined": true.
void write_findings_json(std::ostream& out, const std::vector<Finding>& findings,
                         bool include_all);

} // namespace quora::lint
