#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "msg/cluster.hpp"

namespace quora::msg {

/// Machine-readable identifiers for the safety invariants audited by
/// `check_safety`. Every violation carries exactly one of these codes so
/// tools (`quora_chaos`, `quora_model`, the seeded-mutation harness) can
/// match violations without parsing prose.
enum class Invariant : std::uint8_t {
  /// 1. Real-time read consistency: a granted read returns a version at
  ///    least as new as every write whose commit was *decided* before the
  ///    read was submitted.
  kReadConsistency = 0,
  /// 2. Unique versions: no two granted writes commit the same version
  ///    number (the write-lease + quorum-intersection guarantee).
  kUniqueVersions = 1,
  /// 3. No stale-assignment operation: no access is granted under a QR
  ///    assignment version older than an assignment whose installation was
  ///    decided before the access was submitted (§2.2 safety).
  kFreshAssignment = 2,
  /// 4. Causal decision times: every outcome decides at or after its
  ///    submission, and times are finite.
  kCausalTimes = 3,
  /// 5. Commit-log order: commit records are appended in nondecreasing
  ///    decision-time order (a precondition for the binary searches the
  ///    other invariants rely on).
  kCommitOrder = 4,
};

inline constexpr std::size_t kInvariantCount = 5;

/// Stable kebab-case slug for an invariant code. Violation messages are
/// prefixed with `[slug]` so text output stays greppable by code.
const char* invariant_slug(Invariant code) noexcept;

/// One-line description of what the invariant demands.
const char* invariant_summary(Invariant code) noexcept;

/// A single violated invariant: the code plus a human-readable line
/// (always prefixed with `[slug] `).
struct SafetyViolation {
  Invariant code = Invariant::kReadConsistency;
  std::string message;
};

/// Result of a post-run safety audit: every violated invariant, one
/// entry each. Empty == the run was safe.
struct SafetyReport {
  std::vector<SafetyViolation> violations;
  std::uint64_t reads_checked = 0;
  std::uint64_t writes_checked = 0;
  bool ok() const noexcept { return violations.empty(); }
  bool has(Invariant code) const noexcept {
    for (const SafetyViolation& v : violations) {
      if (v.code == code) return true;
    }
    return false;
  }
};

/// A borrowed view of the three histories `check_safety` audits. Lets
/// unit tests hand-craft violating states, and lets the model checker
/// audit mid-run snapshots, without building a full `Cluster`.
struct SafetyView {
  const std::vector<AccessOutcome>* outcomes = nullptr;
  const std::vector<Cluster::CommitRecord>* commits = nullptr;
  const std::vector<Cluster::InstallRecord>* installs = nullptr;
};

/// check_safety's working buffers. An auditor that runs it at every
/// state, as the model checker does, keeps one, so a check allocates only
/// while the histories grow past what an earlier state held.
struct SafetyScratch {
  std::vector<std::uint64_t> commit_prefix_max;
  std::vector<std::uint64_t> install_prefix_max;
  std::vector<std::uint64_t> versions;
};

/// Audit the given histories against the protocol's safety invariants
/// (see `Invariant` above). These must hold under ANY fault plan —
/// partitions, flaps, message drop/duplication, crash-during-commit.
///
/// Liveness (availability) is deliberately NOT checked here — fault plans
/// are free to make the system unavailable; they must never make it wrong.
SafetyReport check_safety(const SafetyView& view, SafetyScratch& scratch);
SafetyReport check_safety(const SafetyView& view);

/// Convenience overloads auditing a finished (or paused) run of `cluster`.
SafetyReport check_safety(const Cluster& cluster, SafetyScratch& scratch);
SafetyReport check_safety(const Cluster& cluster);

} // namespace quora::msg
