#include "msg/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace quora::msg {
namespace {

constexpr std::size_t kMaxReported = 50;

template <typename... Args>
void violation(SafetyReport& report, Invariant code, const char* fmt,
               Args... args) {
  if (report.violations.size() >= kMaxReported) return;
  char buf[256];
  const int prefix =
      std::snprintf(buf, sizeof buf, "[%s] ", invariant_slug(code));
  std::snprintf(buf + prefix, sizeof buf - static_cast<std::size_t>(prefix),
                fmt, args...);
  report.violations.push_back(SafetyViolation{code, std::string(buf)});
}

} // namespace

const char* invariant_slug(Invariant code) noexcept {
  switch (code) {
    case Invariant::kReadConsistency: return "stale-read";
    case Invariant::kUniqueVersions: return "duplicate-version";
    case Invariant::kFreshAssignment: return "stale-assignment";
    case Invariant::kCausalTimes: return "acausal-decision";
    case Invariant::kCommitOrder: return "commit-order";
  }
  return "unknown";
}

const char* invariant_summary(Invariant code) noexcept {
  switch (code) {
    case Invariant::kReadConsistency:
      return "a granted read returns a version at least as new as every "
             "write decided before it was submitted";
    case Invariant::kUniqueVersions:
      return "no two granted writes commit the same version number";
    case Invariant::kFreshAssignment:
      return "no access is granted under a QR assignment older than one "
             "installed before the access was submitted";
    case Invariant::kCausalTimes:
      return "every outcome decides at or after its submission, at a "
             "finite time";
    case Invariant::kCommitOrder:
      return "commit records are appended in nondecreasing decision-time "
             "order";
  }
  return "unknown";
}

SafetyReport check_safety(const SafetyView& view, SafetyScratch& scratch) {
  static const std::vector<AccessOutcome> kNoOutcomes;
  static const std::vector<Cluster::CommitRecord> kNoCommits;
  static const std::vector<Cluster::InstallRecord> kNoInstalls;
  SafetyReport report;
  const std::vector<AccessOutcome>& outcomes =
      view.outcomes != nullptr ? *view.outcomes : kNoOutcomes;
  const std::vector<Cluster::CommitRecord>& commits =
      view.commits != nullptr ? *view.commits : kNoCommits;
  const std::vector<Cluster::InstallRecord>& installs =
      view.installs != nullptr ? *view.installs : kNoInstalls;

  // Commits and installs are appended in decision order, so a prefix
  // maximum over each gives "newest thing decided by time t" via one
  // binary search per access.
  std::vector<std::uint64_t>& commit_prefix_max = scratch.commit_prefix_max;
  commit_prefix_max.resize(commits.size());
  for (std::size_t i = 0; i < commits.size(); ++i) {
    commit_prefix_max[i] = commits[i].version;
    if (i > 0) {
      commit_prefix_max[i] = std::max(commit_prefix_max[i], commit_prefix_max[i - 1]);
      if (commits[i].decide_time < commits[i - 1].decide_time) {
        violation(report, Invariant::kCommitOrder,
                  "commit log out of order at index %zu", i);
      }
    }
  }
  std::vector<std::uint64_t>& install_prefix_max = scratch.install_prefix_max;
  install_prefix_max.resize(installs.size());
  for (std::size_t i = 0; i < installs.size(); ++i) {
    install_prefix_max[i] = installs[i].version;
    if (i > 0) {
      install_prefix_max[i] =
          std::max(install_prefix_max[i], install_prefix_max[i - 1]);
    }
  }
  const auto decided_before = [](double t) {
    return [t](const auto& record) { return record.decide_time <= t; };
  };

  for (const AccessOutcome& o : outcomes) {
    // Invariant 4: causal, finite decision times.
    if (!(o.decide_time >= o.submit_time) || !std::isfinite(o.decide_time)) {
      violation(report, Invariant::kCausalTimes,
                "acausal decision: submit=%.6f decide=%.6f origin=%u",
                o.submit_time, o.decide_time, o.origin);
    }
    if (!o.granted) continue;

    if (o.is_read) {
      ++report.reads_checked;
      // Invariant 1: the read must observe every write decided before it
      // was submitted.
      const auto it = std::partition_point(commits.begin(), commits.end(),
                                           decided_before(o.submit_time));
      if (it != commits.begin()) {
        const std::uint64_t floor =
            commit_prefix_max[static_cast<std::size_t>(it - commits.begin()) - 1];
        if (o.version < floor) {
          violation(report, Invariant::kReadConsistency,
                    "stale read: origin=%u submit=%.6f returned v=%llu but "
                    "v=%llu was decided earlier",
                    o.origin, o.submit_time,
                    static_cast<unsigned long long>(o.version),
                    static_cast<unsigned long long>(floor));
        }
      }
    } else {
      ++report.writes_checked;
    }

    // Invariant 3: no component operates on a superseded QR assignment.
    const auto it = std::partition_point(installs.begin(), installs.end(),
                                         decided_before(o.submit_time));
    if (it != installs.begin()) {
      const std::uint64_t newest =
          install_prefix_max[static_cast<std::size_t>(it - installs.begin()) - 1];
      if (o.qr_version < newest) {
        violation(report, Invariant::kFreshAssignment,
                  "stale-assignment grant: origin=%u submit=%.6f ran under "
                  "qrv=%llu but qrv=%llu was installed earlier",
                  o.origin, o.submit_time,
                  static_cast<unsigned long long>(o.qr_version),
                  static_cast<unsigned long long>(newest));
      }
    }
  }

  // Invariant 2: committed versions are unique — two concurrent writes
  // never both commit the same version number.
  std::vector<std::uint64_t>& versions = scratch.versions;
  versions.clear();
  for (const Cluster::CommitRecord& c : commits) versions.push_back(c.version);
  std::sort(versions.begin(), versions.end());
  for (std::size_t i = 1; i < versions.size(); ++i) {
    if (versions[i] == versions[i - 1]) {
      violation(report, Invariant::kUniqueVersions,
                "duplicate commit version v=%llu",
                static_cast<unsigned long long>(versions[i]));
    }
  }

  return report;
}

SafetyReport check_safety(const SafetyView& view) {
  SafetyScratch scratch;
  return check_safety(view, scratch);
}

SafetyReport check_safety(const Cluster& cluster, SafetyScratch& scratch) {
  SafetyView view;
  view.outcomes = &cluster.outcomes();
  view.commits = &cluster.commits();
  view.installs = &cluster.installs();
  return check_safety(view, scratch);
}

SafetyReport check_safety(const Cluster& cluster) {
  SafetyScratch scratch;
  return check_safety(cluster, scratch);
}

} // namespace quora::msg
