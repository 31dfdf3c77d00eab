#include "io/config_audit.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <vector>

#include "quorum/coterie.hpp"

namespace quora::io {
namespace {

/// Checker-only directives claimed before `load_system` sees the rest.
struct CheckDirectives {
  std::optional<quorum::QuorumSpec> quorum;
  std::optional<net::Vote> declared_total;
  std::optional<std::uint64_t> version_default;
  struct SiteVersion {
    std::size_t line;
    std::uint64_t site;
    std::uint64_t version;
  };
  std::vector<SiteVersion> versions;
  // Adaptive-loop block (src/adapt); audited under kAdaptConfig.
  bool adapt_declared = false;  // any adapt* / gossip directive appeared
  std::optional<bool> adapt_enabled;
  std::optional<double> adapt_epoch;
  std::optional<double> adapt_threshold;
  std::optional<std::uint64_t> adapt_dwell;
  std::optional<double> adapt_min_write;
  std::optional<double> adapt_p;
  std::optional<bool> gossip_enabled;
  std::vector<Directive> system;  // the unclaimed rest, for load_system
};

/// Parses `cells` into `d` if its keyword is a checker directive.
bool claim(CheckDirectives& d, Cells cells) {
  const std::string& directive = cells.keyword();
  if (directive == "quorum") {
    const net::Vote q_r = cells.u32("'quorum' needs q_r and q_w");
    const net::Vote q_w = cells.u32("'quorum' needs q_r and q_w");
    d.quorum = quorum::QuorumSpec{q_r, q_w};
  } else if (directive == "total_votes") {
    d.declared_total = cells.u32("'total_votes' needs a count");
  } else if (directive == "qr_version") {
    const std::string error =
        "'qr_version' needs a site (or 'default') and a version";
    const std::string& target = cells.word(error);
    const std::uint64_t v = cells.u64(error);
    if (target == "default") {
      d.version_default = v;
    } else {
      const std::uint64_t site =
          cells.uint(target, std::numeric_limits<std::uint64_t>::max(),
                     "'qr_version' site must be numeric or 'default'");
      d.versions.push_back(CheckDirectives::SiteVersion{cells.line(), site, v});
    }
  } else if (directive == "adapt" || directive == "gossip") {
    const std::string error = "'" + directive + "' needs 'on' or 'off'";
    const std::string& state = cells.word(error);
    if (state != "on" && state != "off") cells.fail(error);
    d.adapt_declared = true;
    if (directive == "adapt") {
      d.adapt_enabled = (state == "on");
    } else {
      d.gossip_enabled = (state == "on");
    }
  } else if (directive == "adapt_epoch" || directive == "adapt_threshold" ||
             directive == "adapt_min_write" || directive == "adapt_p") {
    const double v = cells.number("'" + directive + "' needs a value");
    d.adapt_declared = true;
    if (directive == "adapt_epoch") d.adapt_epoch = v;
    else if (directive == "adapt_threshold") d.adapt_threshold = v;
    else if (directive == "adapt_min_write") d.adapt_min_write = v;
    else d.adapt_p = v;
  } else if (directive == "adapt_dwell") {
    d.adapt_dwell = cells.u64("'adapt_dwell' needs an epoch count");
    d.adapt_declared = true;
  } else {
    return false;
  }
  cells.done();
  return true;
}

class Auditor {
public:
  AuditReport run(std::istream& in) {
    CheckDirectives d;
    std::optional<SystemSpec> spec;
    try {
      for (Directive& directive : read_directives(in)) {
        if (!claim(d, Cells(directive))) d.system.push_back(std::move(directive));
      }
      spec = load_system(d.system);
    } catch (const std::exception& e) {
      error(AuditCode::kParseError, e.what());
      return std::move(report_);
    }
    const net::Topology& topo = spec->topology;
    const net::Vote total = topo.total_votes();

    audit_votes(topo, d);
    audit_static_components(topo, d);
    audit_quorum(topo, d);
    audit_versions(topo, d);
    audit_domains(topo, d);
    audit_adapt(topo, d);
    if (d.quorum && d.quorum->valid(total)) audit_coteries(topo, *d.quorum);
    return std::move(report_);
  }

private:
  void add(AuditCode code, AuditSeverity severity, std::string message) {
    report_.findings.push_back(AuditFinding{code, severity, std::move(message)});
  }
  void error(AuditCode code, std::string message) {
    add(code, AuditSeverity::kError, std::move(message));
  }
  void warn(AuditCode code, std::string message) {
    add(code, AuditSeverity::kWarning, std::move(message));
  }

  // Failure-domain discipline. The parser is deliberately lax (duplicate
  // `domain` lines are last-wins) so this audit — not a hard parse error —
  // is where conflicting definitions surface.
  void audit_domains(const net::Topology& topo, const CheckDirectives& d) {
    // Duplicate `domain SITE ...` lines in the source text.
    std::vector<std::string> seen_targets;
    for (const Directive& line : d.system) {
      if (line.tokens[0] != "domain") continue;
      const std::string& target = line.tokens[1];  // load_system checked it
      if (std::find(seen_targets.begin(), seen_targets.end(), target) !=
          seen_targets.end()) {
        error(AuditCode::kDomainConfig,
              "site " + target +
                  " has more than one 'domain' definition (last wins; "
                  "remove the overlap)");
      } else {
        seen_targets.push_back(target);
      }
    }
    if (!topo.has_domains()) return;
    // A site whose full path is an interior node of another site's path
    // ("rg0" vs "rg0/dc1") makes domain membership ambiguous to readers.
    std::vector<std::string> paths;
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const std::string& p = topo.domain(s);
      if (!p.empty() &&
          std::find(paths.begin(), paths.end(), p) == paths.end()) {
        paths.push_back(p);
      }
    }
    for (const std::string& a : paths) {
      for (const std::string& b : paths) {
        if (a.size() < b.size() && net::Topology::domain_contains(a, b)) {
          warn(AuditCode::kDomainConfig,
               "domain '" + a + "' is both a site's full path and an "
               "ancestor of '" + b + "': overlapping domain definitions");
        }
      }
    }
  }

  void audit_votes(const net::Topology& topo, const CheckDirectives& d) {
    const net::Vote total = topo.total_votes();
    if (d.declared_total && *d.declared_total != total) {
      error(AuditCode::kVoteSumMismatch,
            "declared total_votes " + std::to_string(*d.declared_total) +
                " but site votes sum to " + std::to_string(total));
    }
    std::uint32_t zero_vote_sites = 0;
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      if (topo.votes(s) == 0) ++zero_vote_sites;
    }
    if (zero_vote_sites > 0) {
      warn(AuditCode::kZeroVoteSite,
           std::to_string(zero_vote_sites) +
               " site(s) hold zero votes (witness-style copies: they can "
               "store data but never contribute to a quorum)");
    }
    if (total % 2 == 0) {
      warn(AuditCode::kEvenVoteTotal,
           "total votes T = " + std::to_string(total) +
               " is even: every vote assignment with an even total is "
               "dominated (an odd-total assignment operates strictly more "
               "often; Garcia-Molina & Barbara)");
    }
  }

  /// Static connectivity of the topology graph itself — everything up.
  /// Votes stranded outside the largest static component can never merge
  /// with it, so quorums above that component's vote total are dead.
  void audit_static_components(const net::Topology& topo,
                               const CheckDirectives& d) {
    const std::uint32_t n = topo.site_count();
    std::vector<std::int32_t> label(n, -1);
    std::vector<net::SiteId> stack;
    std::vector<net::Vote> comp_votes;
    for (net::SiteId root = 0; root < n; ++root) {
      if (label[root] != -1) continue;
      const auto comp = static_cast<std::int32_t>(comp_votes.size());
      net::Vote votes = 0;
      stack.assign(1, root);
      label[root] = comp;
      while (!stack.empty()) {
        const net::SiteId s = stack.back();
        stack.pop_back();
        votes += topo.votes(s);
        for (const net::Topology::Edge& e : topo.neighbors(s)) {
          if (label[e.neighbor] != -1) continue;
          label[e.neighbor] = comp;
          stack.push_back(e.neighbor);
        }
      }
      comp_votes.push_back(votes);
    }
    max_static_votes_ = *std::max_element(comp_votes.begin(), comp_votes.end());
    if (comp_votes.size() > 1) {
      const net::Vote stranded =
          topo.total_votes() - max_static_votes_;
      error(AuditCode::kUnreachableVotes,
            "topology splits into " + std::to_string(comp_votes.size()) +
                " static components; " + std::to_string(stranded) +
                " vote(s) can never join the largest component (" +
                std::to_string(max_static_votes_) + " of " +
                std::to_string(topo.total_votes()) + " votes)");
    }
    // A quorum that exceeds what the best-connected component can ever
    // assemble is unreachable even with zero failures.
    if (d.quorum &&
        (d.quorum->q_r > max_static_votes_ || d.quorum->q_w > max_static_votes_)) {
      error(AuditCode::kUnreachableQuorum,
            "q_r=" + std::to_string(d.quorum->q_r) + ", q_w=" +
                std::to_string(d.quorum->q_w) +
                " but no static component can assemble more than " +
                std::to_string(max_static_votes_) + " vote(s)");
    }
  }

  void audit_quorum(const net::Topology& topo, const CheckDirectives& d) {
    if (!d.quorum) return;
    const net::Vote total = topo.total_votes();
    const quorum::QuorumSpec spec = *d.quorum;
    if (spec.q_r < 1 || spec.q_w < 1 || spec.q_r > total || spec.q_w > total) {
      error(AuditCode::kQuorumRange,
            "quorum (" + std::to_string(spec.q_r) + ", " +
                std::to_string(spec.q_w) + ") outside [1, T=" +
                std::to_string(total) + "]");
      return;  // the remaining conditions are meaningless out of range
    }
    if (spec.q_r + spec.q_w <= total) {
      error(AuditCode::kQuorumIntersection,
            "q_r + q_w = " + std::to_string(spec.q_r + spec.q_w) +
                " <= T = " + std::to_string(total) +
                ": a read quorum and a write quorum can be disjoint, so a "
                "read may miss the latest write (condition 1 of §2.1)");
    }
    if (2 * spec.q_w <= total) {
      error(AuditCode::kWriteWriteIntersection,
            "2*q_w = " + std::to_string(2 * spec.q_w) + " <= T = " +
                std::to_string(total) +
                ": two components could write simultaneously (condition 2 "
                "of §2.1)");
    }
    if (spec.q_r + spec.q_w > total + 1) {
      warn(AuditCode::kDominatedAssignment,
           "q_w = " + std::to_string(spec.q_w) + " exceeds T - q_r + 1 = " +
               std::to_string(total - spec.q_r + 1) +
               ": the canonical assignment with the same q_r intersects "
               "identically and operates strictly more often");
    }
  }

  void audit_versions(const net::Topology& topo, const CheckDirectives& d) {
    if (!d.version_default && d.versions.empty()) return;
    const std::uint64_t fallback = d.version_default.value_or(1);
    std::vector<std::uint64_t> version(topo.site_count(), fallback);
    for (const CheckDirectives::SiteVersion& sv : d.versions) {
      if (sv.site >= topo.site_count()) {
        error(AuditCode::kParseError,
              ParseError(sv.line, "qr_version names site " +
                                      std::to_string(sv.site) +
                                      " but the topology has " +
                                      std::to_string(topo.site_count()) +
                                      " sites")
                  .what());
        return;
      }
      version[sv.site] = sv.version;
    }
    const std::uint64_t newest = *std::max_element(version.begin(), version.end());
    std::uint32_t stale = 0;
    for (const std::uint64_t v : version) {
      if (v < newest) ++stale;
    }
    if (stale > 0) {
      error(AuditCode::kStaleQrVersion,
            std::to_string(stale) +
                " site(s) hold a QR version older than " +
                std::to_string(newest) +
                ": the §2.2 monotonicity discipline requires every merge "
                "to adopt the newest assignment before serving accesses");
    }
  }

  /// Static sanity for the adaptive-loop block (src/adapt). The controller
  /// itself revalidates at attach time; this audit catches the same
  /// mistakes before a long soak run is launched.
  void audit_adapt(const net::Topology& topo, const CheckDirectives& d) {
    if (!d.adapt_declared) return;
    const bool enabled = d.adapt_enabled.value_or(false);
    if (d.adapt_threshold &&
        !(*d.adapt_threshold >= 0.0 && *d.adapt_threshold <= 1.0)) {
      error(AuditCode::kAdaptConfig,
            "adapt_threshold " + std::to_string(*d.adapt_threshold) +
                " outside [0, 1]: the hysteresis gate compares predicted "
                "availability gains, which are probabilities");
    }
    if (d.adapt_dwell && *d.adapt_dwell < 1) {
      error(AuditCode::kAdaptConfig,
            "adapt_dwell " + std::to_string(*d.adapt_dwell) +
                " < 1 epoch: the installer would fire on a single noisy "
                "estimate, defeating the hysteresis");
    }
    if (d.adapt_epoch && !(*d.adapt_epoch > 0.0)) {
      error(AuditCode::kAdaptConfig,
            "adapt_epoch " + std::to_string(*d.adapt_epoch) +
                " must be positive simulated seconds");
    }
    if (d.adapt_p && !(*d.adapt_p > 0.0 && *d.adapt_p <= 1.0)) {
      error(AuditCode::kAdaptConfig,
            "adapt_p " + std::to_string(*d.adapt_p) +
                " outside (0, 1]: footnote-4 conditioning divides by the "
                "operational probability");
    }
    if (enabled && d.gossip_enabled && !*d.gossip_enabled) {
      error(AuditCode::kAdaptConfig,
            "adapt on with gossip off: an installed reassignment could "
            "never propagate (§2.2 carries assignments on messages), so "
            "the loop would fork the system's view of the quorum");
    }
    if (d.adapt_min_write) {
      const double floor = *d.adapt_min_write;
      if (!(floor >= 0.0 && floor <= 1.0)) {
        error(AuditCode::kAdaptConfig,
              "adapt_min_write " + std::to_string(floor) + " outside [0, 1]");
        return;
      }
      // Best achievable write availability under *independent* site
      // failures with reliability p: the most write-favorable canonical
      // assignment has q_w = T - floor(T/2) + 1 (q_r at its §3 ceiling).
      // If even P[V >= q_w] under the full vote distribution misses the
      // floor, no assignment the optimizer can ever pick satisfies §5.4 —
      // the constrained stage would report infeasible every epoch.
      const net::Vote total = topo.total_votes();
      if (total == 0) return;
      const double p = d.adapt_p.value_or(0.96);
      std::vector<double> dist(static_cast<std::size_t>(total) + 1, 0.0);
      dist[0] = 1.0;
      for (net::SiteId s = 0; s < topo.site_count(); ++s) {
        const net::Vote v = topo.votes(s);
        if (v == 0) continue;
        for (std::size_t k = dist.size(); k-- > v;) {
          dist[k] = dist[k] * (1.0 - p) + dist[k - v] * p;
        }
        dist[0] *= 1.0 - p;
        for (std::size_t k = 1; k < static_cast<std::size_t>(v); ++k) {
          dist[k] *= 1.0 - p;
        }
      }
      const net::Vote best_q_w = total - total / 2 + 1 > total
                                     ? total
                                     : total - total / 2 + 1;
      double best_w = 0.0;
      for (std::size_t k = best_q_w; k < dist.size(); ++k) best_w += dist[k];
      if (best_w + 1e-9 < floor) {
        error(AuditCode::kAdaptConfig,
              "adapt_min_write " + std::to_string(floor) +
                  " is infeasible for this topology: even the most "
                  "write-favorable assignment (q_w = " +
                  std::to_string(best_q_w) + ") reaches only W = " +
                  std::to_string(best_w) + " at site reliability p = " +
                  std::to_string(p));
      }
    }
  }

  /// Set-system cross-check for small systems: enumerate the minimal vote
  /// groups and verify the Garcia-Molina & Barbara properties directly.
  void audit_coteries(const net::Topology& topo, const quorum::QuorumSpec& spec) {
    constexpr std::uint32_t kMaxSites = 20;
    constexpr std::size_t kMaxGroups = 4096;
    if (topo.site_count() > kMaxSites) return;
    const quorum::Coterie read =
        quorum::coterie_from_votes(topo.vote_assignment(), spec.q_r);
    const quorum::Coterie write =
        quorum::coterie_from_votes(topo.vote_assignment(), spec.q_w);
    if (read.quorums().size() > kMaxGroups || write.quorums().size() > kMaxGroups) {
      return;
    }
    if (!write.has_intersection_property()) {
      error(AuditCode::kCoterieIntersection,
            "enumerated write groups are not pairwise intersecting "
            "(set-system witness of the 2*q_w > T violation)");
    }
    if (!read.is_minimal() || !write.is_minimal()) {
      error(AuditCode::kCoterieMinimality,
            "enumerated quorum groups are not an antichain");
    }
    if (!quorum::bicoterie_consistent(read, write)) {
      // Distinct from the vote-level check: this is the enumerated witness
      // that some concrete read group misses some concrete write group.
      error(AuditCode::kCoterieIntersection,
            "a concrete read group and write group fail to intersect");
    }
  }

  AuditReport report_;
  net::Vote max_static_votes_ = 0;
};

const char* severity_name(AuditSeverity severity) {
  return severity == AuditSeverity::kError ? "error" : "warning";
}

} // namespace

const char* audit_code_name(AuditCode code) {
  switch (code) {
    case AuditCode::kParseError: return "parse-error";
    case AuditCode::kQuorumRange: return "quorum-range";
    case AuditCode::kQuorumIntersection: return "quorum-intersection";
    case AuditCode::kWriteWriteIntersection: return "write-write-intersection";
    case AuditCode::kDominatedAssignment: return "dominated-assignment";
    case AuditCode::kVoteSumMismatch: return "vote-sum-mismatch";
    case AuditCode::kStaleQrVersion: return "stale-qr-version";
    case AuditCode::kUnreachableQuorum: return "unreachable-quorum";
    case AuditCode::kUnreachableVotes: return "unreachable-votes";
    case AuditCode::kZeroVoteSite: return "zero-vote-site";
    case AuditCode::kEvenVoteTotal: return "even-vote-total";
    case AuditCode::kCoterieIntersection: return "coterie-intersection";
    case AuditCode::kCoterieMinimality: return "coterie-minimality";
    case AuditCode::kChaosBadSchedule: return "chaos-bad-schedule";
    case AuditCode::kChaosUnknownTarget: return "chaos-unknown-target";
    case AuditCode::kDomainConfig: return "domain-config";
    case AuditCode::kAdaptConfig: return "adapt-config";
    case AuditCode::kModelScopeConfig: return "model-scope-config";
  }
  return "unknown";
}

std::size_t AuditReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const AuditFinding& f) {
        return f.severity == AuditSeverity::kError;
      }));
}

std::size_t AuditReport::warning_count() const {
  return findings.size() - error_count();
}

bool AuditReport::has(AuditCode code) const {
  return std::any_of(findings.begin(), findings.end(),
                     [code](const AuditFinding& f) { return f.code == code; });
}

AuditReport audit_config(std::istream& in) { return Auditor().run(in); }

AuditReport audit_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  return audit_config(in);
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_report(std::ostream& out, const AuditReport& report) {
  for (const AuditFinding& f : report.findings) {
    out << severity_name(f.severity) << '\t' << audit_code_name(f.code) << '\t'
        << f.message << '\n';
  }
}

void write_finding_json(std::ostream& out, const AuditFinding& finding,
                        std::string_view path) {
  out << "{\"code\": ";
  write_json_string(out, audit_code_name(finding.code));
  out << ", \"severity\": ";
  write_json_string(out, severity_name(finding.severity));
  if (!path.empty()) {
    out << ", \"path\": ";
    write_json_string(out, path);
  }
  out << ", \"message\": ";
  write_json_string(out, finding.message);
  out << "}";
}

void write_report_json(std::ostream& out, const AuditReport& report,
                       std::string_view path) {
  out << "[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    out << (i == 0 ? "\n  " : ",\n  ");
    write_finding_json(out, report.findings[i], path);
  }
  out << (report.findings.empty() ? "]\n" : "\n]\n");
}

void write_sarif(std::ostream& out, std::string_view tool_name,
                 std::string_view tool_version,
                 const std::vector<SarifRule>& rules,
                 const std::vector<SarifResult>& results) {
  out << "{\n"
         "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": ";
  write_json_string(out, tool_name);
  if (!tool_version.empty()) {
    out << ",\n          \"version\": ";
    write_json_string(out, tool_version);
  }
  out << ",\n          \"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "            {\"id\": ";
    write_json_string(out, rules[i].id);
    out << ", \"name\": ";
    write_json_string(out, rules[i].name);
    out << ", \"shortDescription\": {\"text\": ";
    write_json_string(out, rules[i].short_description);
    out << "}}";
  }
  out << (rules.empty() ? "]\n" : "\n          ]\n");
  out << "        }\n"
         "      },\n"
         "      \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SarifResult& r = results[i];
    out << (i == 0 ? "\n" : ",\n") << "        {\"ruleId\": ";
    write_json_string(out, r.rule_id);
    for (std::size_t j = 0; j < rules.size(); ++j) {
      if (rules[j].id == r.rule_id) {
        out << ", \"ruleIndex\": " << j;
        break;
      }
    }
    out << ", \"level\": ";
    write_json_string(out, r.level);
    out << ", \"message\": {\"text\": ";
    write_json_string(out, r.message);
    out << "}";
    if (!r.path.empty()) {
      out << ", \"locations\": [{\"physicalLocation\": "
             "{\"artifactLocation\": {\"uri\": ";
      write_json_string(out, r.path);
      out << "}";
      if (r.line > 0) {
        out << ", \"region\": {\"startLine\": " << r.line;
        if (r.column > 0) out << ", \"startColumn\": " << r.column;
        out << "}";
      }
      out << "}}]";
    }
    out << "}";
  }
  out << (results.empty() ? "]\n" : "\n      ]\n");
  out << "    }\n"
         "  ]\n"
         "}\n";
}

std::vector<SarifRule> audit_sarif_rules() {
  static constexpr AuditCode kAll[] = {
      AuditCode::kParseError,
      AuditCode::kQuorumRange,
      AuditCode::kQuorumIntersection,
      AuditCode::kWriteWriteIntersection,
      AuditCode::kDominatedAssignment,
      AuditCode::kVoteSumMismatch,
      AuditCode::kStaleQrVersion,
      AuditCode::kUnreachableQuorum,
      AuditCode::kUnreachableVotes,
      AuditCode::kZeroVoteSite,
      AuditCode::kEvenVoteTotal,
      AuditCode::kCoterieIntersection,
      AuditCode::kCoterieMinimality,
      AuditCode::kChaosBadSchedule,
      AuditCode::kChaosUnknownTarget,
      AuditCode::kDomainConfig,
      AuditCode::kAdaptConfig,
      AuditCode::kModelScopeConfig,
  };
  std::vector<SarifRule> rules;
  for (const AuditCode code : kAll) {
    SarifRule rule;
    rule.id = audit_code_name(code);
    rule.name = audit_code_name(code);
    rule.short_description =
        "configuration audit: " + std::string(audit_code_name(code));
    rules.push_back(std::move(rule));
  }
  return rules;
}

SarifResult audit_sarif_result(const AuditFinding& finding,
                               std::string_view path) {
  SarifResult r;
  r.rule_id = audit_code_name(finding.code);
  r.level = finding.severity == AuditSeverity::kError ? "error" : "warning";
  r.message = finding.message;
  r.path = std::string(path);
  return r;
}

} // namespace quora::io
