#include "fault/chaos_audit.hpp"

#include <fstream>
#include <optional>
#include <set>
#include <string>

#include "fault/fault_plan.hpp"

namespace quora::fault {
namespace {

using io::AuditCode;
using io::AuditFinding;
using io::AuditReport;
using io::AuditSeverity;

class ChaosAuditor {
public:
  AuditReport run(const ChaosSpec& spec) {
    const net::Topology& topo = spec.system->topology;
    const net::Vote total = topo.total_votes();

    if (!(spec.horizon > 0.0)) {
      error(AuditCode::kChaosBadSchedule,
            "plan declares no positive 'horizon': the soak runner cannot "
            "know when the scenario ends");
    }
    if (spec.has_quorum) {
      audit_spec("initial quorum", spec.quorum, total);
    } else if (total < 2) {
      // The runners default to quorum::majority, which needs two votes.
      error(AuditCode::kQuorumRange,
            "plan declares no 'quorum' and T=" + std::to_string(total) +
                " has no strict majority to default to (needs T >= 2)");
    }

    for (const Action& a : spec.plan.actions()) audit_action(a, topo, spec);
    for (const MessageRule& r : spec.plan.rules()) audit_rule(r, topo, spec);
    for (const CorrelationRule& c : spec.plan.correlations()) {
      audit_correlation(c, topo);
    }
    for (const std::string& m : spec.mutations) {
      if (m != "accept-stale-qr" && m != "skip-crash-cleanup") {
        error(AuditCode::kChaosBadSchedule,
              "unknown mutation '" + m +
                  "' (known: accept-stale-qr, skip-crash-cleanup)");
      } else {
        warn(AuditCode::kChaosBadSchedule,
             "plan enables seeded protocol mutation '" + m +
                 "' — checker-validation fixtures only, never production");
      }
    }
    return std::move(report_);
  }

private:
  void error(AuditCode code, std::string message) {
    report_.findings.push_back(
        AuditFinding{code, AuditSeverity::kError, std::move(message)});
  }
  void warn(AuditCode code, std::string message) {
    report_.findings.push_back(
        AuditFinding{code, AuditSeverity::kWarning, std::move(message)});
  }

  void audit_spec(const std::string& label, const quorum::QuorumSpec& spec,
                  net::Vote total) {
    if (spec.q_r < 1 || spec.q_w < 1 || spec.q_r > total || spec.q_w > total) {
      error(AuditCode::kQuorumRange,
            label + " (" + std::to_string(spec.q_r) + ", " +
                std::to_string(spec.q_w) + ") outside [1, T=" +
                std::to_string(total) + "]");
      return;
    }
    if (spec.q_r + spec.q_w <= total) {
      error(AuditCode::kQuorumIntersection,
            label + ": q_r + q_w = " + std::to_string(spec.q_r + spec.q_w) +
                " <= T = " + std::to_string(total));
    }
    if (2 * spec.q_w <= total) {
      error(AuditCode::kWriteWriteIntersection,
            label + ": 2*q_w = " + std::to_string(2 * spec.q_w) +
                " <= T = " + std::to_string(total));
    }
  }

  void check_site(const char* what, double t, net::SiteId s,
                  const net::Topology& topo) {
    if (s >= topo.site_count()) {
      error(AuditCode::kChaosUnknownTarget,
            std::string(what) + " at t=" + std::to_string(t) +
                " names site " + std::to_string(s) + " but the topology has " +
                std::to_string(topo.site_count()) + " sites");
    }
  }

  void check_link(const char* what, double t, net::LinkId l,
                  const net::Topology& topo) {
    if (l >= topo.link_count()) {
      error(AuditCode::kChaosUnknownTarget,
            std::string(what) + " at t=" + std::to_string(t) +
                " names link " + std::to_string(l) + " but the topology has " +
                std::to_string(topo.link_count()) + " links");
    }
  }

  void audit_action(const Action& a, const net::Topology& topo,
                    const ChaosSpec& spec) {
    if (!(a.time >= 0.0)) {
      error(AuditCode::kChaosBadSchedule,
            "action scheduled at negative time " + std::to_string(a.time));
    }
    if (spec.horizon > 0.0 && a.time > spec.horizon) {
      warn(AuditCode::kChaosBadSchedule,
           "action at t=" + std::to_string(a.time) +
               " lies beyond the horizon (" + std::to_string(spec.horizon) +
               ") and will never fire");
    }
    switch (a.kind) {
      case Action::Kind::kSiteDown:
      case Action::Kind::kSiteUp:
        check_site("site action", a.time, a.site, topo);
        break;
      case Action::Kind::kLinkDown:
      case Action::Kind::kLinkUp:
        check_link("link action", a.time, a.link, topo);
        break;
      case Action::Kind::kPartition: {
        std::set<net::SiteId> seen;
        for (const auto& group : a.groups) {
          for (const net::SiteId s : group) {
            check_site("partition", a.time, s, topo);
            if (!seen.insert(s).second) {
              error(AuditCode::kChaosBadSchedule,
                    "partition at t=" + std::to_string(a.time) +
                        " lists site " + std::to_string(s) +
                        " in more than one group");
            }
          }
        }
        break;
      }
      case Action::Kind::kHeal:
      case Action::Kind::kHealLinks:
        break;
      case Action::Kind::kReassign:
        check_site("reassign", a.time, a.site, topo);
        audit_spec("reassign at t=" + std::to_string(a.time), a.next,
                   topo.total_votes());
        break;
      case Action::Kind::kArmCrashOnCommit:
        if (a.site != kAnySite) {
          check_site("crash-on-commit", a.time, a.site, topo);
        }
        // duration == 0 is the defined immediate-restart crash.
        if (!(a.duration >= 0.0)) {
          error(AuditCode::kChaosBadSchedule,
                "crash-on-commit at t=" + std::to_string(a.time) +
                    " needs a down-time >= 0");
        }
        break;
      case Action::Kind::kDomainDown:
      case Action::Kind::kDomainUp:
        check_domain("domain action", a.time, a.domain, topo);
        break;
      case Action::Kind::kOneWayDown:
      case Action::Kind::kOneWayUp:
        check_site("oneway", a.time, a.site, topo);
        check_site("oneway", a.time, a.site_b, topo);
        if (a.site < topo.site_count() && a.site_b < topo.site_count() &&
            !topo.has_link(a.site, a.site_b)) {
          error(AuditCode::kChaosUnknownTarget,
                "oneway at t=" + std::to_string(a.time) + " names link {" +
                    std::to_string(a.site) + ", " + std::to_string(a.site_b) +
                    "} but no such link exists");
        }
        break;
      case Action::Kind::kSetAlpha:
        if (!(a.value >= 0.0 && a.value <= 1.0)) {
          error(AuditCode::kChaosBadSchedule,
                "alpha shift at t=" + std::to_string(a.time) + " sets " +
                    std::to_string(a.value) + " outside [0, 1]");
        }
        break;
      case Action::Kind::kSetReliability:
        if (!(a.value > 0.0 && a.value < 1.0)) {
          error(AuditCode::kChaosBadSchedule,
                "reliability shift at t=" + std::to_string(a.time) + " sets " +
                    std::to_string(a.value) +
                    " outside (0, 1): the repair-time model needs a proper "
                    "fraction");
        }
        break;
      case Action::Kind::kSetRho:
        if (!(a.value > 0.0)) {
          error(AuditCode::kChaosBadSchedule,
                "rho shift at t=" + std::to_string(a.time) +
                    " needs a positive access/failure ratio");
        }
        break;
      case Action::Kind::kAccess:
        check_site("access", a.time, a.site, topo);
        break;
    }
  }

  void check_domain(const char* what, double t, const std::string& prefix,
                    const net::Topology& topo) {
    if (!topo.has_domains()) {
      error(AuditCode::kDomainConfig,
            std::string(what) + " at t=" + std::to_string(t) +
                " targets domain '" + prefix +
                "' but the topology declares no domains");
      return;
    }
    if (topo.sites_in_domain(prefix).empty()) {
      error(AuditCode::kDomainConfig,
            std::string(what) + " at t=" + std::to_string(t) +
                " targets domain '" + prefix + "' but no site belongs to it");
    }
  }

  void audit_correlation(const CorrelationRule& c, const net::Topology& topo) {
    if (c.level < 1 || c.level > 3) {
      error(AuditCode::kChaosBadSchedule,
            "correlate level " + std::to_string(c.level) +
                " outside 1 (region) .. 3 (rack)");
    }
    if (!(c.probability >= 0.0 && c.probability <= 1.0)) {
      error(AuditCode::kChaosBadSchedule,
            "correlate probability " + std::to_string(c.probability) +
                " outside [0, 1]");
    }
    if (!(c.down_for > 0.0)) {
      error(AuditCode::kChaosBadSchedule,
            "correlate needs a positive down-time");
    }
    if (!topo.has_domains()) {
      error(AuditCode::kDomainConfig,
            "correlate rule needs domain annotations but the topology "
            "declares none");
    }
  }

  void audit_rule(const MessageRule& r, const net::Topology& topo,
                  const ChaosSpec& spec) {
    // Windows are half-open [from, until): inverted windows are rejected,
    // but the empty from == until window is merely inert (warning).
    if (r.until < r.from || !(r.from >= 0.0)) {
      error(AuditCode::kChaosBadSchedule,
            "window [" + std::to_string(r.from) + ", " +
                std::to_string(r.until) + ") is inverted or starts "
                "before t=0");
    } else if (r.until == r.from) {
      warn(AuditCode::kChaosBadSchedule,
           "window [" + std::to_string(r.from) + ", " +
               std::to_string(r.until) + ") is empty and can never match");
    }
    if (!(r.probability >= 0.0 && r.probability <= 1.0)) {
      error(AuditCode::kChaosBadSchedule,
            "window probability " + std::to_string(r.probability) +
                " outside [0, 1]");
    }
    if (r.kind == MessageRule::Kind::kDelay && !(r.mean_extra > 0.0)) {
      error(AuditCode::kChaosBadSchedule,
            "delay window needs a positive mean extra latency");
    }
    if (r.link != kAllLinks) check_link("window", r.from, r.link, topo);
    if (!r.domain_a.empty()) {
      check_domain("window", r.from, r.domain_a, topo);
      if (r.domain_b != "*") check_domain("window", r.from, r.domain_b, topo);
      if (topo.has_domains()) {
        // The rule should actually select at least one link.
        bool any = false;
        for (net::LinkId l = 0; l < topo.link_count() && !any; ++l) {
          const net::Link& link = topo.link(l);
          const std::string& da = topo.domain(link.a);
          const std::string& db = topo.domain(link.b);
          const auto crosses = [&](const std::string& x,
                                   const std::string& y) {
            if (!net::Topology::domain_contains(r.domain_a, x)) return false;
            if (r.domain_b == "*") {
              return !net::Topology::domain_contains(r.domain_a, y);
            }
            return net::Topology::domain_contains(r.domain_b, y);
          };
          any = crosses(da, db) || crosses(db, da);
        }
        if (!any) {
          warn(AuditCode::kDomainConfig,
               "window between '" + r.domain_a + "' and '" + r.domain_b +
                   "' matches no link");
        }
      }
    }
    if (spec.horizon > 0.0 && r.from > spec.horizon) {
      warn(AuditCode::kChaosBadSchedule,
           "window starting at t=" + std::to_string(r.from) +
               " lies beyond the horizon and will never apply");
    }
  }

  AuditReport report_;
};

} // namespace

io::AuditReport audit_chaos(std::istream& in) {
  std::optional<ChaosSpec> spec;
  try {
    spec = load_chaos(in);
  } catch (const std::exception& e) {
    return io::AuditReport{
        {AuditFinding{AuditCode::kParseError, AuditSeverity::kError, e.what()}}};
  }
  return audit_chaos(*spec);
}

io::AuditReport audit_chaos(const ChaosSpec& spec) {
  return ChaosAuditor().run(spec);
}

io::AuditReport audit_chaos_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open chaos plan: " + path);
  return audit_chaos(in);
}

} // namespace quora::fault
