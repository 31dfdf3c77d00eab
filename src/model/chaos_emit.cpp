#include "model/chaos_emit.hpp"

#include <algorithm>
#include <sstream>

#include "fault/injector.hpp"
#include "io/topology_io.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"
#include "quorum/quorum_spec.hpp"

namespace quora::model {
namespace {

using fault::Action;

/// One scheduled step of the emitted plan. Adjacent down/up pairs on a
/// site collapse into a zero-duration crash: the timed simulator applies
/// both liveness flips at the same instant, so in-flight messages
/// survive — exactly the model's consecutive down/up transitions.
struct Step {
  Action action;
  bool is_crash = false;  // render as `crash S for 0`
};

std::string render_action(const Step& step) {
  const Action& a = step.action;
  using Kind = Action::Kind;
  if (step.is_crash) return "crash " + std::to_string(a.site) + " for 0";
  switch (a.kind) {
    case Kind::kSiteDown: return "site " + std::to_string(a.site) + " down";
    case Kind::kSiteUp: return "site " + std::to_string(a.site) + " up";
    case Kind::kLinkDown: return "link " + std::to_string(a.link) + " down";
    case Kind::kLinkUp: return "link " + std::to_string(a.link) + " up";
    case Kind::kPartition: {
      std::string out = "partition";
      for (std::size_t g = 0; g < a.groups.size(); ++g) {
        out += g == 0 ? " " : " | ";
        for (std::size_t i = 0; i < a.groups[g].size(); ++i) {
          if (i != 0) out += ',';
          out += std::to_string(a.groups[g][i]);
        }
      }
      return out;
    }
    case Kind::kHeal: return "heal";
    case Kind::kHealLinks: return "heal-links";
    case Kind::kReassign:
      return "reassign " + std::to_string(a.next.q_r) + " " +
             std::to_string(a.next.q_w) + " from " + std::to_string(a.site);
    case Kind::kDomainDown: return "domain " + a.domain + " down";
    case Kind::kDomainUp: return "domain " + a.domain + " up";
    case Kind::kOneWayDown:
      return "oneway " + std::to_string(a.site) + " " +
             std::to_string(a.site_b) + " down";
    case Kind::kOneWayUp:
      return "oneway " + std::to_string(a.site) + " " +
             std::to_string(a.site_b) + " up";
    case Kind::kAccess:
      return "access " + std::to_string(a.site) + " " +
             (a.is_read ? "read" : "write");
    default:
      // Audited out of model scopes (triggers, regime shifts).
      return "heal";
  }
}

void add_to_plan(fault::FaultPlan& plan, const Step& step, double t) {
  const Action& a = step.action;
  using Kind = Action::Kind;
  if (step.is_crash) {
    plan.crash(t, a.site, 0.0);
    return;
  }
  switch (a.kind) {
    case Kind::kSiteDown: plan.site_down(t, a.site); break;
    case Kind::kSiteUp: plan.site_up(t, a.site); break;
    case Kind::kLinkDown: plan.link_down(t, a.link); break;
    case Kind::kLinkUp: plan.link_up(t, a.link); break;
    case Kind::kPartition: plan.partition(t, a.groups); break;
    case Kind::kHeal: plan.heal(t); break;
    case Kind::kHealLinks: plan.heal_links(t); break;
    case Kind::kReassign: plan.reassign(t, a.site, a.next); break;
    case Kind::kDomainDown: plan.domain_down(t, a.domain); break;
    case Kind::kDomainUp: plan.domain_up(t, a.domain); break;
    case Kind::kOneWayDown: plan.oneway_down(t, a.site, a.site_b); break;
    case Kind::kOneWayUp: plan.oneway_up(t, a.site, a.site_b); break;
    case Kind::kAccess: plan.access(t, a.site, a.is_read); break;
    default: break;
  }
}

/// The submit/fault skeleton of the trace, with down/up pairs merged.
std::vector<Step> skeleton(const Scope& scope,
                           const std::vector<Choice>& trace) {
  std::vector<Step> steps;
  for (const Choice& c : trace) {
    if (c.kind == Choice::Kind::kSubmit) {
      steps.push_back(Step{scope.accesses[c.index], false});
    } else if (c.kind == Choice::Kind::kFault) {
      // Atomic groups flatten back to consecutive actions; the down/up
      // merge below re-creates `crash S for 0` for crash groups.
      for (const Action& a : scope.faults[c.index]) {
        steps.push_back(Step{a, false});
      }
    }
  }
  std::vector<Step> merged;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i + 1 < steps.size() &&
        steps[i].action.kind == Action::Kind::kSiteDown &&
        steps[i + 1].action.kind == Action::Kind::kSiteUp &&
        steps[i].action.site == steps[i + 1].action.site) {
      Step crash = steps[i];
      crash.is_crash = true;
      merged.push_back(crash);
      ++i;
    } else {
      merged.push_back(steps[i]);
    }
  }
  return merged;
}

std::vector<std::string> safety_codes(const msg::SafetyReport& report) {
  std::vector<std::string> out;
  for (const msg::SafetyViolation& v : report.violations) {
    out.push_back(msg::invariant_slug(v.code));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Runs the candidate plan exactly the way `quora_chaos` would (same
/// params, same injector wiring — see run_plan there) and reports
/// whether every target safety code reproduces.
bool reproduces(const Scope& scope, const fault::FaultPlan& plan,
                std::uint64_t seed, double horizon,
                const std::vector<std::string>& target) {
  const net::Topology& topo = scope.chaos.system->topology;
  msg::Cluster::Params params;
  params.spec = scope.chaos.has_quorum
                    ? scope.chaos.quorum
                    : quorum::majority(topo.total_votes());
  params.max_retries = 2;
  for (const std::string& m : scope.chaos.mutations) {
    if (m == "accept-stale-qr") params.mutations.accept_stale_qr = true;
    if (m == "skip-crash-cleanup") params.mutations.skip_crash_cleanup = true;
  }
  params.config.reliability = 0.999999;
  params.config.rho = 1e-9;

  msg::Cluster cluster(topo, params, seed);
  fault::FaultInjector injector(plan, seed);
  cluster.attach_injector(&injector);
  cluster.run_until(horizon);

  const std::vector<std::string> got = safety_codes(msg::check_safety(cluster));
  return std::includes(got.begin(), got.end(), target.begin(), target.end());
}

} // namespace

EmittedChaos emit_chaos(const Scope& scope, const Violation& violation,
                        const EmitOptions& opt) {
  EmittedChaos out;
  const std::vector<Step> steps = skeleton(scope, violation.trace);
  const std::vector<std::string> target = safety_codes(violation.safety);

  // Grid search: the model's delivery orderings cannot be scripted, so
  // find a (spacing, seed) under which the timed simulator's natural
  // message timing re-creates the race.
  double step_dt = opt.step_grid.empty() ? 1.0 : opt.step_grid.front();
  if (!target.empty()) {
    for (const double dt : opt.step_grid) {
      fault::FaultPlan plan;
      double t = opt.base_time;
      for (const Step& s : steps) {
        add_to_plan(plan, s, t);
        t += dt;
      }
      const double horizon = t + 10.0;
      for (std::uint64_t seed = 1; seed <= opt.max_seed; ++seed) {
        if (reproduces(scope, plan, seed, horizon, target)) {
          out.validated = true;
          out.seed = seed;
          step_dt = dt;
          break;
        }
      }
      if (out.validated) break;
    }
  }

  std::ostringstream text;
  text << "# Counterexample emitted by quora_model from scope '"
       << scope.name() << "'.\n";
  text << "# Violates:";
  for (const std::string& c : violation.codes()) text << ' ' << c;
  text << "\n#\n# Model schedule (deliveries replay as comments only —\n"
          "# the timed run below re-creates them via the embedded seed";
  text << (out.validated ? ", validated in-process):\n"
                         : "; NOT validated in-process):\n");
  for (std::size_t i = 0; i < violation.trace.size(); ++i) {
    text << "#   " << (i + 1) << ". " << violation.trace[i].describe(scope)
         << '\n';
  }
  text << '\n';
  text << "name " << scope.name() << "-counterexample\n";
  text << "seed " << out.seed << '\n';

  double t = opt.base_time;
  double last = opt.base_time;
  for (const Step& s : steps) {
    (void)s;
    last = t;
    t += step_dt;
  }
  text << "horizon " << (last + 10.0) << '\n';
  if (scope.chaos.has_quorum) {
    text << "quorum " << scope.chaos.quorum.q_r << ' '
         << scope.chaos.quorum.q_w << '\n';
  }
  // save_system round-trips the topology, but its `name` line must go:
  // `name` is a chaos-level directive (load_chaos consumes it), so an
  // embedded topology name would clobber the plan name above — and an
  // empty one would not even parse.
  std::ostringstream saved_system;
  io::save_system(saved_system, *scope.chaos.system);
  std::istringstream system_lines(saved_system.str());
  std::string system_line;
  while (std::getline(system_lines, system_line)) {
    if (system_line.rfind("name", 0) == 0) continue;
    text << system_line << '\n';
  }
  for (const std::string& m : scope.chaos.mutations) {
    text << "mutate " << m << '\n';
  }
  t = opt.base_time;
  for (const Step& s : steps) {
    text << "at " << t << ' ' << render_action(s) << '\n';
    t += step_dt;
  }
  out.step = step_dt;
  out.text = text.str();
  return out;
}

} // namespace quora::model
