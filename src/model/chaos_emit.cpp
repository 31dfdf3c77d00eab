#include "model/chaos_emit.hpp"

#include <algorithm>
#include <sstream>

#include "fault/injector.hpp"
#include "io/topology_io.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"

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

std::string render_step(const Step& step) {
  if (step.is_crash) return "crash " + std::to_string(step.action.site) + " for 0";
  return fault::render_action(step.action);
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

/// Runs the candidate plan with `quora_chaos`'s parameters and injector
/// wiring and reports whether every target safety code reproduces.
bool reproduces(const fault::ChaosSpec& plan, std::uint64_t seed,
                const std::vector<std::string>& target) {
  msg::Cluster cluster(plan.system->topology, msg::chaos_params(plan), seed);
  fault::FaultInjector injector(plan.plan, seed);
  cluster.attach_injector(&injector);
  cluster.run_until(plan.horizon);

  const std::vector<std::string> got = safety_codes(msg::check_safety(cluster));
  return std::includes(got.begin(), got.end(), target.begin(), target.end());
}

/// The plan body for one step spacing: everything after the `seed` line.
std::string plan_body(const Scope& scope, const std::vector<Step>& steps,
                      double base_time, double step_dt) {
  std::ostringstream text;
  double last = base_time;
  for (std::size_t i = 1; i < steps.size(); ++i) last += step_dt;
  text << "horizon " << (last + 10.0) << '\n';
  if (scope.chaos.has_quorum) {
    text << "quorum " << scope.chaos.quorum.q_r << ' '
         << scope.chaos.quorum.q_w << '\n';
  }
  // save_system round-trips the topology, but its `name` line must go:
  // `name` is a chaos-level directive (load_chaos consumes it), so an
  // embedded topology name would clobber the plan name — and an empty
  // one would not even parse.
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
  double t = base_time;
  for (const Step& s : steps) {
    text << "at " << t << ' ' << render_step(s) << '\n';
    t += step_dt;
  }
  return text.str();
}

} // namespace

EmittedChaos emit_chaos(const Scope& scope, const Violation& violation,
                        const EmitOptions& opt) {
  EmittedChaos out;
  const std::vector<Step> steps = skeleton(scope, violation.trace);
  const std::vector<std::string> target = safety_codes(violation.safety);

  // Grid search: the model's delivery orderings cannot be scripted, so
  // find a (spacing, seed) under which the timed simulator's natural
  // message timing re-creates the race. Each candidate is validated from
  // its own text, so the plan that reproduced is the file written below.
  out.step = opt.step_grid.empty() ? 1.0 : opt.step_grid.front();
  std::string body = plan_body(scope, steps, opt.base_time, out.step);
  if (!target.empty()) {
    for (const double dt : opt.step_grid) {
      std::string candidate = plan_body(scope, steps, opt.base_time, dt);
      std::istringstream in(candidate);
      const fault::ChaosSpec plan = fault::load_chaos(in);
      for (std::uint64_t seed = 1; seed <= opt.max_seed; ++seed) {
        if (reproduces(plan, seed, target)) {
          out.validated = true;
          out.seed = seed;
          out.step = dt;
          body = std::move(candidate);
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
  text << body;
  out.text = text.str();
  return out;
}

} // namespace quora::model
