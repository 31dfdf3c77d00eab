#include "model/scope.hpp"

#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/chaos_audit.hpp"
#include "io/directives.hpp"

namespace quora::model {

Scope load_model(std::istream& in) {
  Scope scope;
  std::vector<io::Directive> chaos;
  for (io::Directive& directive : io::read_directives(in)) {
    io::Cells cells(directive);
    const std::string& keyword = cells.keyword();
    if (keyword != "depth" && keyword != "states") {
      chaos.push_back(std::move(directive));
      continue;
    }
    const std::string error = "'" + keyword + "' needs a positive count";
    const std::uint64_t value = cells.u64(error);
    if (value == 0) cells.fail(error);
    cells.done();
    if (keyword == "depth") {
      scope.max_depth = value;
    } else {
      scope.max_states = value;
    }
  }
  scope.chaos = fault::load_chaos(std::move(chaos));
  bool glue = false;  // previous action was a fault we may extend
  for (const fault::Action& a : scope.chaos.plan.actions()) {
    if (a.kind == fault::Action::Kind::kAccess) {
      scope.accesses.push_back(a);
      glue = false;
      continue;
    }
    if (glue && !scope.faults.empty() &&
        scope.faults.back().back().time == a.time) {
      scope.faults.back().push_back(a);
    } else {
      scope.faults.push_back({a});
    }
    glue = true;
  }
  return scope;
}

Scope load_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model scope: " + path);
  return load_model(in);
}

io::AuditReport audit_model(std::istream& in) {
  using io::AuditCode;
  using io::AuditSeverity;
  Scope scope;
  try {
    scope = load_model(in);
  } catch (const std::exception& e) {
    return io::AuditReport{
        {io::AuditFinding{AuditCode::kParseError, AuditSeverity::kError, e.what()}}};
  }

  // The chaos-dialect checks (quorum consistency, site/link ranges,
  // mutation names) run on a copy of the parsed plan. Scopes are untimed,
  // so a far horizon keeps its schedule checks quiet.
  fault::ChaosSpec chaos = scope.chaos;
  if (!(chaos.horizon > 0.0)) chaos.horizon = 1e9;
  io::AuditReport report = fault::audit_chaos(chaos);
  const auto add = [&report](AuditSeverity sev, std::string msg) {
    report.findings.push_back(io::AuditFinding{AuditCode::kModelScopeConfig,
                                               sev, std::move(msg)});
  };
  const auto error = [&add](std::string msg) {
    add(AuditSeverity::kError, std::move(msg));
  };
  if (scope.chaos.horizon > 0.0) {
    add(AuditSeverity::kWarning,
        "scope declares a 'horizon' but model exploration is untimed — the "
        "directive is ignored (use 'depth' to bound paths)");
  }
  if (scope.chaos.has_seed) {
    add(AuditSeverity::kWarning,
        "scope declares a 'seed' but model-mode transitions draw no "
        "randomness — the directive is ignored");
  }

  // Scope size: exploration is exponential in all of these.
  const std::uint32_t sites = scope.chaos.system->topology.site_count();
  if (sites > kMaxModelSites) {
    error("scope has " + std::to_string(sites) +
          " sites; bounded exploration handles at most " +
          std::to_string(kMaxModelSites));
  }
  if (scope.accesses.empty()) {
    error("scope schedules no 'access' action: with nothing submitted there "
          "is no protocol behaviour to check");
  } else if (scope.accesses.size() > kMaxModelAccesses) {
    error("scope schedules " + std::to_string(scope.accesses.size()) +
          " accesses; the explorer handles at most " +
          std::to_string(kMaxModelAccesses) + " concurrent accesses");
  }
  if (scope.faults.size() > kMaxModelFaults) {
    error("scope schedules " + std::to_string(scope.faults.size()) +
          " fault steps; the explorer handles at most " +
          std::to_string(kMaxModelFaults) +
          " (actions sharing an 'at' label fire as one atomic step)");
  }

  // Alphabet capability: model mode is deterministic and injector-free,
  // so anything stochastic or trigger-based cannot be expressed.
  std::vector<fault::Action> flat_faults;
  for (const std::vector<fault::Action>& group : scope.faults) {
    flat_faults.insert(flat_faults.end(), group.begin(), group.end());
  }
  for (const fault::Action& a : flat_faults) {
    using Kind = fault::Action::Kind;
    switch (a.kind) {
      case Kind::kArmCrashOnCommit:
        error("crash-on-commit triggers need the fault injector, which "
              "model mode does not attach — script 'site N down' / "
              "'site N up' pairs instead");
        break;
      case Kind::kSetAlpha:
      case Kind::kSetReliability:
      case Kind::kSetRho:
        error("regime shifts (alpha/reliability/rho) drive the Poisson "
              "processes, which model mode never schedules");
        break;
      default:
        break;
    }
  }
  if (!scope.chaos.plan.rules().empty()) {
    error("stochastic message windows ('window ... drop/delay/duplicate') "
          "cannot run under model exploration: every schedule is already "
          "enumerated deterministically");
  }
  if (!scope.chaos.plan.correlations().empty()) {
    error("'correlate' rules draw from the injector RNG, which model mode "
          "never consults");
  }

  // Budgets. The parser rejects zero, so only the upper bounds remain.
  if (scope.max_depth > kMaxModelDepth) {
    error("depth " + std::to_string(scope.max_depth) + " exceeds the bound " +
          std::to_string(kMaxModelDepth));
  }
  if (scope.max_states > kMaxModelStates) {
    error("state budget " + std::to_string(scope.max_states) +
          " exceeds the bound " + std::to_string(kMaxModelStates));
  }
  return report;
}

io::AuditReport audit_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model scope: " + path);
  return audit_model(in);
}

} // namespace quora::model
