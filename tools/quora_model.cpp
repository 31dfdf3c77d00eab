// quora-model — bounded explicit-state model checking of the cluster/QR
// protocol over a small declarative scope.
//
//   quora_model [--no-dpor] [--depth N] [--states N] [--mutate NAME]
//               [--no-mutations] [--emit-chaos FILE] [--quiet] SCOPE...
//
// Each SCOPE is a `.model` file (see src/model/scope.hpp and
// docs/MODEL_CHECKING.md): a topology, an initial quorum assignment, up
// to 3 scripted accesses, and a fault alphabet of up to 4 actions. The
// explorer drives the *real* msg::Cluster protocol code through every
// admissible interleaving — per-direction FIFO delivery is the only
// ordering constraint — checking msg::check_safety plus the model-level
// properties (QR monotonicity, installed-assignment intersection,
// grant-backed-by-quorum) at every reached state.
//
// Sleep-set DPOR prunes commuting schedules; --no-dpor disables it for
// cross-validation (same verdict, more states). On a violation the trace
// is minimized greedily and, with --emit-chaos, rendered as a `.chaos`
// plan whose embedded seed replays the same violation under quora_chaos.
//
// Exit status: 0 every scope explored safe, 1 a violation was found,
// 2 usage, I/O, or scope-audit problems — CI gates on it directly.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/cli_args.hpp"
#include "model/chaos_emit.hpp"
#include "model/explorer.hpp"
#include "model/scope.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: quora_model [--no-dpor] [--depth N] [--states N]\n"
         "                   [--mutate NAME] [--no-mutations]\n"
         "                   [--emit-chaos FILE] [--quiet] SCOPE...\n"
         "  --no-dpor         explore without partial-order reduction\n"
         "                    (cross-validation: same verdict, more states)\n"
         "  --depth N         override the scope's path-depth bound (1-256)\n"
         "  --states N        override the scope's visited-state budget\n"
         "                    (1-100000000)\n"
         "  --mutate NAME     enable a seeded protocol mutation on top of\n"
         "                    the scope (accept-stale-qr |\n"
         "                    skip-crash-cleanup)\n"
         "  --no-mutations    ignore the scope's 'mutate' lines (run the\n"
         "                    unmutated protocol in the same scope)\n"
         "  --emit-chaos FILE write the first minimized counterexample as\n"
         "                    a replayable .chaos plan\n"
         "  --quiet           suppress per-scope statistics\n";
  std::exit(2);
}

/// A --depth/--states override. It applies after the scope audit, so it is
/// held to the audit's own bounds here; a bad value exits 2.
std::uint64_t budget_flag(const std::string& flag, const std::string& token,
                          std::uint64_t max) {
  try {
    return quora::io::parse_uint(token, 1, max);
  } catch (const std::invalid_argument& e) {
    std::cerr << "quora_model: bad value for " << flag << ": " << e.what() << '\n';
    std::exit(2);
  }
}

} // namespace

int main(int argc, char** argv) {
  using namespace quora;

  model::Options options;
  std::optional<std::uint64_t> depth_override;
  std::optional<std::uint64_t> states_override;
  std::vector<std::string> extra_mutations;
  bool no_mutations = false;
  std::string emit_path;
  bool quiet = false;
  std::vector<std::string> scopes;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (++i >= argc) {
        std::cerr << "quora_model: " << arg << " needs a value\n";
        usage();
      }
      return argv[i];
    };
    if (arg == "--no-dpor") {
      options.dpor = false;
    } else if (arg == "--depth") {
      depth_override = budget_flag(arg, value(), model::kMaxModelDepth);
    } else if (arg == "--states") {
      states_override = budget_flag(arg, value(), model::kMaxModelStates);
    } else if (arg == "--mutate") {
      extra_mutations.push_back(value());
    } else if (arg == "--no-mutations") {
      no_mutations = true;
    } else if (arg == "--emit-chaos") {
      emit_path = value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "quora_model: unknown option " << arg << '\n';
      usage();
    } else {
      scopes.push_back(arg);
    }
  }
  if (scopes.empty()) usage();

  bool any_violation = false;
  bool emitted = false;
  for (const std::string& path : scopes) {
    // Audit first: an out-of-scope file would either mislead (silently
    // unexplorable) or blow the budgets, so it is a hard error.
    model::Scope scope;
    try {
      const io::AuditReport audit = model::audit_model_file(path);
      if (!audit.ok()) {
        std::cerr << "quora_model: " << path << " fails its scope audit:\n";
        io::write_report(std::cerr, audit);
        return 2;
      }
      scope = model::load_model_file(path);
    } catch (const std::exception& e) {
      std::cerr << "quora_model: " << e.what() << '\n';
      return 2;
    }
    if (depth_override) scope.max_depth = *depth_override;
    if (states_override) scope.max_states = *states_override;
    if (no_mutations) scope.chaos.mutations.clear();
    for (const std::string& m : extra_mutations) {
      scope.chaos.mutations.push_back(m);
    }

    if (!quiet) {
      std::cout << "== " << path << '\n'
                << "scope " << scope.name() << ": "
                << scope.chaos.system->topology.site_count() << " sites, "
                << scope.accesses.size() << " access(es), "
                << scope.faults.size() << " fault(s), depth "
                << scope.max_depth << ", states " << scope.max_states
                << (options.dpor ? "" : ", dpor off") << '\n';
    }

    model::Explorer explorer(scope, options);
    const std::optional<model::Violation> violation = explorer.run();
    const model::Stats& stats = explorer.stats();
    if (!quiet) {
      std::cout << "explored " << stats.explored << " states ("
                << stats.unique_states << " unique), " << stats.transitions
                << " transitions, " << stats.visited_hits
                << " visited hits, " << stats.sleep_pruned
                << " sleep-set prunes, max depth " << stats.max_depth_seen
                << '\n';
    }

    if (!violation) {
      if (!quiet) {
        if (stats.state_capped) {
          std::cout << "INCOMPLETE: state budget exhausted before the scope "
                       "was covered\n";
        } else if (stats.depth_capped) {
          std::cout << "no violation up to depth " << scope.max_depth
                    << " (some paths were cut off)\n";
        } else {
          std::cout << "exhausted: no violation reachable in this scope\n";
        }
      }
      continue;
    }

    any_violation = true;
    std::cout << "VIOLATION in " << path << ':' << '\n';
    for (const msg::SafetyViolation& v : violation->safety.violations) {
      std::cout << "  " << v.message << '\n';
    }
    for (const model::PropertyViolation& p : violation->properties) {
      std::cout << "  [" << p.code << "] " << p.message << '\n';
    }

    const std::vector<model::Choice> minimized =
        explorer.minimize(*violation);
    std::cout << "minimized counterexample (" << minimized.size()
              << " of " << violation->trace.size() << " steps):\n";
    for (std::size_t i = 0; i < minimized.size(); ++i) {
      std::cout << "  " << (i + 1) << ". " << minimized[i].describe(scope)
                << '\n';
    }

    if (!emit_path.empty() && !emitted) {
      model::Violation final = *violation;
      if (std::optional<model::Violation> replayed =
              explorer.replay(minimized)) {
        final = *replayed;
      }
      const model::EmittedChaos chaos = model::emit_chaos(scope, final);
      std::ofstream out(emit_path);
      if (!out) {
        std::cerr << "quora_model: cannot write " << emit_path << '\n';
        return 2;
      }
      out << chaos.text;
      emitted = true;
      std::cout << "counterexample written to " << emit_path
                << (chaos.validated
                        ? " (replay validated in-process: seed " +
                              std::to_string(chaos.seed) + ", step " +
                              std::to_string(chaos.step) + ")"
                        : " (replay NOT validated in-process)")
                << '\n';
    }
  }
  return any_violation ? 1 : 0;
}
