#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "io/config_audit.hpp"

namespace quora::model {

// Hard bounds on what the explorer will even attempt. Explicit-state
// enumeration is exponential in all three: every extra site multiplies
// the per-state delivery fan-out, every extra access or fault adds an
// always-enabled transition at every state along the way.
inline constexpr std::uint32_t kMaxModelSites = 4;
inline constexpr std::size_t kMaxModelAccesses = 3;
inline constexpr std::size_t kMaxModelFaults = 4;
inline constexpr std::uint64_t kMaxModelDepth = 256;
inline constexpr std::uint64_t kMaxModelStates = 100'000'000;

/// A parsed `.model` scope: the small world `quora_model` exhausts.
///
/// The file format is the `.chaos` dialect (topology text of
/// `io::load_system` + the directives of `fault::load_chaos`) with two
/// model-only directives, and one semantic twist: action *times are
/// labels*. The explorer fires the listed accesses and faults in every
/// admissible order at every position, so `at 1 link 0 down` means "the
/// alphabet contains cutting link 0", not "link 0 goes down at t=1".
///
/// ```
/// name stale-qr-scope
/// quorum 2 2
/// sites 3
/// link 0 1
/// link 1 2
///
/// at 1 access 0 read        # the accesses the explorer may submit
/// at 2 link 0 down          # the fault alphabet (each fires at most once)
/// at 3 reassign 2 2 from 2
/// at 4 link 0 up
///
/// depth 48                  # max transitions along any one path
/// states 2000000            # visited-set budget
/// mutate accept-stale-qr    # optional: seeded-mutation fixtures only
/// ```
///
/// Consecutive fault actions sharing one `at` label fire as a *single
/// atomic transition* — so `crash 0 for 0` (which the chaos parser
/// expands to a down/up pair at the same time) is one instantaneous
/// crash-restart step, not two independently scheduled faults. Give
/// actions distinct labels when the explorer should interleave between
/// them.
struct Scope {
  /// Max transitions along one explored path (the depth bound).
  std::uint64_t max_depth = 48;
  /// Visited-set budget; exploration stops (reported, not silent) beyond.
  std::uint64_t max_states = 1u << 21;
  /// Everything the chaos dialect carries: name, topology, initial
  /// quorum, mutations. `chaos.plan` keeps the raw action list; the
  /// split views below are what the explorer consumes.
  fault::ChaosSpec chaos;
  /// The kAccess actions, in file order (times ignored).
  std::vector<fault::Action> accesses;
  /// The fault alphabet, in file order. Each entry is one atomic
  /// transition; consecutive non-access actions that share an `at` label
  /// are grouped (notably `crash S for 0` = down+up in one step).
  std::vector<std::vector<fault::Action>> faults;

  const std::string& name() const noexcept { return chaos.name; }
};

/// Parses a `.model` scope: claims `depth` and `states` and hands the
/// remaining directives to `fault::load_chaos`. Throws `io::ParseError`,
/// naming the file's own line, on malformed input.
/// Range/capability validation is `audit_model`'s job, not the parser's.
Scope load_model(std::istream& in);
Scope load_model_file(const std::string& path);

/// Static audit for `quora_check`. It parses once, through `load_model`:
/// parse failures surface as `kParseError`, the parsed plan goes through
/// `fault::audit_chaos` (out-of-range action targets reuse the chaos
/// codes), and everything model-specific — scope size, accesses, an alphabet entry
/// the model-mode cluster cannot express (stochastic windows, flaps,
/// correlations, crash-on-commit triggers, regime shifts), depth/state
/// budgets — lands under `AuditCode::kModelScopeConfig`.
io::AuditReport audit_model(std::istream& in);
io::AuditReport audit_model_file(const std::string& path);

} // namespace quora::model
