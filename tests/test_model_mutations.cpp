// The seeded-mutation harness, in-process: re-introduce two known-bad
// behaviours behind Cluster::Params::TestingMutations and assert that
// quora_model's explorer (a) finds each of them in the shipped fixture
// scopes, (b) minimizes the trace to one that still replays to the same
// violation, and (c) emits a `.chaos` counterexample the timed simulator
// validates (same check_safety code under quora_chaos's exact run
// parameters — see model::emit_chaos). The clean halves assert the
// unmutated protocol survives the very same scopes.
//
// The ctest targets `model-mutation-*` run the real quora_model binary
// over the same fixtures; this suite covers the library API.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/chaos_emit.hpp"
#include "model/explorer.hpp"
#include "model/scope.hpp"

namespace {

using quora::model::EmittedChaos;
using quora::model::Explorer;
using quora::model::Scope;
using quora::model::Violation;

Scope load_fixture(const char* name) {
  return quora::model::load_model_file(std::string(QUORA_EXAMPLES_DIR) +
                                       "/model/" + name);
}

bool has_code(const Violation& v, const std::string& code) {
  const std::vector<std::string> codes = v.codes();
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

/// What the DFS must do on a fixture, exactly: states explored and unique,
/// then the minimized and original counterexample lengths. A change to
/// the explorer's enumeration order moves these.
struct Traversal {
  std::uint64_t explored;
  std::uint64_t unique_states;
  std::size_t minimized_steps;
  std::size_t trace_steps;
};

void expect_detected(const char* fixture, const std::string& code,
                     const Traversal& expected) {
  const Scope scope = load_fixture(fixture);
  Explorer explorer(scope);
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value()) << fixture << ": mutation not detected";
  EXPECT_TRUE(has_code(*violation, code)) << fixture;
  EXPECT_EQ(explorer.stats().explored, expected.explored) << fixture;
  EXPECT_EQ(explorer.stats().unique_states, expected.unique_states) << fixture;

  // Minimization must end on a trace that still replays to (at least)
  // the same violation codes, never longer than what the DFS found.
  const std::vector<quora::model::Choice> minimized =
      explorer.minimize(*violation);
  ASSERT_LE(minimized.size(), violation->trace.size());
  EXPECT_EQ(minimized.size(), expected.minimized_steps) << fixture;
  EXPECT_EQ(violation->trace.size(), expected.trace_steps) << fixture;
  const auto replayed = explorer.replay(minimized);
  ASSERT_TRUE(replayed.has_value()) << fixture << ": minimized trace dead";
  EXPECT_TRUE(has_code(*replayed, code)) << fixture;

  // Counterexample-to-chaos: the emitted plan must validate in-process —
  // the timed simulator, run exactly as quora_chaos runs it, reproduces
  // the same safety code under the embedded (seed, spacing).
  const EmittedChaos chaos = quora::model::emit_chaos(scope, *replayed);
  EXPECT_TRUE(chaos.validated) << fixture << ": .chaos does not reproduce";
  EXPECT_NE(chaos.text.find("mutate"), std::string::npos);
  EXPECT_NE(chaos.text.find(code), std::string::npos);
}

quora::model::Stats expect_clean(const char* fixture,
                                 std::uint64_t states_budget) {
  Scope scope = load_fixture(fixture);
  scope.chaos.mutations.clear();
  scope.max_states = states_budget;
  Explorer explorer(scope);
  EXPECT_FALSE(explorer.run().has_value())
      << fixture << ": unmutated protocol violated safety";
  return explorer.stats();
}

TEST(SeededMutations, AcceptStaleQrIsDetectedAndReplays) {
  // Dropping the §2.2 stale-version rejection lets a reconnected minority
  // grant reads under a superseded assignment: [stale-assignment].
  expect_detected("mutation_stale_qr.model", "stale-assignment",
                  {/*explored=*/898, /*unique_states=*/336, /*minimized=*/6,
                   /*trace=*/6});
}

TEST(SeededMutations, SkipCrashCleanupIsDetectedAndReplays) {
  // Keeping a crashed coordinator's pending coordinations alive lets two
  // writes both commit version 1: [duplicate-version].
  expect_detected("mutation_crash_cleanup.model", "duplicate-version",
                  {/*explored=*/164637, /*unique_states=*/93266,
                   /*minimized=*/21, /*trace=*/24});
}

TEST(SeededMutations, StaleQrScopeIsSafeWithoutTheMutation) {
  // The stale-qr scope is small enough to exhaust outright.
  expect_clean("mutation_stale_qr.model", 2'000'000);
}

TEST(SeededMutations, CrashCleanupScopeIsSafeWithoutTheMutation) {
  // The crash scope does not exhaust in reasonable time; the differential
  // claim is bounded — no violation within the budget the mutated run
  // needed to find one (and then some).
  const quora::model::Stats s =
      expect_clean("mutation_crash_cleanup.model", 150'000);
  // The traversal is pinned too: this is the scope perfbench's
  // model_explore times, and only pinned counts catch a traversal that
  // moves between commits.
  EXPECT_TRUE(s.state_capped);
  EXPECT_EQ(s.explored, 298578u);
  EXPECT_EQ(s.unique_states, 150001u);
  EXPECT_EQ(s.transitions, 298577u);
  EXPECT_EQ(s.visited_hits, 117717u);
  EXPECT_EQ(s.sleep_pruned, 362161u);
}

} // namespace
