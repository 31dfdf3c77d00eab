// Unit coverage of src/model: the `.model` scope parser/auditor and the
// bounded explorer on scopes small enough to exhaust in milliseconds.
// The end-to-end seeded-mutation checks live in test_model_mutations.cpp
// (sanitizer-slow suite) and the ctest harness targets.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/config_audit.hpp"
#include "io/topology_io.hpp"
#include "model/explorer.hpp"
#include "model/scope.hpp"
#include "msg/cluster.hpp"

namespace {

using quora::io::AuditCode;
using quora::io::AuditReport;
using quora::io::AuditSeverity;
using quora::model::Explorer;
using quora::model::Options;
using quora::model::Scope;
using quora::model::Violation;

Scope parse(const std::string& text) {
  std::istringstream in(text);
  return quora::model::load_model(in);
}

AuditReport audit(const std::string& text) {
  std::istringstream in(text);
  return quora::model::audit_model(in);
}

std::size_t errors_with(const AuditReport& report, AuditCode code) {
  std::size_t n = 0;
  for (const auto& f : report.findings) {
    if (f.code == code && f.severity == AuditSeverity::kError) ++n;
  }
  return n;
}

constexpr const char* kTinyScope =
    "name unit-tiny\n"
    "quorum 1 2\n"
    "sites 2\n"
    "link 0 1\n"
    "at 1 access 0 write\n"
    "depth 24\n"
    "states 100000\n";

TEST(ModelScope, ParsesDirectivesAndSplitsActions) {
  const Scope scope = parse(
      "name split\n"
      "quorum 2 2\n"
      "sites 3\n"
      "ring\n"
      "at 1 access 0 write\n"
      "at 2 access 2 read\n"
      "at 3 link 0 down\n"
      "at 4 link 0 up\n"
      "depth 32\n"
      "states 5000\n");
  EXPECT_EQ(scope.name(), "split");
  EXPECT_EQ(scope.max_depth, 32u);
  EXPECT_EQ(scope.max_states, 5000u);
  ASSERT_EQ(scope.accesses.size(), 2u);
  EXPECT_FALSE(scope.accesses[0].is_read);
  EXPECT_TRUE(scope.accesses[1].is_read);
  ASSERT_EQ(scope.faults.size(), 2u);  // distinct labels: two atomic steps
  EXPECT_EQ(scope.faults[0].size(), 1u);
  EXPECT_EQ(scope.faults[1].size(), 1u);
}

TEST(ModelScope, CrashFormsOneAtomicFaultGroup) {
  // `crash S for 0` expands to a down/up pair sharing one label — the
  // explorer must fire it as a single instantaneous transition.
  const Scope scope = parse(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 crash 1 for 0\n");
  ASSERT_EQ(scope.faults.size(), 1u);
  ASSERT_EQ(scope.faults[0].size(), 2u);
  EXPECT_EQ(scope.faults[0][0].kind, quora::fault::Action::Kind::kSiteDown);
  EXPECT_EQ(scope.faults[0][1].kind, quora::fault::Action::Kind::kSiteUp);
}

TEST(ModelScope, DistinctLabelsStaySeparateSteps) {
  const Scope scope = parse(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 site 1 down\n"
      "at 3 site 1 up\n");
  ASSERT_EQ(scope.faults.size(), 2u);
}

TEST(ModelScope, DepthDirectiveValidates) {
  EXPECT_THROW(parse("depth 0\n"), quora::io::ParseError);
  EXPECT_THROW(parse("depth\n"), quora::io::ParseError);
  EXPECT_THROW(parse("states 10 trailing\n"), quora::io::ParseError);
}

TEST(ModelScope, ParseErrorKeepsOriginalLineNumbers) {
  // depth/states lines are claimed before the chaos parser runs, and the
  // chaos directives before the system parser; errors further down must
  // still name the file's own line.
  try {
    parse("depth 10\nstates 20\nbogus-directive 1\n");
    FAIL() << "expected ParseError";
  } catch (const quora::io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  try {
    parse("name a\nquorum 2 2\nsites 3\nlink 0 5\n");
    FAIL() << "expected ParseError";
  } catch (const quora::io::ParseError& e) {
    EXPECT_EQ(e.line(), 4u) << e.what();
  }
}

TEST(ModelAudit, AcceptsAWellFormedScope) {
  EXPECT_TRUE(audit(kTinyScope).ok());
}

TEST(ModelAudit, FlagsScopeBeyondTheExplorableBounds) {
  const AuditReport report = audit(
      "quorum 4 4\nsites 6\nring\n"
      "at 1 link 0 down\n"
      "depth 100000\nstates 200000000\n");
  // 6 sites, no access, depth and states over their caps: four errors.
  EXPECT_EQ(errors_with(report, AuditCode::kModelScopeConfig), 4u);
}

TEST(ModelAudit, FlagsAlphabetTheModelCannotExpress) {
  const AuditReport report = audit(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 crash-on-commit any for 10\n"
      "at 3 reliability 0.5\n"
      "window 1 5 drop 0.5\n");
  EXPECT_EQ(errors_with(report, AuditCode::kModelScopeConfig), 3u);
}

TEST(ModelAudit, WarnsOnIgnoredTimedDirectives) {
  const AuditReport report = audit(
      "quorum 1 2\nsites 2\nlink 0 1\n"
      "seed 7\nhorizon 50\n"
      "at 1 access 0 write\n");
  EXPECT_TRUE(report.ok());  // warnings only
  std::size_t warnings = 0;
  for (const auto& f : report.findings) {
    if (f.code == AuditCode::kModelScopeConfig &&
        f.severity == AuditSeverity::kWarning) {
      ++warnings;
    }
  }
  EXPECT_EQ(warnings, 2u);
}

TEST(ModelExplorer, ExhaustsATinyScopeSafely) {
  const Scope scope = parse(kTinyScope);
  Explorer explorer(scope);
  EXPECT_FALSE(explorer.run().has_value());
  const quora::model::Stats& stats = explorer.stats();
  EXPECT_GT(stats.unique_states, 1u);
  EXPECT_FALSE(stats.state_capped);
  EXPECT_FALSE(stats.depth_capped);
  EXPECT_EQ(stats.explored, stats.transitions + 1);  // a DFS tree
}

TEST(ModelExplorer, DporAgreesWithFullExploration) {
  const Scope scope = parse(
      "quorum 2 2\nsites 3\nlink 0 1\nlink 1 2\n"
      "at 1 access 0 write\n"
      "at 2 access 2 read\n"
      "depth 32\nstates 100000\n");
  Explorer with_dpor(scope, Options{/*dpor=*/true});
  Explorer without(scope, Options{/*dpor=*/false});
  EXPECT_FALSE(with_dpor.run().has_value());
  EXPECT_FALSE(without.run().has_value());
  // Both complete the scope, agree on the reachable unique states, and
  // DPOR does strictly less work.
  EXPECT_EQ(with_dpor.stats().unique_states, without.stats().unique_states);
  EXPECT_GT(with_dpor.stats().sleep_pruned, 0u);
  EXPECT_EQ(without.stats().sleep_pruned, 0u);
  EXPECT_LE(with_dpor.stats().transitions, without.stats().transitions);
}

TEST(ModelExplorer, ShippedSweepScopeTraversalIsPinned) {
  // Exact counts for the shipped sweep scope. The DFS order rests on
  // model_enabled_events() enumerating in seq order, so a change to the
  // enumeration order (or to the state encoding) moves these numbers.
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/tiny_line.model");
  Explorer with_dpor(scope, Options{/*dpor=*/true});
  ASSERT_FALSE(with_dpor.run().has_value());
  const quora::model::Stats& s = with_dpor.stats();
  EXPECT_EQ(s.explored, 25615u);
  EXPECT_EQ(s.unique_states, 9347u);
  EXPECT_EQ(s.transitions, 25614u);
  EXPECT_EQ(s.visited_hits, 12862u);
  EXPECT_EQ(s.sleep_pruned, 13386u);

  Explorer without(scope, Options{/*dpor=*/false});
  ASSERT_FALSE(without.run().has_value());
  EXPECT_EQ(without.stats().explored, 28892u);
  EXPECT_EQ(without.stats().unique_states, 9347u);
}

TEST(ModelExplorer, Line4ScopeTraversalIsPinned) {
  // The largest shipped scope: 4 sites and 6 channels, so it exercises
  // the fingerprint cache over more sections than tiny_line. Counts
  // recorded before the cache existed.
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/line4.model");
  Explorer with_dpor(scope, Options{/*dpor=*/true});
  ASSERT_FALSE(with_dpor.run().has_value());
  const quora::model::Stats& s = with_dpor.stats();
  EXPECT_EQ(s.explored, 471286u);
  EXPECT_EQ(s.unique_states, 147908u);
  EXPECT_EQ(s.transitions, 471285u);
  EXPECT_EQ(s.visited_hits, 261939u);
  EXPECT_EQ(s.sleep_pruned, 360315u);
  EXPECT_EQ(s.max_depth_seen, 35u);
  EXPECT_FALSE(s.depth_capped);

  Explorer without(scope, Options{/*dpor=*/false});
  ASSERT_FALSE(without.run().has_value());
  EXPECT_EQ(without.stats().explored, 585765u);
  EXPECT_EQ(without.stats().unique_states, 147908u);
}

TEST(ModelExplorer, RunTwiceRepeatsTheTraversal) {
  // run() starts afresh: no visited state, snapshot or sleep set of the
  // first run may reach the second.
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/tiny_line.model");
  Explorer explorer(scope);
  ASSERT_FALSE(explorer.run().has_value());
  const quora::model::Stats first = explorer.stats();
  ASSERT_FALSE(explorer.run().has_value());
  const quora::model::Stats& again = explorer.stats();
  EXPECT_EQ(again.explored, first.explored);
  EXPECT_EQ(again.transitions, first.transitions);
  EXPECT_EQ(again.unique_states, first.unique_states);
  EXPECT_EQ(again.visited_hits, first.visited_hits);
  EXPECT_EQ(again.sleep_pruned, first.sleep_pruned);
  EXPECT_EQ(again.max_depth_seen, first.max_depth_seen);
  EXPECT_EQ(again.depth_capped, first.depth_capped);
  EXPECT_EQ(again.state_capped, first.state_capped);
}

/// Every field a replayed choice matches an enabled event on.
std::vector<std::uint64_t> descriptor(const quora::msg::Cluster::ModelEvent& e) {
  const quora::msg::Message& m = e.message;
  return {static_cast<std::uint64_t>(e.kind), e.target, e.index, e.request,
          static_cast<std::uint64_t>(e.phase), static_cast<std::uint64_t>(m.kind),
          m.is_write ? 1u : 0u, m.request, m.coordinator, m.sender, m.replier,
          m.votes, m.version, m.value, m.qr_version, m.qr_r, m.qr_w};
}

TEST(ModelHooks, EnabledEventsComeInSeqOrder) {
  // The explorer's DFS order assumes ascending seq, and a replay finds a
  // recorded event by its descriptor alone, so no two enabled events may
  // share one. Walk tiny_line's cluster a few steps, firing the middle
  // enabled event each time so the pending set keeps mixing.
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/tiny_line.model");
  quora::msg::Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.quorum;
  quora::msg::Cluster cluster(scope.chaos.system->topology, params, 1);
  cluster.model_submit_access(0, /*is_read=*/false);
  cluster.model_submit_access(2, /*is_read=*/true);
  for (int step = 0; step < 5; ++step) {
    const std::vector<quora::msg::Cluster::ModelEvent> events =
        cluster.model_enabled_events();
    ASSERT_GE(events.size(), 2u) << "step " << step;
    std::set<std::vector<std::uint64_t>> descriptors;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(events[i - 1].seq, events[i].seq) << "step " << step;
      }
      EXPECT_TRUE(descriptors.insert(descriptor(events[i])).second)
          << "step " << step << " event " << i;
    }
    ASSERT_TRUE(cluster.model_step_event(events[events.size() / 2].seq));
  }
}

TEST(ModelHooks, OnlyEnabledEventsFire) {
  // A write and a read submitted at tiny_line's site 0 each send a vote
  // request over link 0 toward site 1 and arm a timer. The read's
  // request (seq 2) queues behind the write's (seq 0) on that direction,
  // so it is not enabled: firing it, or any seq never stamped, must
  // return false and change nothing. Every enabled event fires.
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/tiny_line.model");
  quora::msg::Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.quorum;
  quora::msg::Cluster cluster(scope.chaos.system->topology, params, 1);
  cluster.model_submit_access(0, /*is_read=*/false);
  cluster.model_submit_access(0, /*is_read=*/true);
  std::set<std::uint64_t> enabled;
  for (const quora::msg::Cluster::ModelEvent& e : cluster.model_enabled_events()) {
    enabled.insert(e.seq);
  }
  ASSERT_EQ(enabled, (std::set<std::uint64_t>{0, 1, 3}));
  std::vector<std::uint64_t> before;
  cluster.model_serialize(before);
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    quora::msg::Cluster copy = cluster;
    copy.model_rebind();
    EXPECT_EQ(copy.model_step_event(seq), enabled.count(seq) == 1) << "seq " << seq;
    if (enabled.count(seq) == 1) continue;
    std::vector<std::uint64_t> after;
    copy.model_serialize(after);
    EXPECT_EQ(after, before) << "seq " << seq;
  }
}

TEST(ModelHooks, SerializationIsPinnedAcrossARestart) {
  // The traversal counts pin which states compare equal; this pins the
  // words model_serialize emits, from which the fingerprints are made.
  // Walk crash_cleanup's cluster (mutation off) firing the first enabled
  // event each time, crash-restart site 0 before the 4th, and fold every
  // state's words into one FNV-1a digest. The restarted site then gets a
  // message of a flood it saw before the crash, so its flood state
  // changes under an older key than the ones it holds.
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/mutation_crash_cleanup.model");
  quora::msg::Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.quorum;
  params.mutations = {};
  quora::msg::Cluster cluster(scope.chaos.system->topology, params, 1);
  for (const quora::fault::Action& a : scope.accesses) {
    cluster.model_submit_access(a.site, a.is_read);
  }
  std::uint64_t h = quora::msg::kFnvOffset;
  std::vector<std::uint64_t> words;
  std::size_t fired = 0;
  for (;;) {
    if (fired == 3) {
      for (const std::vector<quora::fault::Action>& group : scope.faults) {
        for (const quora::fault::Action& a : group) cluster.model_apply_fault(a);
      }
    }
    const std::vector<quora::msg::Cluster::ModelEvent> events =
        cluster.model_enabled_events();
    if (events.empty()) break;
    ASSERT_TRUE(cluster.model_step_event(events.front().seq));
    ++fired;
    words.clear();
    cluster.model_serialize(words);
    for (const std::uint64_t w : words) h = quora::msg::fnv1a_step(h, w);
  }
  // Both values were recorded on the std::map/std::set encoding that the
  // flat tables replaced.
  EXPECT_EQ(fired, 22u);
  EXPECT_EQ(h, 0x47e4ffee1c31da24ull);
}

TEST(ModelHooks, FingerprintSeparatesNearbyStates) {
  // The visited set keeps fingerprints, not states, so two states whose
  // words differ must get different fingerprints — each 64-bit half on
  // its own. Walk tiny_line's cluster as the pin above walks
  // crash_cleanup, and hash every state's words, every one-word change of
  // them to each value 0-15, every swap of two adjacent words, every flip
  // of the top bits of two words two apart (a multiply alone never carries
  // a top-bit difference down, so two such flips in one lane cancel) and
  // the words with a zero appended.
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/tiny_line.model");
  quora::msg::Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.quorum;
  quora::msg::Cluster cluster(scope.chaos.system->topology, params, 1);
  for (const quora::fault::Action& a : scope.accesses) {
    cluster.model_submit_access(a.site, a.is_read);
  }
  std::vector<std::vector<std::uint64_t>> path;
  for (std::size_t fired = 0;; ++fired) {
    if (fired == 3) {
      for (const std::vector<quora::fault::Action>& group : scope.faults) {
        for (const quora::fault::Action& a : group) cluster.model_apply_fault(a);
      }
    }
    const std::vector<quora::msg::Cluster::ModelEvent> events =
        cluster.model_enabled_events();
    if (events.empty()) break;
    ASSERT_TRUE(cluster.model_step_event(events.front().seq));
    path.emplace_back();
    cluster.model_serialize(path.back());
  }
  ASSERT_GE(path.size(), 10u);

  std::set<std::vector<std::uint64_t>> streams(path.begin(), path.end());
  for (const std::vector<std::uint64_t>& words : path) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      std::vector<std::uint64_t> changed = words;
      for (std::uint64_t v = 0; v < 16; ++v) {
        changed[i] = v;
        streams.insert(changed);
      }
      if (i + 1 < words.size()) {
        std::vector<std::uint64_t> swapped = words;
        std::swap(swapped[i], swapped[i + 1]);
        streams.insert(swapped);
      }
      if (i + 2 < words.size()) {
        std::vector<std::uint64_t> flipped = words;
        flipped[i] ^= std::uint64_t{1} << 63;
        flipped[i + 2] ^= std::uint64_t{1} << 63;
        streams.insert(flipped);
      }
    }
    std::vector<std::uint64_t> longer = words;
    longer.push_back(0);
    streams.insert(longer);
  }
  std::set<std::uint64_t> low;
  std::set<std::uint64_t> high;
  for (const std::vector<std::uint64_t>& words : streams) {
    const std::array<std::uint64_t, 2> h = quora::msg::model_hash(words);
    low.insert(h[0]);
    high.insert(h[1]);
  }
  EXPECT_GT(streams.size(), 10'000u);
  EXPECT_EQ(low.size(), streams.size());
  EXPECT_EQ(high.size(), streams.size());

  // Nearby streams also get far-apart halves: flipping the lowest or the
  // highest bit of one word flips at least 8 bits of each half, where a
  // full avalanche flips 32 on average.
  for (const std::vector<std::uint64_t>& words : path) {
    const std::array<std::uint64_t, 2> h = quora::msg::model_hash(words);
    for (std::size_t i = 0; i < words.size(); ++i) {
      for (const int bit : {0, 63}) {
        std::vector<std::uint64_t> flipped = words;
        flipped[i] ^= std::uint64_t{1} << bit;
        const std::array<std::uint64_t, 2> g = quora::msg::model_hash(flipped);
        EXPECT_GE(std::popcount(h[0] ^ g[0]), 8) << "word " << i << " bit " << bit;
        EXPECT_GE(std::popcount(h[1] ^ g[1]), 8) << "word " << i << " bit " << bit;
      }
    }
  }
}

/// One transition of a model walk, replayable on a fresh cluster: an
/// access submission, a fault group or the enabled event with `seq`
/// (a fresh cluster given the same transitions stamps the same seqs).
struct WalkStep {
  enum class Kind { kSubmit, kFault, kEvent } kind = Kind::kEvent;
  std::size_t index = 0;  // into the scope's accesses or fault groups
  std::uint64_t seq = 0;
};

void apply_step(quora::msg::Cluster& cluster, const Scope& scope,
                const WalkStep& step) {
  switch (step.kind) {
    case WalkStep::Kind::kSubmit: {
      const quora::fault::Action& a = scope.accesses[step.index];
      cluster.model_submit_access(a.site, a.is_read);
      return;
    }
    case WalkStep::Kind::kFault:
      for (const quora::fault::Action& a : scope.faults[step.index]) {
        cluster.model_apply_fault(a);
      }
      return;
    case WalkStep::Kind::kEvent:
      ASSERT_TRUE(cluster.model_step_event(step.seq));
      return;
  }
}

/// Walks `scope`'s cluster (mutations off) the way the explorer moves
/// between states and, at every state, compares its cached fingerprint
/// with that of a fresh cluster replayed to the same state, which hashes
/// every section once. Both accesses are submitted first, and the first
/// fault group fires before the 4th event. At each state one child is a
/// copy-assignment of it into a slot that holds an older state, firing
/// the first enabled event; then the state's own object fires the events
/// round-robin by position, as the explorer's last child takes its
/// parent's object. Returns the number of states compared.
std::size_t expect_cache_matches_replays(const char* file) {
  using quora::msg::Cluster;
  const Scope scope = quora::model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/" + file);
  const quora::net::Topology& topo = scope.chaos.system->topology;
  Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.quorum;
  const auto from_scratch = [&](const std::vector<WalkStep>& path) {
    Cluster fresh(topo, params, 1);
    for (const WalkStep& step : path) apply_step(fresh, scope, step);
    return fresh.model_fingerprint();
  };

  Cluster cur(topo, params, 1);
  Cluster slot(topo, params, 1);
  std::vector<WalkStep> path;
  std::size_t compared = 0;
  const auto expect_matches = [&](const Cluster& c, const std::vector<WalkStep>& at) {
    EXPECT_EQ(c.model_fingerprint(), from_scratch(at))
        << file << ": state " << compared << " at depth " << at.size();
    ++compared;
  };
  const auto advance = [&](const WalkStep& step) {
    apply_step(cur, scope, step);
    path.push_back(step);
    expect_matches(cur, path);
  };

  expect_matches(cur, path);
  for (std::size_t i = 0; i < scope.accesses.size(); ++i) {
    advance(WalkStep{WalkStep::Kind::kSubmit, i, 0});
  }
  for (std::size_t fired = 0;; ++fired) {
    if (fired == 3 && !scope.faults.empty()) {
      advance(WalkStep{WalkStep::Kind::kFault, 0, 0});
    }
    const std::vector<Cluster::ModelEvent> events = cur.model_enabled_events();
    if (events.empty()) break;

    slot = cur;
    slot.model_rebind();
    std::vector<WalkStep> branch = path;
    branch.push_back(WalkStep{WalkStep::Kind::kEvent, 0, events.front().seq});
    apply_step(slot, scope, branch.back());
    expect_matches(slot, branch);

    advance(WalkStep{WalkStep::Kind::kEvent, 0, events[fired % events.size()].seq});
  }
  return compared;
}

TEST(ModelHooks, CachedFingerprintMatchesFromScratch) {
  // model_fingerprint rehashes only the sections a transition marked, so
  // a missing mark merges states that differ in a stale section. Contract
  // builds check every explored state; this checks a Release build.
  EXPECT_GE(expect_cache_matches_replays("tiny_line.model"), 20u);
  EXPECT_GE(expect_cache_matches_replays("mutation_crash_cleanup.model"), 40u);
  EXPECT_GE(expect_cache_matches_replays("line4.model"), 20u);
}

TEST(ModelExplorer, StateBudgetCapsAreReported) {
  Scope scope = parse(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 access 2 write\n");
  scope.max_states = 50;
  Explorer explorer(scope);
  EXPECT_FALSE(explorer.run().has_value());
  EXPECT_TRUE(explorer.stats().state_capped);
}

TEST(ModelExplorer, ReplayOfAnEmptyTraceIsSafe) {
  const Scope scope = parse(kTinyScope);
  const Explorer explorer(scope);
  EXPECT_FALSE(explorer.replay({}).has_value());
}

} // namespace
