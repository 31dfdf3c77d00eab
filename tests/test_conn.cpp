// Tests for the dynamic network view and the component tracker, including
// a randomized cross-check against a naive reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "conn/bitwords.hpp"
#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "net/builders.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"

namespace quora::conn {
namespace {

TEST(LiveNetwork, StartsAllUp) {
  const net::Topology topo = net::make_ring(5);
  const LiveNetwork live(topo);
  EXPECT_EQ(live.up_site_count(), 5u);
  for (net::SiteId s = 0; s < 5; ++s) EXPECT_TRUE(live.is_site_up(s));
  for (net::LinkId l = 0; l < 5; ++l) EXPECT_TRUE(live.is_link_up(l));
}

TEST(LiveNetwork, VersionBumpsOnlyOnChange) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  const std::uint64_t v0 = live.version();
  EXPECT_FALSE(live.set_site_up(0, true));  // no-op
  EXPECT_EQ(live.version(), v0);
  EXPECT_TRUE(live.set_site_up(0, false));
  EXPECT_EQ(live.version(), v0 + 1);
  EXPECT_FALSE(live.set_site_up(0, false));  // no-op again
  EXPECT_EQ(live.version(), v0 + 1);
  EXPECT_TRUE(live.set_link_up(2, false));
  EXPECT_EQ(live.version(), v0 + 2);
}

TEST(LiveNetwork, ResetAllUpBumpsVersionIffStateChanged) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  // Everything is already up: reset must be a no-op for the version, or
  // downstream caches (ComponentTracker) would rebuild for nothing.
  const std::uint64_t v0 = live.version();
  live.reset_all_up();
  EXPECT_EQ(live.version(), v0);
  live.reset_all_up();
  EXPECT_EQ(live.version(), v0);

  // Any real change must bump it exactly once per reset, no matter how
  // many components it restores.
  live.set_site_up(1, false);
  live.set_site_up(3, false);
  live.set_link_up(2, false);
  const std::uint64_t v1 = live.version();
  live.reset_all_up();
  EXPECT_EQ(live.version(), v1 + 1);
  live.reset_all_up();  // idempotent: back to the no-op case
  EXPECT_EQ(live.version(), v1 + 1);
}

TEST(ComponentTracker, CacheRefreshesAcrossResetAllUp) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(2, false);
  live.set_site_up(5, false);
  EXPECT_EQ(tracker.component_count(), 2u);
  live.reset_all_up();
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(0), topo.total_votes());
}

TEST(LiveNetwork, CountsTrackState) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  live.set_site_up(1, false);
  live.set_site_up(3, false);
  live.set_link_up(0, false);
  EXPECT_EQ(live.up_site_count(), 3u);
  live.reset_all_up();
  EXPECT_EQ(live.up_site_count(), 5u);
}

TEST(LiveNetwork, LinkOperationalNeedsEndpoints) {
  const net::Topology topo = net::make_ring(4);
  LiveNetwork live(topo);
  EXPECT_TRUE(live.link_operational(0));  // link {0,1}
  live.set_site_up(1, false);
  EXPECT_FALSE(live.link_operational(0));
  EXPECT_TRUE(live.is_link_up(0));  // the link itself is still up
}

TEST(ComponentTracker, AllUpIsOneComponent) {
  const net::Topology topo = net::make_ring(8);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(3), 8u);
  EXPECT_EQ(tracker.component_size(3), 8u);
  EXPECT_EQ(tracker.max_component_votes(), 8u);
  EXPECT_TRUE(tracker.connected(0, 7));
}

TEST(ComponentTracker, DownSiteHasNoComponent) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(2, false);
  EXPECT_EQ(tracker.component_of(2), kNoComponent);
  EXPECT_EQ(tracker.component_votes(2), 0u);
  EXPECT_EQ(tracker.component_size(2), 0u);
  EXPECT_FALSE(tracker.connected(2, 0));
  // The others form a chain (the ring is cut at the dead site).
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(0), 4u);
}

TEST(ComponentTracker, TwoLinkCutsSplitARing) {
  const net::Topology topo = net::make_ring(6);  // links i -- i+1
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_link_up(0, false);  // cut {0,1}
  EXPECT_EQ(tracker.component_count(), 1u);  // one cut: still connected
  live.set_link_up(3, false);  // cut {3,4}
  EXPECT_EQ(tracker.component_count(), 2u);
  EXPECT_TRUE(tracker.connected(1, 3));
  EXPECT_TRUE(tracker.connected(4, 0));
  EXPECT_FALSE(tracker.connected(1, 4));
  EXPECT_EQ(tracker.component_votes(1), 3u);  // {1,2,3}
  EXPECT_EQ(tracker.component_votes(4), 3u);  // {4,5,0}
}

TEST(ComponentTracker, VotesUseAssignment) {
  const net::Topology topo("t", 4, {net::Link{0, 1}, net::Link{2, 3}},
                           std::vector<net::Vote>{5, 1, 2, 0});
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  EXPECT_EQ(tracker.component_count(), 2u);
  EXPECT_EQ(tracker.component_votes(0), 6u);
  EXPECT_EQ(tracker.component_votes(3), 2u);
  EXPECT_EQ(tracker.max_component_votes(), 6u);
}

TEST(ComponentTracker, MembersMatchLabels) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_link_up(1, false);
  live.set_link_up(4, false);
  for (net::SiteId s = 0; s < 6; ++s) {
    const std::int32_t comp = tracker.component_of(s);
    ASSERT_NE(comp, kNoComponent);
    const auto members = tracker.members(comp);
    EXPECT_NE(std::find(members.begin(), members.end(), s), members.end());
    EXPECT_EQ(members.size(), tracker.component_size(s));
  }
}

TEST(ComponentTracker, AllSitesDown) {
  const net::Topology topo = net::make_ring(4);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  for (net::SiteId s = 0; s < 4; ++s) live.set_site_up(s, false);
  EXPECT_EQ(tracker.component_count(), 0u);
  EXPECT_EQ(tracker.max_component_votes(), 0u);
}

TEST(ComponentTracker, RecoveryMergesComponents) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(0, false);
  live.set_site_up(3, false);
  EXPECT_EQ(tracker.component_count(), 2u);
  live.set_site_up(0, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(1), 5u);
}

TEST(ComponentTracker, RecoveriesAbsorbWithoutRebuild) {
  const net::Topology topo = net::make_ring(8);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  const auto base = tracker.stats();  // construction performs one rebuild

  live.set_link_up(0, false);
  live.set_link_up(4, false);
  EXPECT_EQ(tracker.component_count(), 2u);  // failures: one lazy rebuild
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds + 1);

  // Link recoveries merge via union-find; the rebuild count must not move.
  live.set_link_up(0, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  live.set_link_up(4, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(0), 8u);
  EXPECT_EQ(tracker.max_component_votes(), 8u);
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds + 1);
  EXPECT_EQ(tracker.stats().incremental_applies, base.incremental_applies + 2);
}

TEST(ComponentTracker, SiteRecoveryMergesIncrementally) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(0, false);
  live.set_site_up(3, false);
  EXPECT_EQ(tracker.component_count(), 2u);  // chains {1,2} and {4,5}
  const auto after_fail = tracker.stats();

  // Site 0 coming back bridges the two chains through links {5,0},{0,1}.
  live.set_site_up(0, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(1), 5u);
  EXPECT_TRUE(tracker.connected(2, 4));
  EXPECT_EQ(tracker.stats().full_rebuilds, after_fail.full_rebuilds);
  EXPECT_EQ(tracker.stats().incremental_applies,
            after_fail.incremental_applies + 1);

  // Structural queries after an incremental merge force a compaction and
  // must agree with the scalar ones.
  const std::int32_t comp = tracker.component_of(1);
  ASSERT_NE(comp, kNoComponent);
  EXPECT_EQ(tracker.members(comp).size(), 5u);
  EXPECT_GT(tracker.stats().compactions, after_fail.compactions);
}

TEST(ComponentTracker, MixedDeltaBatchRebuildsOnce) {
  const net::Topology topo = net::make_ring(10);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  const auto base = tracker.stats();

  // A burst of changes between queries — including failures — costs
  // exactly one rebuild when the next query lands, however long the burst.
  live.set_link_up(0, false);
  live.set_link_up(0, true);
  live.set_site_up(2, false);
  live.set_site_up(7, false);
  live.set_site_up(2, true);
  live.set_link_up(5, false);
  EXPECT_EQ(tracker.component_count(), 2u);  // site 7 down + link 5 cut
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds + 1);
}

/// Brute-force reference: label components by repeated BFS over a fresh
/// adjacency scan.
std::vector<int> reference_labels(const LiveNetwork& live) {
  const net::Topology& topo = live.topology();
  std::vector<int> label(topo.site_count(), -1);
  int next = 0;
  for (net::SiteId root = 0; root < topo.site_count(); ++root) {
    if (!live.is_site_up(root) || label[root] != -1) continue;
    std::vector<net::SiteId> stack{root};
    label[root] = next;
    while (!stack.empty()) {
      const net::SiteId s = stack.back();
      stack.pop_back();
      for (net::LinkId l = 0; l < topo.link_count(); ++l) {
        const net::Link& e = topo.link(l);
        if (!live.link_operational(l)) continue;
        net::SiteId other;
        if (e.a == s) {
          other = e.b;
        } else if (e.b == s) {
          other = e.a;
        } else {
          continue;
        }
        if (label[other] == -1) {
          label[other] = next;
          stack.push_back(other);
        }
      }
    }
    ++next;
  }
  return label;
}

TEST(ComponentTracker, RandomizedAgreesWithReference) {
  const net::Topology topo = net::make_erdos_renyi(14, 0.25, 99);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  rng::Xoshiro256ss gen(4242);

  for (int step = 0; step < 2000; ++step) {
    // Random toggle of a random site or link.
    if (rng::bernoulli(gen, 0.5)) {
      const auto s =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      live.set_site_up(s, !live.is_site_up(s));
    } else if (topo.link_count() > 0) {
      const auto l =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(l, !live.is_link_up(l));
    }

    const std::vector<int> ref = reference_labels(live);
    // Same partition (labels may be permuted): check pairwise equivalence
    // through a bijection map, and per-site vote/size totals.
    std::map<int, std::int32_t> forward;
    std::map<std::int32_t, int> backward;
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const std::int32_t mine = tracker.component_of(s);
      ASSERT_EQ(ref[s] == -1, mine == kNoComponent) << "site " << s;
      if (ref[s] == -1) continue;
      auto [fit, finserted] = forward.try_emplace(ref[s], mine);
      EXPECT_EQ(fit->second, mine);
      auto [bit, binserted] = backward.try_emplace(mine, ref[s]);
      EXPECT_EQ(bit->second, ref[s]);

      // Vote total = component size here (uniform single votes).
      std::uint32_t ref_size = 0;
      for (net::SiteId x = 0; x < topo.site_count(); ++x) {
        ref_size += ref[x] == ref[s] ? 1u : 0u;
      }
      EXPECT_EQ(tracker.component_size(s), ref_size);
      EXPECT_EQ(tracker.component_votes(s), ref_size);
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-word liveness state (SoA bitsets) and the word-parallel rebuild.

TEST(LiveNetwork, WordFlagsMirrorByteFlags) {
  const net::Topology topo = net::make_erdos_renyi(100, 0.1, 7);
  LiveNetwork live(topo);
  rng::Xoshiro256ss gen(123);

  const auto check_mirror = [&] {
    const auto site_words = live.site_up_words();
    ASSERT_EQ(site_words.size(), bits::word_count(topo.site_count()));
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const bool bit =
          (site_words[s / 64] >> (s % 64) & 1) != 0;
      EXPECT_EQ(bit, live.is_site_up(s)) << "site " << s;
    }
    // Tail bits above the site count must stay zero: consumers
    // popcount whole words and must never see ghost elements.
    const std::uint32_t site_tail = topo.site_count() % 64;
    if (site_tail != 0) {
      EXPECT_EQ(site_words.back() >> site_tail, 0u);
    }
  };

  check_mirror();
  for (int step = 0; step < 500; ++step) {
    if (rng::bernoulli(gen, 0.5)) {
      const auto s =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      live.set_site_up(s, !live.is_site_up(s));
    } else {
      const auto l =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(l, !live.is_link_up(l));
    }
  }
  check_mirror();
  live.reset_all_up();
  check_mirror();
}

TEST(LiveNetwork, DenseAdjacencyRowsMirrorLinkState) {
  const net::Topology topo = net::make_ring(10);
  LiveNetwork live(topo);
  ASSERT_TRUE(live.has_dense_adjacency());
  ASSERT_EQ(live.adjacency_row_words(), 1u);

  const auto row_bit = [&](net::SiteId a, net::SiteId b) {
    return (live.adjacency_row(a)[b / 64] >> (b % 64) & 1) != 0;
  };
  EXPECT_TRUE(row_bit(0, 1));
  EXPECT_TRUE(row_bit(1, 0));
  EXPECT_FALSE(row_bit(0, 2));  // no such link

  const net::LinkId l01 = topo.find_link(0, 1);
  live.set_link_up(l01, false);
  EXPECT_FALSE(row_bit(0, 1));
  EXPECT_FALSE(row_bit(1, 0));
  EXPECT_TRUE(row_bit(0, 9));  // untouched

  // Site liveness is deliberately NOT baked into the rows.
  live.set_site_up(9, false);
  EXPECT_TRUE(row_bit(0, 9));

  live.reset_all_up();
  EXPECT_TRUE(row_bit(0, 1));
  EXPECT_TRUE(row_bit(1, 0));
}

TEST(LiveNetwork, LargeTopologySkipsDenseRows) {
  // One past the dense ceiling: the quadratic rows must be disabled and
  // the tracker must fall back to the CSR path (and still be correct —
  // covered by SparseRandomizedAgreesWithReference below).
  const net::Topology big = net::make_grid(65, 64);  // 4160 > 4096
  const LiveNetwork live_big(big);
  EXPECT_FALSE(live_big.has_dense_adjacency());

  const net::Topology at = net::make_grid(64, 64);  // exactly 4096
  const LiveNetwork live_at(at);
  EXPECT_TRUE(live_at.has_dense_adjacency());
}

TEST(LiveNetwork, JournalCapacityConfigurable) {
  // Every network journals into the same kJournalCapacity-slot ring, and
  // the last kJournalCapacity deltas read back in order.
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  EXPECT_EQ(live.journal_capacity(), LiveNetwork::kJournalCapacity);

  const std::uint64_t flips = LiveNetwork::kJournalCapacity + 3;
  for (std::uint64_t i = 0; i < flips; ++i) live.set_link_up(0, i % 2 == 1);
  ASSERT_EQ(live.version(), flips);
  for (std::uint64_t v = flips - LiveNetwork::kJournalCapacity + 1; v <= flips;
       ++v) {
    const LiveNetwork::Delta d = live.delta(v);
    EXPECT_EQ(d.kind, v % 2 == 1 ? LiveNetwork::DeltaKind::kLinkDown
                                 : LiveNetwork::DeltaKind::kLinkUp)
        << "version " << v;
    EXPECT_EQ(d.index, 0u);
  }
}

TEST(ComponentTracker, JournalOverflowFallsBackToRebuild) {
  // Toggles of a link whose endpoint is down are absorbable deltas: a
  // tracker kJournalCapacity versions behind replays them all without a
  // rebuild, and one more delta overwrites the oldest it needs and forces
  // exactly one.
  const net::Topology topo = net::make_ring(12);
  const net::LinkId link = topo.find_link(0, 1);
  for (const std::uint64_t toggles :
       {LiveNetwork::kJournalCapacity, LiveNetwork::kJournalCapacity + 1}) {
    LiveNetwork live(topo);
    ComponentTracker tracker(live);
    live.set_site_up(0, false);
    ASSERT_EQ(tracker.component_count(), 1u);  // sites 1..11 still chained
    const std::uint64_t rebuilds0 = tracker.stats().full_rebuilds;

    for (std::uint64_t i = 0; i < toggles; ++i) {
      live.set_link_up(link, !live.is_link_up(link));
    }
    EXPECT_EQ(tracker.component_count(), 1u);
    EXPECT_EQ(tracker.component_size(1), 11u);
    const std::uint64_t rebuilds = tracker.stats().full_rebuilds - rebuilds0;
    if (toggles == LiveNetwork::kJournalCapacity) {
      EXPECT_EQ(rebuilds, 0u) << "a full journal still replays";
    } else {
      EXPECT_EQ(rebuilds, 1u) << "overflow must force exactly one rebuild";
    }
  }
}

TEST(ComponentTracker, MemberWordsMatchMembers) {
  const net::Topology topo = net::make_ring(70);  // spans >1 word
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  // Split the ring into two arcs.
  live.set_link_up(topo.find_link(0, 1), false);
  live.set_link_up(topo.find_link(40, 41), false);
  ASSERT_EQ(tracker.component_count(), 2u);

  for (const net::SiteId probe : {net::SiteId{1}, net::SiteId{41}}) {
    const std::int32_t comp = tracker.component_of(probe);
    const auto words = tracker.member_words(comp);
    ASSERT_EQ(words.size(), bits::word_count(topo.site_count()));
    std::uint64_t popcount_total = 0;
    for (const bits::Word w : words)
      popcount_total += static_cast<std::uint64_t>(std::popcount(w));
    EXPECT_EQ(popcount_total, tracker.component_size(probe));
    for (const net::SiteId s : tracker.members(comp)) {
      EXPECT_NE(words[s / 64] & (bits::Word{1} << (s % 64)), 0u)
          << "member " << s << " missing from member_words";
    }
  }
}

/// CSR-based reference labeling (cheap enough for >4096-site graphs,
/// where reference_labels' all-links scan is quadratic).
std::vector<int> csr_reference_labels(const LiveNetwork& live) {
  const net::Topology& topo = live.topology();
  std::vector<int> label(topo.site_count(), -1);
  int next = 0;
  for (net::SiteId root = 0; root < topo.site_count(); ++root) {
    if (!live.is_site_up(root) || label[root] != -1) continue;
    std::vector<net::SiteId> stack{root};
    label[root] = next;
    while (!stack.empty()) {
      const net::SiteId s = stack.back();
      stack.pop_back();
      for (const net::Topology::Edge& e : topo.neighbors(s)) {
        if (!live.is_link_up(e.link) || !live.is_site_up(e.neighbor)) continue;
        if (label[e.neighbor] != -1) continue;
        label[e.neighbor] = next;
        stack.push_back(e.neighbor);
      }
    }
    ++next;
  }
  return label;
}

TEST(ComponentTracker, SparseRandomizedAgreesWithReference) {
  // Above the dense ceiling, so this drives rebuild_sparse — the path the
  // 50k/250k/1M scale points rely on.
  const net::Topology topo = net::make_grid(80, 60);  // 4800 sites
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  ASSERT_FALSE(live.has_dense_adjacency());
  rng::Xoshiro256ss gen(31337);

  for (int step = 0; step < 60; ++step) {
    for (int burst = 0; burst < 5; ++burst) {
      if (rng::bernoulli(gen, 0.3)) {
        const auto s = static_cast<net::SiteId>(
            rng::uniform_index(gen, topo.site_count()));
        live.set_site_up(s, !live.is_site_up(s));
      } else {
        const auto l = static_cast<net::LinkId>(
            rng::uniform_index(gen, topo.link_count()));
        live.set_link_up(l, !live.is_link_up(l));
      }
    }
    const std::vector<int> ref = csr_reference_labels(live);
    std::map<int, std::int32_t> forward;
    std::map<std::int32_t, int> backward;
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const std::int32_t mine = tracker.component_of(s);
      ASSERT_EQ(ref[s] == -1, mine == kNoComponent) << "site " << s;
      if (ref[s] == -1) continue;
      auto [fit, finserted] = forward.try_emplace(ref[s], mine);
      ASSERT_EQ(fit->second, mine) << "site " << s;
      auto [bit, binserted] = backward.try_emplace(mine, ref[s]);
      ASSERT_EQ(bit->second, ref[s]) << "site " << s;
    }
  }
}

TEST(ComponentTracker, DenseRandomizedAgreesWithReference) {
  // Both inputs have m >> n^2/64, so this drives the word-parallel
  // rebuild_dense path under churn: 80 sites (rows span two words) and
  // 300 sites (five words, so or_and runs four or more words per row).
  for (const net::Topology& topo : {net::make_erdos_renyi(80, 0.3, 11),
                                    net::make_erdos_renyi(300, 0.3, 11)}) {
    const std::uint64_t n = topo.site_count();
    ASSERT_GE(64ull * topo.link_count(), n * n);
    LiveNetwork live(topo);
    ASSERT_TRUE(live.has_dense_adjacency());
    const ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(555);

    for (int step = 0; step < 300; ++step) {
      for (int burst = 0; burst < 3; ++burst) {
        if (rng::bernoulli(gen, 0.4)) {
          const auto s = static_cast<net::SiteId>(
              rng::uniform_index(gen, topo.site_count()));
          live.set_site_up(s, !live.is_site_up(s));
        } else {
          const auto l = static_cast<net::LinkId>(
              rng::uniform_index(gen, topo.link_count()));
          live.set_link_up(l, !live.is_link_up(l));
        }
      }
      const std::vector<int> ref = csr_reference_labels(live);
      std::map<int, std::int32_t> forward;
      std::map<std::int32_t, int> backward;
      for (net::SiteId s = 0; s < topo.site_count(); ++s) {
        const std::int32_t mine = tracker.component_of(s);
        ASSERT_EQ(ref[s] == -1, mine == kNoComponent) << n << " sites, site " << s;
        if (ref[s] == -1) continue;
        auto [fit, finserted] = forward.try_emplace(ref[s], mine);
        ASSERT_EQ(fit->second, mine) << n << " sites, site " << s;
        auto [bit, binserted] = backward.try_emplace(mine, ref[s]);
        ASSERT_EQ(bit->second, ref[s]) << n << " sites, site " << s;
      }
    }
  }
}

TEST(ComponentTracker, LinkLossBurstsAgreeWithReference) {
  // Long delta bursts between queries, so one replay spans many deltas:
  // link losses absorbed next to recoveries, site toggles and links
  // flipped back within the burst (down-then-up and up-then-down).
  const std::vector<net::Topology> topologies{
      net::make_fully_connected(12), net::make_fully_connected(80),
      net::make_erdos_renyi(70, 0.15, 3), net::make_erdos_renyi(130, 0.08, 5),
      net::make_ring_with_chords(40, 30)};
  for (const net::Topology& topo : topologies) {
    LiveNetwork live(topo);
    const ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(2026);
    std::vector<net::LinkId> flip_back;
    for (int burst = 0; burst < 3000; ++burst) {
      const std::uint64_t toggles = 1 + rng::uniform_index(gen, 40);
      flip_back.clear();
      for (std::uint64_t t = 0; t < toggles; ++t) {
        if (rng::bernoulli(gen, 0.15)) {
          const auto s = static_cast<net::SiteId>(
              rng::uniform_index(gen, topo.site_count()));
          live.set_site_up(s, !live.is_site_up(s));
        } else {
          const auto l = static_cast<net::LinkId>(
              rng::uniform_index(gen, topo.link_count()));
          live.set_link_up(l, !live.is_link_up(l));
          if (rng::uniform_index(gen, 5) == 0) flip_back.push_back(l);
        }
      }
      for (const net::LinkId l : flip_back) live.set_link_up(l, !live.is_link_up(l));

      const std::vector<int> ref = csr_reference_labels(live);
      std::vector<std::vector<net::SiteId>> ref_members;
      for (net::SiteId s = 0; s < topo.site_count(); ++s) {
        if (ref[s] == -1) continue;
        if (static_cast<std::size_t>(ref[s]) >= ref_members.size())
          ref_members.resize(static_cast<std::size_t>(ref[s]) + 1);
        ref_members[static_cast<std::size_t>(ref[s])].push_back(s);
      }
      // Unit votes: a component's votes equal its size.
      std::size_t ref_max = 0;
      for (const auto& m : ref_members) ref_max = std::max(ref_max, m.size());
      ASSERT_EQ(tracker.component_count(), ref_members.size())
          << topo.name() << " burst " << burst;
      ASSERT_EQ(tracker.max_component_votes(), ref_max)
          << topo.name() << " burst " << burst;
      for (net::SiteId s = 0; s < topo.site_count(); ++s) {
        const std::size_t size =
            ref[s] == -1 ? 0 : ref_members[static_cast<std::size_t>(ref[s])].size();
        ASSERT_EQ(tracker.component_votes(s), size) << topo.name() << " site " << s;
        ASSERT_EQ(tracker.component_size(s), size) << topo.name() << " site " << s;
      }
      for (net::SiteId s = 0; s < topo.site_count(); ++s) {
        if (ref[s] == -1) continue;
        const std::span<const net::SiteId> mine = tracker.members(tracker.component_of(s));
        const std::vector<net::SiteId>& want =
            ref_members[static_cast<std::size_t>(ref[s])];
        ASSERT_TRUE(std::equal(mine.begin(), mine.end(), want.begin(), want.end()))
            << topo.name() << " burst " << burst << " site " << s;
      }
    }
  }
}

TEST(ComponentTracker, LinkLossWithACommonNeighbourSkipsTheRebuild) {
  const net::Topology complete = net::make_fully_connected(6);
  const net::LinkId l01 = complete.find_link(0, 1);
  {  // A shared up neighbour keeps the endpoints joined: no rebuild.
    LiveNetwork live(complete);
    const ComponentTracker tracker(live);
    const std::uint64_t rebuilds = tracker.stats().full_rebuilds;
    live.set_link_up(l01, false);
    EXPECT_EQ(tracker.component_count(), 1u);
    EXPECT_EQ(tracker.component_size(0), 6u);
    EXPECT_EQ(tracker.max_component_votes(), 6u);
    EXPECT_TRUE(tracker.connected(0, 1));
    EXPECT_EQ(tracker.stats().full_rebuilds, rebuilds);
  }
  {  // Every common neighbour down: the loss splits {0} from {1}.
    LiveNetwork live(complete);
    const ComponentTracker tracker(live);
    for (net::SiteId s = 2; s < 6; ++s) live.set_site_up(s, false);
    ASSERT_EQ(tracker.component_count(), 1u);
    const std::uint64_t rebuilds = tracker.stats().full_rebuilds;
    live.set_link_up(l01, false);
    EXPECT_EQ(tracker.component_count(), 2u);
    EXPECT_FALSE(tracker.connected(0, 1));
    EXPECT_EQ(tracker.stats().full_rebuilds, rebuilds + 1);
  }
  const net::Topology ring = net::make_ring(10);
  {  // Ring neighbours share no neighbour: the loss rebuilds.
    LiveNetwork live(ring);
    const ComponentTracker tracker(live);
    const std::uint64_t rebuilds = tracker.stats().full_rebuilds;
    live.set_link_up(ring.find_link(3, 4), false);
    EXPECT_EQ(tracker.component_count(), 1u);
    EXPECT_EQ(tracker.stats().full_rebuilds, rebuilds + 1);
  }
  {  // A link to a down site carried nothing: no rebuild.
    LiveNetwork live(ring);
    const ComponentTracker tracker(live);
    live.set_site_up(5, false);
    ASSERT_EQ(tracker.component_size(0), 9u);
    const std::uint64_t rebuilds = tracker.stats().full_rebuilds;
    live.set_link_up(ring.find_link(4, 5), false);
    EXPECT_EQ(tracker.component_count(), 1u);
    EXPECT_EQ(tracker.component_size(4), 9u);
    EXPECT_EQ(tracker.stats().full_rebuilds, rebuilds);
  }
}

TEST(ComponentTracker, MembersAscendAfterRebuildAndMerge) {
  // Canonical member order: ascending site id from both the rebuild
  // paths and the incremental-merge compaction.
  const net::Topology topo = net::make_fully_connected(9);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);

  live.set_site_up(4, false);  // failure -> full rebuild
  auto check_ascending = [&] {
    for (std::uint32_t c = 0; c < tracker.component_count(); ++c) {
      const auto m = tracker.members(static_cast<std::int32_t>(c));
      for (std::size_t i = 1; i < m.size(); ++i) {
        EXPECT_LT(m[i - 1], m[i]);
      }
    }
  };
  check_ascending();
  live.set_site_up(4, true);  // recovery -> incremental merge + compaction
  check_ascending();
}

} // namespace
} // namespace quora::conn
