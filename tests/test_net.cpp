// Tests for the network model: topology validation, CSR adjacency, and
// every builder — in particular the paper's Topology-k family and the
// deterministic chord placement that substitutes for the unavailable
// companion report (DESIGN.md §4).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "net/builders.hpp"
#include "net/topology.hpp"

namespace quora::net {
namespace {

TEST(Topology, ValidatesInput) {
  EXPECT_THROW(Topology("t", 0, {}), std::invalid_argument);
  EXPECT_THROW(Topology("t", 3, {Link{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Topology("t", 3, {Link{1, 1}}), std::invalid_argument);
  EXPECT_THROW(Topology("t", 3, {Link{0, 1}, Link{1, 0}}), std::invalid_argument);
  EXPECT_THROW(Topology("t", 3, {}, std::vector<Vote>{1, 1}), std::invalid_argument);
  // The vote total must fit in a Vote: 4294967295 + 2 + 1 does not.
  EXPECT_THROW(Topology("t", 3, {}, std::vector<Vote>{4294967295u, 2, 1}),
               std::invalid_argument);
}

TEST(Topology, AdjacencyIsSymmetricAndComplete) {
  const Topology t("t", 4, {Link{0, 1}, Link{1, 2}, Link{2, 3}, Link{3, 0},
                            Link{0, 2}});
  EXPECT_EQ(t.site_count(), 4u);
  EXPECT_EQ(t.link_count(), 5u);
  EXPECT_EQ(t.degree(0), 3u);
  EXPECT_EQ(t.degree(1), 2u);
  EXPECT_EQ(t.degree(3), 2u);

  // Every link appears in both endpoints' adjacency with its own id.
  for (LinkId id = 0; id < t.link_count(); ++id) {
    const Link& l = t.link(id);
    const auto has = [&](SiteId from, SiteId to) {
      const auto adj = t.neighbors(from);
      return std::any_of(adj.begin(), adj.end(), [&](const Topology::Edge& e) {
        return e.neighbor == to && e.link == id;
      });
    };
    EXPECT_TRUE(has(l.a, l.b));
    EXPECT_TRUE(has(l.b, l.a));
  }
}

TEST(Topology, HasLink) {
  const Topology t("t", 3, {Link{0, 1}});
  EXPECT_TRUE(t.has_link(0, 1));
  EXPECT_TRUE(t.has_link(1, 0));
  EXPECT_FALSE(t.has_link(0, 2));
  EXPECT_FALSE(t.has_link(0, 99));
}

TEST(Topology, VoteAccounting) {
  const Topology t("t", 3, {Link{0, 1}}, std::vector<Vote>{3, 0, 2});
  EXPECT_EQ(t.votes(0), 3u);
  EXPECT_EQ(t.votes(1), 0u);
  EXPECT_EQ(t.total_votes(), 5u);
}

TEST(Topology, DefaultVotesAreUniform) {
  const Topology t("t", 5, {Link{0, 1}});
  EXPECT_EQ(t.total_votes(), 5u);
  for (SiteId s = 0; s < 5; ++s) EXPECT_EQ(t.votes(s), 1u);
}

TEST(Builders, RingStructure) {
  const Topology ring = make_ring(7);
  EXPECT_EQ(ring.site_count(), 7u);
  EXPECT_EQ(ring.link_count(), 7u);
  for (SiteId s = 0; s < 7; ++s) {
    EXPECT_EQ(ring.degree(s), 2u);
    EXPECT_TRUE(ring.has_link(s, (s + 1) % 7));
  }
  EXPECT_THROW(make_ring(2), std::invalid_argument);
}

TEST(Builders, SpreadOrderIsPermutation) {
  for (const std::uint32_t n : {1u, 2u, 7u, 16u, 101u}) {
    const auto order = spread_order(n);
    ASSERT_EQ(order.size(), n);
    std::set<std::uint32_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), n);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), n - 1);
  }
}

TEST(Builders, SpreadOrderPrefixesAreSpread) {
  // The first four offsets for n=101 should land in distinct quarters.
  const auto order = spread_order(101);
  std::set<std::uint32_t> quarters;
  for (std::size_t i = 0; i < 4; ++i) quarters.insert(order[i] / 26);
  EXPECT_GE(quarters.size(), 3u);
}

TEST(Builders, ChordOrderCoversAllNonRingPairs) {
  const auto chords = chord_order(101);
  // C(101,2) - 101 ring links = 5050 - 101 = 4949 (the paper's count).
  EXPECT_EQ(chords.size(), 4949u);

  std::set<std::pair<SiteId, SiteId>> seen;
  for (const Link& c : chords) {
    EXPECT_LT(c.a, c.b);
    EXPECT_TRUE(seen.insert({c.a, c.b}).second) << "duplicate chord";
  }
}

TEST(Builders, ChordOrderExcludesRingEdges) {
  for (const std::uint32_t n : {8u, 13u, 101u}) {
    for (const Link& c : chord_order(n)) {
      const bool is_ring = (c.b - c.a == 1) || (c.a == 0 && c.b == n - 1);
      EXPECT_FALSE(is_ring) << "chord (" << c.a << "," << c.b << ") is a ring edge";
    }
  }
}

TEST(Builders, ChordOrderSmallAndDegenerate) {
  EXPECT_TRUE(chord_order(3).empty());
  EXPECT_EQ(chord_order(4).size(), 2u);  // the two diagonals of a 4-cycle
  EXPECT_EQ(chord_order(5).size(), 5u);  // C(5,2)-5
}

TEST(Builders, PaperTopologyFamilyLinkCounts) {
  for (const std::uint32_t k : {0u, 1u, 2u, 4u, 16u, 256u, 4949u}) {
    const Topology t = make_ring_with_chords(101, k);
    EXPECT_EQ(t.site_count(), 101u);
    EXPECT_EQ(t.link_count(), 101u + k);
    EXPECT_EQ(t.total_votes(), 101u);
  }
  // Topology 4949 is the complete graph.
  EXPECT_EQ(make_ring_with_chords(101, 4949).link_count(), 5050u);
  EXPECT_THROW(make_ring_with_chords(101, 4950), std::invalid_argument);
}

TEST(Builders, ChordPlacementIsDeterministic) {
  const Topology a = make_ring_with_chords(101, 16);
  const Topology b = make_ring_with_chords(101, 16);
  ASSERT_EQ(a.link_count(), b.link_count());
  for (LinkId l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.link(l), b.link(l));
  }
}

TEST(Builders, FirstChordIsLongest) {
  const Topology t = make_ring_with_chords(101, 1);
  const Link chord = t.link(101);
  const std::uint32_t skip =
      std::min<std::uint32_t>(chord.b - chord.a, 101 - (chord.b - chord.a));
  EXPECT_EQ(skip, 50u);  // floor(n/2): a diameter-spanning chord
}

TEST(Builders, FullyConnected) {
  const Topology t = make_fully_connected(6);
  EXPECT_EQ(t.link_count(), 15u);
  for (SiteId a = 0; a < 6; ++a) {
    for (SiteId b = a + 1; b < 6; ++b) EXPECT_TRUE(t.has_link(a, b));
  }
  EXPECT_THROW(make_fully_connected(1), std::invalid_argument);
}

TEST(Builders, RingWithAllChordsEqualsComplete) {
  const Topology via_chords = make_ring_with_chords(9, 9 * 8 / 2 - 9);
  const Topology complete = make_fully_connected(9);
  EXPECT_EQ(via_chords.link_count(), complete.link_count());
  for (SiteId a = 0; a < 9; ++a) {
    for (SiteId b = a + 1; b < 9; ++b) EXPECT_TRUE(via_chords.has_link(a, b));
  }
}

TEST(Builders, StarVotes) {
  const Topology t = make_star(5, 0, 2);
  EXPECT_EQ(t.link_count(), 4u);
  EXPECT_EQ(t.votes(0), 0u);
  EXPECT_EQ(t.votes(3), 2u);
  EXPECT_EQ(t.total_votes(), 8u);
  EXPECT_EQ(t.degree(0), 4u);
  EXPECT_EQ(t.degree(1), 1u);
}

TEST(Builders, Grid) {
  const Topology t = make_grid(3, 2);
  EXPECT_EQ(t.site_count(), 6u);
  EXPECT_EQ(t.link_count(), 7u);  // 2 rows * 2 horiz + 3 vert = 4 + 3
  EXPECT_TRUE(t.has_link(0, 1));
  EXPECT_TRUE(t.has_link(0, 3));
  EXPECT_FALSE(t.has_link(2, 3));  // row wrap must not exist
}

TEST(Builders, BinaryTree) {
  const Topology t = make_binary_tree(7);
  EXPECT_EQ(t.link_count(), 6u);
  EXPECT_TRUE(t.has_link(0, 1));
  EXPECT_TRUE(t.has_link(0, 2));
  EXPECT_TRUE(t.has_link(1, 3));
  EXPECT_TRUE(t.has_link(2, 6));
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(3), 1u);
}

TEST(Builders, ErdosRenyiDeterministicInSeed) {
  const Topology a = make_erdos_renyi(20, 0.3, 7);
  const Topology b = make_erdos_renyi(20, 0.3, 7);
  const Topology c = make_erdos_renyi(20, 0.3, 8);
  EXPECT_EQ(a.link_count(), b.link_count());
  EXPECT_NE(a.link_count(), c.link_count());  // overwhelmingly likely
}

TEST(Builders, ErdosRenyiExtremes) {
  EXPECT_EQ(make_erdos_renyi(10, 0.0, 1).link_count(), 0u);
  EXPECT_EQ(make_erdos_renyi(10, 1.0, 1).link_count(), 45u);
  EXPECT_THROW(make_erdos_renyi(10, 1.5, 1), std::invalid_argument);
}

TEST(Topology, FindLinkReturnsLinkCountWhenAbsent) {
  const Topology t = make_ring(5);
  EXPECT_EQ(t.find_link(0, 1), t.find_link(1, 0));
  EXPECT_LT(t.find_link(0, 1), t.link_count());
  EXPECT_EQ(t.find_link(0, 2), t.link_count());
  EXPECT_EQ(t.find_link(0, 0), t.link_count());
}

TEST(Topology, DomainPathsAreOptInAndValidated) {
  Topology t = make_ring(4);
  EXPECT_FALSE(t.has_domains());
  EXPECT_EQ(t.domain(0), "");

  t.set_domain(0, "rg0/dc1/rk2");
  EXPECT_TRUE(t.has_domains());
  EXPECT_EQ(t.domain(0), "rg0/dc1/rk2");

  // Last wins by design; the auditor flags the overlap, not the setter.
  t.set_domain(0, "rg1/dc0");
  EXPECT_EQ(t.domain(0), "rg1/dc0");

  // Empty path clears the annotation.
  t.set_domain(0, "");
  EXPECT_EQ(t.domain(0), "");

  EXPECT_THROW(t.set_domain(0, "/rg0"), std::invalid_argument);
  EXPECT_THROW(t.set_domain(0, "rg0//dc1"), std::invalid_argument);
  EXPECT_THROW(t.set_domain(0, "rg0/"), std::invalid_argument);
  EXPECT_THROW(t.set_domain(0, "rg 0"), std::invalid_argument);
  EXPECT_THROW(t.set_domain(99, "rg0"), std::invalid_argument);
}

TEST(Topology, DomainContainsUsesComponentBoundaries) {
  EXPECT_TRUE(Topology::domain_contains("rg0", "rg0"));
  EXPECT_TRUE(Topology::domain_contains("rg0", "rg0/dc1"));
  EXPECT_TRUE(Topology::domain_contains("rg0/dc1", "rg0/dc1/rk0"));
  EXPECT_FALSE(Topology::domain_contains("rg0", "rg01"));
  EXPECT_FALSE(Topology::domain_contains("rg0/dc1", "rg0"));
  // Empty prefix contains every annotated site; an unannotated site is
  // contained by nothing.
  EXPECT_TRUE(Topology::domain_contains("", "rg0"));
  EXPECT_FALSE(Topology::domain_contains("", ""));
  EXPECT_FALSE(Topology::domain_contains("rg0", ""));
}

TEST(Topology, SitesInDomainAndPrefixes) {
  Topology t = make_ring(6);
  t.set_domain(0, "rg0/dc0");
  t.set_domain(1, "rg0/dc1");
  t.set_domain(3, "rg1/dc0");
  t.set_domain(5, "rg0/dc0");

  const std::vector<SiteId> rg0 = t.sites_in_domain("rg0");
  EXPECT_EQ(rg0, (std::vector<SiteId>{0, 1, 5}));
  EXPECT_EQ(t.sites_in_domain("rg0/dc0"), (std::vector<SiteId>{0, 5}));
  EXPECT_EQ(t.sites_in_domain("rg9"), std::vector<SiteId>{});

  EXPECT_EQ(t.domain_prefix(1, 1), "rg0");
  EXPECT_EQ(t.domain_prefix(1, 2), "rg0/dc1");
  EXPECT_EQ(t.domain_prefix(1, 5), "rg0/dc1");  // deeper than the path
  EXPECT_EQ(t.domain_prefix(2, 1), "");         // unannotated

  const std::vector<std::string> regions = t.regions();
  EXPECT_EQ(regions, (std::vector<std::string>{"rg0", "rg1"}));
}

TEST(Topology, LinkLatencyClassesAreOptInAndValidated) {
  Topology t = make_ring(4);
  EXPECT_FALSE(t.has_link_latencies());
  EXPECT_EQ(t.link_latency(0).base, 0.0);
  EXPECT_EQ(t.link_latency(0).jitter, 0.0);

  t.set_link_latency(1, LinkLatency{0.03, 0.01});
  EXPECT_TRUE(t.has_link_latencies());
  EXPECT_DOUBLE_EQ(t.link_latency(1).base, 0.03);
  EXPECT_DOUBLE_EQ(t.link_latency(1).jitter, 0.01);
  EXPECT_EQ(t.link_latency(0).base, 0.0);  // untouched links stay default

  EXPECT_THROW(t.set_link_latency(0, LinkLatency{-1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(t.set_link_latency(0, LinkLatency{0.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW(t.set_link_latency(99, LinkLatency{0.0, 0.0}),
               std::invalid_argument);
}

TEST(Builders, GeoLayoutStructure) {
  const Topology t = make_geo(GeoSpec{});  // 3 regions x 2 DCs x 1 rack x 4
  EXPECT_EQ(t.site_count(), 24u);
  EXPECT_EQ(t.name(), "geo-3x2x1x4");
  // Per region: 2 racks-as-DCs of C(4,2)=6 intra links + 1 inter-DC link;
  // across regions: C(3,2)=3 pairs x 2 DC indices = 6 trunks.
  EXPECT_EQ(t.link_count(), 3u * (2u * 6u + 1u) + 6u);

  // Every site is annotated with a full three-level path.
  EXPECT_TRUE(t.has_domains());
  for (SiteId s = 0; s < t.site_count(); ++s) {
    EXPECT_NE(t.domain(s), "") << "site " << s;
  }
  EXPECT_EQ(t.domain(0), "rg0/dc0/rk0");
  EXPECT_EQ(t.domain(23), "rg2/dc1/rk0");
  EXPECT_EQ(t.regions(), (std::vector<std::string>{"rg0", "rg1", "rg2"}));
  EXPECT_EQ(t.sites_in_domain("rg0").size(), 8u);
  EXPECT_EQ(t.sites_in_domain("rg1/dc1").size(), 4u);

  // Inter-region trunks ride the DC leaders, one per DC index.
  EXPECT_TRUE(t.has_link(0, 8));
  EXPECT_TRUE(t.has_link(0, 16));
  EXPECT_TRUE(t.has_link(8, 16));
  EXPECT_TRUE(t.has_link(4, 12));
  EXPECT_FALSE(t.has_link(1, 9));  // non-leaders have no trunk

  // Every link carries a latency class, and trunks are the slow tier.
  EXPECT_TRUE(t.has_link_latencies());
  const GeoSpec spec;
  const LinkId trunk = t.find_link(0, 8);
  ASSERT_LT(trunk, t.link_count());
  EXPECT_DOUBLE_EQ(t.link_latency(trunk).base, spec.inter_region.base);
  const LinkId rack = t.find_link(0, 1);
  ASSERT_LT(rack, t.link_count());
  EXPECT_DOUBLE_EQ(t.link_latency(rack).base, spec.intra_rack.base);
}

TEST(Builders, GeoRejectsEmptyTiers) {
  GeoSpec spec;
  spec.regions = 0;
  EXPECT_THROW(make_geo(spec), std::invalid_argument);
  spec.regions = 2;
  spec.sites_per_rack = 0;
  EXPECT_THROW(make_geo(spec), std::invalid_argument);
}

} // namespace
} // namespace quora::net
