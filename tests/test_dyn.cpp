// Tests for the dyn module: the Jajodia-Mutchler dynamic-voting baseline.

#include <gtest/gtest.h>

#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "dyn/dynamic_voting.hpp"
#include "net/builders.hpp"
#include "quorum/quorum_spec.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"

namespace quora::dyn {
namespace {

TEST(DynamicVoting, FullNetworkCommits) {
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);

  EXPECT_TRUE(dv.attempt_update(tracker, 0));
  EXPECT_EQ(dv.committed_updates(), 1u);
  for (net::SiteId s = 0; s < 5; ++s) {
    EXPECT_EQ(dv.state(s).version, 1u);
    EXPECT_EQ(dv.state(s).cardinality, 5u);
  }
}

TEST(DynamicVoting, MinorityOfLastElectorateCannotCommit) {
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  ASSERT_TRUE(dv.attempt_update(tracker, 0));  // electorate = all 5

  // Partition into {1,2} and {3,4,0}: only the 3-side has a majority of 5.
  live.set_link_up(0, false);
  live.set_link_up(2, false);
  EXPECT_FALSE(dv.attempt_update(tracker, 1));
  EXPECT_TRUE(dv.attempt_update(tracker, 3));
  EXPECT_EQ(dv.committed_updates(), 2u);
}

TEST(DynamicVoting, ElectorateShrinksWithCommits) {
  // The hallmark of dynamic voting: after {3,4,0} commits (cardinality
  // now 3), a further split leaving {3,4} still commits — 2 of the last
  // electorate of 3 is a majority, even though it is 2 of 5 copies.
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  ASSERT_TRUE(dv.attempt_update(tracker, 0));
  live.set_link_up(0, false);
  live.set_link_up(2, false);  // {1,2} vs {3,4,0}
  ASSERT_TRUE(dv.attempt_update(tracker, 3));

  live.set_site_up(0, false);  // {3,4} remain from the electorate of 3
  EXPECT_TRUE(dv.attempt_update(tracker, 3));
  EXPECT_EQ(dv.state(3).cardinality, 2u);

  // A static majority protocol would have denied that: 2 of 5 votes.
  EXPECT_FALSE(quorum::majority(5).allows_write(2));
}

TEST(DynamicVoting, StaleSideStaysBlockedUntilRejoin) {
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  ASSERT_TRUE(dv.attempt_update(tracker, 0));
  live.set_link_up(0, false);
  live.set_link_up(2, false);  // {1,2} vs {3,4,0}
  ASSERT_TRUE(dv.attempt_update(tracker, 3));
  ASSERT_TRUE(dv.attempt_update(tracker, 3));

  // {1,2} holds version 1 with cardinality 5 — never a majority of 5.
  EXPECT_FALSE(dv.attempt_update(tracker, 1));
  // Heal: the merged component carries version 3, electorate 3; all 5
  // sites present > 3/2 — commit succeeds and re-expands the electorate.
  live.set_link_up(0, true);
  live.set_link_up(2, true);
  live.set_site_up(0, true);
  EXPECT_TRUE(dv.attempt_update(tracker, 1));
  EXPECT_EQ(dv.state(1).cardinality, 5u);
}

TEST(DynamicVoting, DownOriginFails) {
  const net::Topology topo = net::make_ring(4);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  live.set_site_up(2, false);
  EXPECT_FALSE(dv.attempt_update(tracker, 2));
}

TEST(DynamicVoting, VersionsNeverRegress) {
  rng::Xoshiro256ss gen(55);
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);

  std::uint64_t last_committed = 0;
  for (int step = 0; step < 10'000; ++step) {
    const double u = gen.next_double();
    if (u < 0.4) {
      const auto s =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      live.set_site_up(s, !live.is_site_up(s));
    } else if (u < 0.6) {
      const auto l =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(l, !live.is_link_up(l));
    } else {
      const auto origin =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      dv.attempt_update(tracker, origin);
      EXPECT_GE(dv.committed_updates(), last_committed);
      last_committed = dv.committed_updates();
      // Version monotone and consistent with the commit counter.
      std::uint64_t max_version = 0;
      for (net::SiteId s = 0; s < topo.site_count(); ++s) {
        max_version = std::max(max_version, dv.state(s).version);
      }
      EXPECT_EQ(max_version, dv.committed_updates());
    }
  }
  EXPECT_GT(dv.committed_updates(), 100u);
}

} // namespace
} // namespace quora::dyn
