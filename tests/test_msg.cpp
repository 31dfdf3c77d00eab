// Tests for the message-level protocol implementation: flooding,
// two-phase writes, timeouts, failure races, and the real-time
// consistency guarantee against the instantaneous oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "msg/cluster.hpp"
#include "net/builders.hpp"

namespace quora::msg {
namespace {

Cluster::Params reliable_params(net::Vote total, net::Vote q_r) {
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(total, q_r);
  p.mean_hop_latency = 0.001;
  p.phase_timeout = 2.0;
  p.alpha = 0.5;
  p.config.reliability = 0.999999;  // effectively failure-free
  p.config.rho = 1e-9;
  return p;
}

TEST(Cluster, ValidatesParams) {
  const net::Topology topo = net::make_ring(5);
  Cluster::Params p = reliable_params(5, 2);
  p.spec = quorum::QuorumSpec{2, 3};  // 2+3 = T: invalid
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.mean_hop_latency = 0.0;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.alpha = 2.0;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.phase_timeout = -0.5;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.max_retries = Cluster::Params::kMaxRetryBudget + 1;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.max_retries = Cluster::Params::kMaxRetryBudget;  // the boundary is legal
  EXPECT_NO_THROW(Cluster(topo, p, 1));
}

TEST(Cluster, FailureFreeNetworkGrantsEverything) {
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  Cluster cluster(topo, reliable_params(9, 4), 7);
  cluster.run_decided_accesses(500);
  EXPECT_EQ(cluster.outcomes().size(), 500u);
  // Concurrent writes can still collide on vote leases (the real
  // mutual-exclusion cost the oracle model hides), but with abort-based
  // lease release the loss is tiny.
  EXPECT_GT(cluster.availability(), 0.98);
  EXPECT_DOUBLE_EQ(cluster.oracle_availability(), 1.0);
  EXPECT_GT(cluster.messages_sent(), 1000u);
}

TEST(Cluster, WritesPropagateToReads) {
  const net::Topology topo = net::make_ring(7);
  Cluster cluster(topo, reliable_params(7, 3), 9);
  cluster.run_decided_accesses(400);

  // Some writes committed, and every granted read after the first commit
  // returns a nonzero version/value.
  ASSERT_FALSE(cluster.commits().empty());
  const double first_commit = cluster.commits().front().decide_time;
  std::uint64_t checked = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (o.is_read && o.granted && o.submit_time > first_commit) {
      EXPECT_GT(o.version, 0u);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(Cluster, CommitVersionsAreStrictlyIncreasing) {
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  Cluster cluster(topo, reliable_params(9, 4), 11);
  cluster.run_decided_accesses(600);
  const auto& commits = cluster.commits();
  ASSERT_GT(commits.size(), 10u);
  for (std::size_t i = 1; i < commits.size(); ++i) {
    EXPECT_GT(commits[i].version, commits[i - 1].version);
  }
}

TEST(Cluster, DeterministicPerSeed) {
  const net::Topology topo = net::make_ring(7);
  const auto run = [&](std::uint64_t seed) {
    Cluster cluster(topo, reliable_params(7, 3), seed);
    cluster.run_decided_accesses(300);
    return std::tuple{cluster.availability(), cluster.messages_sent(),
                      cluster.now()};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Cluster, RealTimeConsistencyUnderFailures) {
  // The headline guarantee: a granted read returns a version at least as
  // new as every write that was *decided committed* before the read was
  // submitted — under the full failure model with in-flight message loss.
  const net::Topology topo = net::make_ring_with_chords(13, 3);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(13, 5);
  p.mean_hop_latency = 0.01;
  p.phase_timeout = 1.0;
  p.alpha = 0.5;
  p.config.reliability = 0.92;  // aggressive failures
  Cluster cluster(topo, p, 13);
  cluster.run_decided_accesses(4'000);

  const auto& commits = cluster.commits();
  std::uint64_t granted_reads = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (!o.is_read || !o.granted) continue;
    ++granted_reads;
    std::uint64_t floor_version = 0;
    for (const auto& c : commits) {
      if (c.decide_time <= o.submit_time) {
        floor_version = std::max(floor_version, c.version);
      }
    }
    EXPECT_GE(o.version, floor_version)
        << "read at t=" << o.submit_time << " missed a committed write";
  }
  EXPECT_GT(granted_reads, 400u);
  EXPECT_GT(commits.size(), 100u);
}

TEST(Cluster, AvailabilityConvergesToOracleAtLowLatency) {
  const net::Topology topo = net::make_ring_with_chords(13, 3);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(13, 5);
  p.alpha = 0.5;
  p.config.reliability = 0.94;
  p.phase_timeout = 1.0;

  p.mean_hop_latency = 0.0005;  // vanishing latency
  Cluster fast(topo, p, 21);
  fast.run_decided_accesses(6'000);
  EXPECT_NEAR(fast.availability(), fast.oracle_availability(), 0.04);

  p.mean_hop_latency = 0.25;  // slow network: timeouts and races bite
  Cluster slow(topo, p, 21);
  slow.run_decided_accesses(6'000);
  EXPECT_LT(slow.availability(), slow.oracle_availability() - 0.02);
}

TEST(Cluster, PartitionDeniesMinorityCoordinators) {
  // With failures disabled but the topology pre-partitioned by parameter
  // choice we can't cut links directly (the cluster owns its network), so
  // instead: a harsh-failure run must contain denied accesses whose
  // oracle also denied — and *no* case where the message protocol grants
  // while the oracle's component lacked the votes at submit time... the
  // message protocol may only be MORE conservative than the oracle
  // (votes can be lost to races, never conjured).
  const net::Topology topo = net::make_ring(11);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(11, 4);
  p.mean_hop_latency = 0.01;
  p.phase_timeout = 1.0;
  p.alpha = 0.5;
  p.config.reliability = 0.90;
  Cluster cluster(topo, p, 33);
  cluster.run_decided_accesses(4'000);

  std::uint64_t conservative = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (o.granted) {
      // Granted by messages => a quorum actually replied; the oracle at
      // submit time must have seen those votes reachable too, except for
      // recoveries mid-flight. Allow the rare recovery race but count it.
      if (!o.oracle_granted) ++conservative;
    }
  }
  // Mid-coordination recoveries can add votes the submit-time oracle
  // lacked, but they must be rare.
  EXPECT_LT(static_cast<double>(conservative),
            0.01 * static_cast<double>(cluster.outcomes().size()));
}

TEST(Cluster, OracleFollowsAnInstallWithoutANetworkChange) {
  // Between the two scripted writes at site 1 the network does not
  // change, but a QR install does: the oracle must judge the second write
  // under the installed (1, 5), not the (3, 3) it judged the first under.
  const net::Topology topo = net::make_ring(5);
  Cluster::Params p = reliable_params(5, 2);
  p.spec = quorum::QuorumSpec{3, 3};
  Cluster cluster(topo, p, 5);
  fault::FaultPlan plan;
  plan.partition(1.0, {{0, 1, 2}, {3, 4}})
      .access(2.0, 1, /*is_read=*/false)
      .reassign(3.0, 0, quorum::QuorumSpec{1, 5})  // 3 votes >= q_w = 3
      .access(4.0, 1, /*is_read=*/false);
  fault::FaultInjector injector(plan, 5);
  cluster.attach_injector(&injector);
  cluster.run_until(10.0);
  ASSERT_EQ(cluster.installs().size(), 1u);

  std::vector<AccessOutcome> scripted;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (o.origin == 1 && !o.is_read &&
        (o.submit_time == 2.0 || o.submit_time == 4.0)) {
      scripted.push_back(o);
    }
  }
  std::sort(scripted.begin(), scripted.end(),
            [](const AccessOutcome& a, const AccessOutcome& b) {
              return a.submit_time < b.submit_time;
            });
  ASSERT_EQ(scripted.size(), 2u);
  EXPECT_TRUE(scripted[0].oracle_granted) << "3 votes meet q_w = 3";
  EXPECT_FALSE(scripted[1].oracle_granted) << "3 votes miss q_w = 5";
}

TEST(Cluster, SlowNetworkTimesOutInsteadOfHanging) {
  const net::Topology topo = net::make_ring(9);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(9, 4);
  p.mean_hop_latency = 2.0;   // hops slower than the timeout
  p.phase_timeout = 0.5;
  p.alpha = 0.5;
  p.config.reliability = 0.999999;
  p.config.rho = 1e-9;
  Cluster cluster(topo, p, 17);
  cluster.run_decided_accesses(300);
  // Everything decides (no hangs), and most non-trivial quorums fail.
  EXPECT_EQ(cluster.outcomes().size(), 300u);
  EXPECT_LT(cluster.availability(), 0.2);
  EXPECT_DOUBLE_EQ(cluster.oracle_availability(), 1.0);
}

TEST(Cluster, WriteConflictsAreTheOnlyFailureFreeLoss) {
  // In a failure-free network every denial must be a write (lease
  // conflict or fast-deny) — reads have nothing to collide on.
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  Cluster cluster(topo, reliable_params(9, 4), 23);
  cluster.run_decided_accesses(2'000);
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (!o.granted) {
      EXPECT_FALSE(o.is_read) << "a read was denied without failures";
    }
  }
}

TEST(Cluster, WriteQuorumsCountRepliersPastTheFirst64Sites) {
  // A coordinator's repliers and ackers are site bitsets. A write quorum
  // of 90 of 101 votes needs votes and acks from sites past the first
  // 64-bit word, so sets that lost or aliased them would grant no write.
  // Mostly reads: concurrent writes at this quorum collide on leases.
  const net::Topology topo = net::make_ring_with_chords(101, 4);
  Cluster::Params p = reliable_params(101, 12);
  p.alpha = 0.9;
  Cluster cluster(topo, p, 5);
  cluster.run_decided_accesses(400);
  std::size_t writes = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (o.is_read || !o.granted) continue;
    ++writes;
    EXPECT_GE(o.votes_collected, 90u);
    EXPECT_LE(o.votes_collected, 101u);
  }
  EXPECT_GE(writes, 10u);  // 15 at this seed
}

TEST(Cluster, MessageVolumeScalesWithTopology) {
  // Floods visit each link a bounded number of times per coordination;
  // denser topologies pay proportionally more messages.
  const net::Topology sparse = net::make_ring(15);
  const net::Topology dense = net::make_ring_with_chords(15, 30);
  Cluster a(sparse, reliable_params(15, 7), 29);
  Cluster b(dense, reliable_params(15, 7), 29);
  a.run_decided_accesses(200);
  b.run_decided_accesses(200);
  EXPECT_GT(b.messages_sent(), a.messages_sent());
  // Sanity bound: per access at most a small multiple of 2E messages per
  // round across <= 3 rounds plus relays.
  EXPECT_LT(a.messages_sent(), 200u * 2u * 15u * 12u);
}

TEST(Cluster, OutcomeClockIsMonotoneAndDecidesAfterSubmit) {
  const net::Topology topo = net::make_ring(9);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(9, 3);
  p.mean_hop_latency = 0.02;
  p.phase_timeout = 0.5;
  p.alpha = 0.5;
  p.config.reliability = 0.93;
  Cluster cluster(topo, p, 41);
  cluster.run_decided_accesses(1'500);
  for (const AccessOutcome& o : cluster.outcomes()) {
    EXPECT_GE(o.decide_time, o.submit_time);
  }
  // Commit log times are nondecreasing (appended at decision time).
  const auto& commits = cluster.commits();
  for (std::size_t i = 1; i < commits.size(); ++i) {
    EXPECT_GE(commits[i].decide_time, commits[i - 1].decide_time);
  }
}

} // namespace
} // namespace quora::msg
