// Chaos scenarios against the message-level cluster: scripted partitions,
// crash-during-commit partial writes, retry/backoff behaviour, QR
// reassignment under partitions with stale-version rejection, and the
// byte-identical determinism contract of the fault-injection engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fault/event_log.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "io/topology_io.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"
#include "net/builders.hpp"

namespace quora::msg {
namespace {

/// Failure-free background model: the fault plan is the only source of
/// faults, so every effect in a test is the scripted one.
Cluster::Params chaos_params(net::Vote q_r, net::Vote q_w) {
  Cluster::Params params;
  params.spec = quorum::QuorumSpec{q_r, q_w};
  params.config.reliability = 0.999999;
  params.config.rho = 1e-9;
  return params;
}

struct ChaosRun {
  fault::EventLog log;
  std::vector<AccessOutcome> outcomes;
  std::vector<Cluster::CommitRecord> commits;
  SafetyReport safety;
  std::uint64_t retries = 0;
  std::uint64_t stale_rejections = 0;
  std::uint64_t installs = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
};

ChaosRun run_chaos(const net::Topology& topo, Cluster::Params params,
                   const fault::FaultPlan& plan, std::uint64_t seed,
                   double horizon) {
  Cluster cluster(topo, params, seed);
  fault::FaultInjector injector(plan, seed);
  ChaosRun run;
  cluster.attach_injector(&injector);
  cluster.attach_log(&run.log);
  cluster.run_until(horizon);
  run.outcomes = cluster.outcomes();
  run.commits = cluster.commits();
  run.safety = check_safety(cluster);
  run.retries = cluster.retries();
  run.stale_rejections = cluster.stale_rejections();
  run.installs = cluster.installs().size();
  run.dropped = cluster.messages_dropped();
  run.duplicated = cluster.messages_duplicated();
  return run;
}

std::uint64_t count_reason(const ChaosRun& run, DenyReason reason) {
  std::uint64_t n = 0;
  for (const AccessOutcome& o : run.outcomes) n += o.deny_reason == reason;
  return n;
}

/// One-copy check on the visible history: every granted outcome that
/// exposes (version, value) must agree — a version number names exactly
/// one value, even when partial writes float around after a coordinator
/// crash.
void expect_versions_name_unique_values(const ChaosRun& run) {
  std::map<std::uint64_t, std::uint64_t> value_of;
  for (const AccessOutcome& o : run.outcomes) {
    if (!o.granted || o.version == 0) continue;
    const auto [it, inserted] = value_of.emplace(o.version, o.value);
    EXPECT_EQ(it->second, o.value)
        << "version " << o.version << " observed with two values";
  }
}

TEST(Chaos, CleanPartitionDegradesAvailabilityNotSafety) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  fault::FaultPlan plan;
  plan.partition(30.0, {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}}).heal(80.0);
  const ChaosRun run =
      run_chaos(topo, chaos_params(4, 7), plan, 17, 120.0);

  EXPECT_TRUE(run.safety.ok()) << run.safety.violations.front().message;
  expect_versions_name_unique_values(run);
  // The 4-site side can never reach q_r=4... it holds exactly 4 votes, so
  // reads survive there; writes (q_w=7) die on both metrics during the
  // partition: expect a visible pile of no-quorum denials.
  EXPECT_GT(count_reason(run, DenyReason::kNoQuorum), 0u);
  // After the heal the system must still decide accesses.
  std::uint64_t granted_after_heal = 0;
  for (const AccessOutcome& o : run.outcomes) {
    granted_after_heal += o.granted && o.submit_time > 85.0;
  }
  EXPECT_GT(granted_after_heal, 0u);
}

TEST(Chaos, CrashDuringCommitLeavesConsistentVersions) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  fault::FaultPlan plan;
  plan.arm_crash_on_commit(10.0, fault::kAnySite, 15.0)
      .arm_crash_on_commit(50.0, fault::kAnySite, 15.0);
  const ChaosRun run =
      run_chaos(topo, chaos_params(4, 7), plan, 23, 120.0);

  // Both triggers must have fired: the coordinator died after flooding
  // its commit but before assembling the ack quorum.
  EXPECT_EQ(count_reason(run, DenyReason::kCoordinatorCrash), 2u);
  ASSERT_EQ(2, std::count_if(run.log.lines().begin(), run.log.lines().end(),
                             [](const std::string& l) {
                               return l.find("crash-on-commit coord=") !=
                                      std::string::npos;
                             }));

  // The partial write is deliberately not rolled back. Version-number
  // semantics must absorb it: later writes pick strictly newer versions
  // (no duplicate commit), later reads never go backwards, and any site
  // that applied the orphaned commit agrees on its value.
  EXPECT_TRUE(run.safety.ok()) << run.safety.violations.front().message;
  expect_versions_name_unique_values(run);

  // The system keeps committing after both crashes.
  std::uint64_t commits_after = 0;
  for (const Cluster::CommitRecord& c : run.commits) {
    commits_after += c.decide_time > 60.0;
  }
  EXPECT_GT(commits_after, 0u);
}

TEST(Chaos, RetriesRecoverTimeoutsOnALossyNetwork) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  fault::FaultPlan plan;
  plan.drop(0.0, 120.0, 0.3);

  Cluster::Params no_retries = chaos_params(4, 7);
  Cluster::Params with_retries = chaos_params(4, 7);
  with_retries.max_retries = 3;

  const ChaosRun baseline = run_chaos(topo, no_retries, plan, 31, 120.0);
  const ChaosRun retried = run_chaos(topo, with_retries, plan, 31, 120.0);

  EXPECT_EQ(baseline.retries, 0u);
  EXPECT_GT(retried.retries, 0u);
  EXPECT_GT(baseline.dropped, 0u);

  const auto availability = [](const ChaosRun& run) {
    std::uint64_t granted = 0;
    for (const AccessOutcome& o : run.outcomes) granted += o.granted;
    return static_cast<double>(granted) /
           static_cast<double>(run.outcomes.size());
  };
  // Retries must buy real availability on a 30%-loss network.
  EXPECT_GT(availability(retried), availability(baseline) + 0.05);

  // Without a retry budget a lost phase ends in kTimeout; with one,
  // unrecoverable accesses surface as kAbandoned with attempts consumed.
  EXPECT_GT(count_reason(baseline, DenyReason::kTimeout), 0u);
  EXPECT_EQ(count_reason(baseline, DenyReason::kAbandoned), 0u);
  EXPECT_GT(count_reason(retried, DenyReason::kAbandoned), 0u);
  for (const AccessOutcome& o : retried.outcomes) {
    if (o.deny_reason == DenyReason::kAbandoned) {
      EXPECT_GT(o.attempts, 0u);
    }
    if (o.deny_reason == DenyReason::kTimeout) {
      EXPECT_EQ(o.attempts, 0u);
    }
  }
  EXPECT_TRUE(retried.safety.ok()) << retried.safety.violations.front().message;
  expect_versions_name_unique_values(retried);
}

TEST(Chaos, ReassignmentMidPartitionRejectsStaleCoordinators) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  // {0..7} holds exactly q_w=8 votes: it may install (5,6) mid-partition.
  // The partition then shifts so site 7 carries version 2 into the
  // version-1 group {7,8,9}, which holds exactly q_r(v1)=3 votes — its
  // coordinators keep trying and must hit site 7's stale-version denial.
  fault::FaultPlan plan;
  plan.partition(20.0, {{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9}})
      .reassign(40.0, 2, quorum::QuorumSpec{5, 6})
      .heal_links(60.0)
      .partition(60.0, {{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9}})
      .heal(100.0);
  const ChaosRun run =
      run_chaos(topo, chaos_params(3, 8), plan, 5, 140.0);

  EXPECT_EQ(run.installs, 1u);
  EXPECT_TRUE(run.log.contains("fault reassign origin=2 qr=(5,6) v=2 installed"));
  EXPECT_GT(run.stale_rejections, 0u);
  EXPECT_TRUE(run.log.contains("stale-reject"));
  EXPECT_GT(count_reason(run, DenyReason::kStaleAssignment), 0u);
  // §2.2 safety: nothing was ever *granted* under the superseded
  // assignment after the install decided, and reads stayed consistent.
  EXPECT_TRUE(run.safety.ok()) << run.safety.violations.front().message;
  expect_versions_name_unique_values(run);
  // After the full heal everyone converges on version 2.
  std::uint64_t granted_v2_after_heal = 0;
  for (const AccessOutcome& o : run.outcomes) {
    if (o.granted && o.submit_time > 105.0) {
      EXPECT_EQ(o.qr_version, 2u);
      ++granted_v2_after_heal;
    }
  }
  EXPECT_GT(granted_v2_after_heal, 0u);
}

TEST(Chaos, OriginDownAccessesGetTheirOwnReason) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  fault::FaultPlan plan;
  plan.site_down(10.0, 2).heal(70.0);
  const ChaosRun run =
      run_chaos(topo, chaos_params(4, 7), plan, 41, 100.0);
  EXPECT_GT(count_reason(run, DenyReason::kOriginDown), 0u);
  for (const AccessOutcome& o : run.outcomes) {
    if (o.deny_reason == DenyReason::kOriginDown) {
      EXPECT_EQ(o.origin, 2u);
      EXPECT_GT(o.submit_time, 10.0);
      EXPECT_LT(o.submit_time, 70.0);
    }
  }
  EXPECT_TRUE(run.safety.ok()) << run.safety.violations.front().message;
}

TEST(Chaos, SameSeedRunsReplayByteIdenticalLogs) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  fault::FaultPlan plan;
  plan.partition(20.0, {{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9}})
      .reassign(40.0, 2, quorum::QuorumSpec{5, 6})
      .heal(60.0)
      .drop(10.0, 90.0, 0.2)
      .delay(10.0, 90.0, 0.3, 0.01)
      .duplicate(10.0, 90.0, 0.15)
      .arm_crash_on_commit(70.0, fault::kAnySite, 10.0);

  Cluster::Params params = chaos_params(3, 8);
  params.max_retries = 2;
  const ChaosRun a = run_chaos(topo, params, plan, 777, 120.0);
  const ChaosRun b = run_chaos(topo, params, plan, 777, 120.0);
  EXPECT_EQ(a.log.lines(), b.log.lines());
  EXPECT_EQ(a.log.hash(), b.log.hash());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_GT(a.log.size(), 0u);
  EXPECT_GT(a.duplicated, 0u);

  // A different seed must actually change the run (the logs carry times).
  const ChaosRun c = run_chaos(topo, params, plan, 778, 120.0);
  EXPECT_NE(a.log.hash(), c.log.hash());
}

TEST(Chaos, InjectorDoesNotPerturbTheBaselineRun) {
  // An attached injector whose plan is empty must leave the simulation
  // byte-identical to no injector at all: the engine only consumes
  // cluster randomness for its own events.
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  Cluster::Params params = chaos_params(4, 7);

  Cluster bare(topo, params, 11);
  bare.run_until(80.0);

  Cluster injected(topo, params, 11);
  fault::FaultInjector empty(fault::FaultPlan{}, 11);
  injected.attach_injector(&empty);
  injected.run_until(80.0);

  ASSERT_EQ(bare.outcomes().size(), injected.outcomes().size());
  for (std::size_t i = 0; i < bare.outcomes().size(); ++i) {
    EXPECT_DOUBLE_EQ(bare.outcomes()[i].submit_time,
                     injected.outcomes()[i].submit_time);
    EXPECT_DOUBLE_EQ(bare.outcomes()[i].decide_time,
                     injected.outcomes()[i].decide_time);
    EXPECT_EQ(bare.outcomes()[i].granted, injected.outcomes()[i].granted);
  }
  EXPECT_EQ(bare.messages_sent(), injected.messages_sent());
}

/// Availability of accesses submitted outside domain "rg0" inside the
/// window [from, until).
double availability_outside_rg0(const ChaosRun& run, const net::Topology& topo,
                                double from, double until) {
  std::uint64_t n = 0, granted = 0;
  for (const AccessOutcome& o : run.outcomes) {
    if (o.submit_time < from || o.submit_time >= until) continue;
    if (topo.domain_prefix(o.origin, 1) == "rg0") continue;
    ++n;
    granted += o.granted;
  }
  return n == 0 ? 0.0 : static_cast<double>(granted) / static_cast<double>(n);
}

TEST(Chaos, RegionOutageSparesDomainSpreadAssignments) {
  // The acceptance scenario of the sweep harness, as a test: a full rg0
  // outage kills a vote assignment concentrated in rg0 but leaves the
  // uniform domain-spread majority serving from the surviving regions.
  fault::FaultPlan plan;
  plan.domain_down(60.0, "rg0").domain_up(160.0, "rg0");

  const net::Topology spread_topo = net::make_geo(net::GeoSpec{});
  const ChaosRun spread =
      run_chaos(spread_topo, chaos_params(13, 13), plan, 404, 240.0);

  // Weighted: rg0's 8 sites hold 3 votes each (24 of T=40), quorum 21 —
  // no quorum can assemble without rg0.
  std::istringstream weighted_in(
      "sites 24\n"
      "geo 3 2 1 4\n"
      "vote 0 3\nvote 1 3\nvote 2 3\nvote 3 3\n"
      "vote 4 3\nvote 5 3\nvote 6 3\nvote 7 3\n");
  const net::Topology weighted_topo = io::load_system(weighted_in).topology;
  const ChaosRun weighted =
      run_chaos(weighted_topo, chaos_params(21, 21), plan, 404, 240.0);

  EXPECT_TRUE(spread.log.contains("fault domain-down rg0 sites=8"));
  EXPECT_TRUE(spread.safety.ok()) << spread.safety.violations.front().message;
  EXPECT_TRUE(weighted.safety.ok()) << weighted.safety.violations.front().message;

  const double spread_avail =
      availability_outside_rg0(spread, spread_topo, 70.0, 150.0);
  const double weighted_avail =
      availability_outside_rg0(weighted, weighted_topo, 70.0, 150.0);
  EXPECT_GT(spread_avail, 0.5);
  EXPECT_GE(spread_avail, weighted_avail + 0.1)
      << "spread=" << spread_avail << " weighted=" << weighted_avail;

  // After the domain heals, the weighted assignment serves again.
  std::uint64_t granted_after = 0;
  for (const AccessOutcome& o : weighted.outcomes) {
    granted_after += o.granted && o.submit_time > 170.0;
  }
  EXPECT_GT(granted_after, 0u);
}

TEST(Chaos, RackCascadeIsDeterministicAndScoped) {
  const net::Topology topo = net::make_geo(net::GeoSpec{});
  fault::FaultPlan plan;
  plan.correlate(3, 1.0, 30.0).crash(50.0, 2, 60.0);
  const Cluster::Params params = chaos_params(13, 13);

  const ChaosRun a = run_chaos(topo, params, plan, 505, 150.0);
  const ChaosRun b = run_chaos(topo, params, plan, 505, 150.0);
  EXPECT_EQ(a.log.lines(), b.log.lines());
  EXPECT_EQ(a.log.hash(), b.log.hash());

  // p = 1 rack contagion: the scripted crash of site 2 takes its three
  // rack-mates (rg0/dc0/rk0 = sites 0..3) down with it — and nothing else,
  // because cascade victims never trigger further cascades.
  for (const char* needle : {"fault correlated site=0 with=2",
                             "fault correlated site=1 with=2",
                             "fault correlated site=3 with=2"}) {
    EXPECT_TRUE(a.log.contains(needle)) << needle;
  }
  const auto correlated = std::count_if(
      a.log.lines().begin(), a.log.lines().end(), [](const std::string& l) {
        return l.find("fault correlated") != std::string::npos;
      });
  EXPECT_EQ(correlated, 3);
  EXPECT_TRUE(a.safety.ok()) << a.safety.violations.front().message;
  expect_versions_name_unique_values(a);
}

TEST(Chaos, OneWayCutIsGrayButLossy) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  fault::FaultPlan plan;
  plan.oneway_down(20.0, 0, 1).oneway_up(90.0, 0, 1);

  Cluster cluster(topo, chaos_params(4, 7), 31);
  fault::FaultInjector injector(plan, 31);
  fault::EventLog log;
  cluster.attach_injector(&injector);
  cluster.attach_log(&log);
  cluster.run_until(120.0);

  EXPECT_TRUE(log.contains("fault oneway-down 0->1"));
  EXPECT_TRUE(log.contains("fault oneway-up 0->1"));
  // Messages crossing the dead direction die in flight; the reverse
  // direction keeps delivering.
  EXPECT_GT(cluster.oneway_losses(), 0u);

  // The cut is a *gray* failure: the component tracker (and so the
  // paper's instantaneous oracle) sees a fully connected network the
  // whole time, while the message layer routes around the loss.
  std::uint64_t n = 0, granted = 0, oracle = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    ++n;
    granted += o.granted;
    oracle += o.oracle_granted;
  }
  ASSERT_GT(n, 0u);
  EXPECT_EQ(oracle, n);
  EXPECT_GT(granted, 0u);
  EXPECT_TRUE(check_safety(cluster).ok());
}

TEST(Chaos, CrashOnCommitImmediateRestartNeverLeavesTheUpSet) {
  const net::Topology topo = net::make_ring_with_chords(10, 2);
  fault::FaultPlan plan;
  plan.arm_crash_on_commit(10.0, fault::kAnySite, 0.0);
  const ChaosRun run = run_chaos(topo, chaos_params(4, 7), plan, 23, 120.0);

  // The trigger fires and the pending access dies coordinator-crash...
  EXPECT_EQ(count_reason(run, DenyReason::kCoordinatorCrash), 1u);
  EXPECT_TRUE(run.log.contains("down_for=0.000000"));
  // ...but the site restarts at the same instant: it never observably
  // leaves the up set, so no later access is denied for a down origin.
  EXPECT_EQ(count_reason(run, DenyReason::kOriginDown), 0u);
  EXPECT_TRUE(run.safety.ok()) << run.safety.violations.front().message;
  expect_versions_name_unique_values(run);

  // Contrast: the same trigger with a real down-time strands accesses
  // submitted at the dead coordinator.
  fault::FaultPlan slow;
  slow.arm_crash_on_commit(10.0, fault::kAnySite, 40.0);
  const ChaosRun down = run_chaos(topo, chaos_params(4, 7), slow, 23, 120.0);
  EXPECT_GT(count_reason(down, DenyReason::kOriginDown), 0u);
}

TEST(Chaos, CrashOnCommitRecoveryForksNoFailureProcess) {
  // A crash-on-commit trigger with a down-time brings its coordinator back
  // the way a cascade victim comes back: no draw and no rescheduling,
  // since the site's own Poisson fail/repair chain is still pending. A
  // recovery that scheduled the next failure itself would add one chain
  // per trigger, and with a trigger every 10 s about one access in ten
  // would then find its origin down, against 4.0% with `for 0` triggers.
  const net::Topology topo = net::make_ring_with_chords(25, 4);
  Cluster::Params params;
  params.spec = quorum::QuorumSpec{13, 13};
  fault::FaultPlan plan;
  for (int t = 10; t < 1000; t += 10) {
    plan.arm_crash_on_commit(static_cast<double>(t), fault::kAnySite, 1.0);
  }
  Cluster cluster(topo, params, 11);
  fault::FaultInjector injector(plan, 7);
  cluster.attach_injector(&injector);
  cluster.run_until(1000.0);

  ASSERT_GT(cluster.outcomes().size(), 1000u);
  std::uint64_t origin_down = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    origin_down += o.deny_reason == DenyReason::kOriginDown;
  }
  const double share = static_cast<double>(origin_down) /
                       static_cast<double>(cluster.outcomes().size());
  EXPECT_LT(share, 0.06) << origin_down << " of " << cluster.outcomes().size();
}

TEST(Chaos, OverlappingDownHoldsKeepASiteDownUntilTheLastEnds) {
  // A crash-on-commit window and the coordinator's own background failure
  // can overlap; whichever recovery comes first, the site stays down
  // until the other one has ended too.
  std::string text =
      "seed 7\nhorizon 1000\nquorum 13 13\nsites 25\nring\nchords 4\n"
      "at 0 reliability 0.96\n";
  for (int t = 10; t < 1000; t += 10) {
    text += "at " + std::to_string(t) + " crash-on-commit any for 20\n";
  }
  std::istringstream in(text);
  const fault::ChaosSpec spec = fault::load_chaos(in);
  const net::Topology& topo = spec.system->topology;
  struct Window {
    double start = 0.0;
    double end = 0.0;
    net::SiteId site = 0;
  };
  std::vector<Window> windows;
  {
    Cluster cluster(topo, msg::chaos_params(spec), spec.seed);
    fault::FaultInjector injector(spec.plan, spec.seed);
    fault::EventLog log;
    cluster.attach_injector(&injector);
    cluster.attach_log(&log);
    cluster.run_until(spec.horizon);
    for (const std::string& line : log.lines()) {
      Window w;
      unsigned site = 0;
      unsigned long long id = 0;
      double down_for = 0.0;
      if (std::sscanf(line.c_str(), "t=%lf crash-on-commit coord=%u id=%llu down_for=%lf",
                      &w.start, &site, &id, &down_for) != 4) {
        continue;
      }
      w.site = site;
      w.end = w.start + down_for;
      windows.push_back(w);
    }
    ASSERT_GT(windows.size(), 50u);
    // The log prints times to 1e-6: a window's own crash decides the
    // coordinator's pending accesses at its first instant.
    std::uint64_t inside = 0;
    for (const Window& w : windows) {
      for (const AccessOutcome& o : cluster.outcomes()) {
        inside += o.origin == w.site && o.decide_time > w.start + 1e-5 &&
                  o.decide_time < w.end - 1e-5 &&
                  o.deny_reason != DenyReason::kOriginDown;
      }
    }
    EXPECT_EQ(inside, 0u) << "accesses decided by a coordinator inside its "
                             "crash-on-commit window";
  }
  // The same run again, stopped just after each window ends: a
  // coordinator whose background repair is still pending stays down.
  Cluster cluster(topo, msg::chaos_params(spec), spec.seed);
  fault::FaultInjector injector(spec.plan, spec.seed);
  cluster.attach_injector(&injector);
  std::uint64_t held = 0;
  for (const Window& w : windows) {
    cluster.run_until(w.end + 1e-5);
    held += !cluster.network().is_site_up(w.site);
  }
  EXPECT_GT(held, 0u) << "no window ended inside a background failure";
}

TEST(Chaos, HeldVictimsCascadeNothing) {
  // held_victims.chaos takes a failed site's whole rack down (probability
  // 1) under the live background process. A victim's own background
  // failure often fires while the victim is held down; a site already
  // down neither cleans up nor cascades, so no victim inside its window
  // causes another cascade. The plan scripts no recovery, so no window
  // ends early.
  std::ifstream in(QUORA_EXAMPLES_DIR "/chaos/held_victims.chaos");
  ASSERT_TRUE(in) << "cannot open held_victims.chaos";
  const fault::ChaosSpec spec = fault::load_chaos(in);
  Cluster cluster(spec.system->topology, msg::chaos_params(spec), spec.seed);
  fault::FaultInjector injector(spec.plan, spec.seed);
  fault::EventLog log;
  cluster.attach_injector(&injector);
  cluster.attach_log(&log);
  cluster.run_until(spec.horizon);

  std::map<unsigned, double> held_until;  // victim -> end of its window
  std::uint64_t cascades = 0;
  for (const std::string& line : log.lines()) {
    double t = 0.0;
    unsigned victim = 0;
    unsigned with = 0;
    double down_for = 0.0;
    if (std::sscanf(line.c_str(), "t=%lf fault correlated site=%u with=%u down_for=%lf",
                    &t, &victim, &with, &down_for) != 4) {
      continue;
    }
    ++cascades;
    const auto held = held_until.find(with);
    if (held != held_until.end() && t < held->second) {
      ADD_FAILURE() << "held victim " << with << " cascaded: " << line;
    }
    held_until[victim] = t + down_for;
  }
  EXPECT_GT(cascades, 20u);
}

TEST(Chaos, LongEventLogLinesAreKeptWhole) {
  // Domain paths have no length limit, so neither has a log line.
  net::Topology topo = net::make_ring(4);
  const std::string path(150, 'r');
  topo.set_domain(1, path);
  topo.set_domain(2, path);
  fault::FaultPlan plan;
  plan.domain_down(10.0, path);
  const ChaosRun run = run_chaos(topo, chaos_params(3, 3), plan, 5, 20.0);
  const std::vector<std::string>& lines = run.log.lines();
  const auto line = std::find_if(lines.begin(), lines.end(), [](const std::string& l) {
    return l.find("fault domain-down") != std::string::npos;
  });
  ASSERT_NE(line, lines.end());
  EXPECT_EQ(*line, "t=10.000000 fault domain-down " + path + " sites=2");
}

TEST(Chaos, RetryExhaustionAbandonsWithinTheAccessBudget) {
  const net::Topology topo = net::make_ring(5);
  fault::FaultPlan plan;
  plan.drop(0.0, 200.0, 1.0);  // the network eats every message

  Cluster::Params params = chaos_params(3, 3);
  params.phase_timeout = 0.5;
  params.max_retries = 3;
  params.backoff_base = 0.1;
  params.backoff_jitter = 0.0;
  params.access_budget = 10.0;
  const ChaosRun run = run_chaos(topo, params, plan, 11, 60.0);

  ASSERT_FALSE(run.outcomes.empty());
  std::uint64_t attempts = 0;
  for (const AccessOutcome& o : run.outcomes) {
    EXPECT_FALSE(o.granted);
    EXPECT_LE(o.attempts, params.max_retries);
    // Abandonment is strictly the end of a retry schedule; an access can
    // also die earlier on a provable lease conflict (kNoQuorum), even on
    // its final attempt.
    if (o.deny_reason == DenyReason::kAbandoned) {
      EXPECT_GT(o.attempts, 0u);
    }
    attempts += o.attempts;
  }
  EXPECT_GT(count_reason(run, DenyReason::kAbandoned), 0u);
  // Accesses still pending at the horizon hold the remaining retries.
  EXPECT_GE(run.retries, attempts);

  // A tight wall-clock budget cuts the retry schedule short: same chaos,
  // same seed, fewer retries, and every decision lands inside the budget
  // plus one trailing phase window.
  params.access_budget = 1.0;
  const ChaosRun tight = run_chaos(topo, params, plan, 11, 60.0);
  ASSERT_FALSE(tight.outcomes.empty());
  EXPECT_LT(tight.retries, run.retries);
  const double slack = params.access_budget + params.phase_timeout;
  for (const AccessOutcome& o : tight.outcomes) {
    EXPECT_FALSE(o.granted);
    EXPECT_LE(o.decide_time - o.submit_time, slack + 1e-9)
        << "submitted " << o.submit_time;
  }
}

TEST(Chaos, LinkLatencyClassesStretchDecidedLatency) {
  const net::Topology fast = net::make_ring_with_chords(10, 2);
  net::Topology slow = net::make_ring_with_chords(10, 2);
  for (net::LinkId l = 0; l < slow.link_count(); ++l) {
    slow.set_link_latency(l, net::LinkLatency{0.05, 0.001});
  }

  const Cluster::Params params = chaos_params(4, 7);
  const fault::FaultPlan empty;
  const ChaosRun f = run_chaos(fast, params, empty, 3, 60.0);
  const ChaosRun s = run_chaos(slow, params, empty, 3, 60.0);

  const auto mean_latency = [](const ChaosRun& run) {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const AccessOutcome& o : run.outcomes) {
      if (!o.granted) continue;
      sum += o.decide_time - o.submit_time;
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  const double fast_mean = mean_latency(f);
  const double slow_mean = mean_latency(s);
  ASSERT_GT(fast_mean, 0.0);
  // Every hop now pays a 50 ms floor instead of a 5 ms mean draw; two
  // round-trip phases push the decided latency well past the fast run.
  EXPECT_GT(slow_mean, fast_mean + 0.04)
      << "fast=" << fast_mean << " slow=" << slow_mean;
  EXPECT_TRUE(f.safety.ok());
  EXPECT_TRUE(s.safety.ok());
}

} // namespace
} // namespace quora::msg
