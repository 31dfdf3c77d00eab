// Tests for the discrete-event simulator: configuration algebra,
// determinism, stationary statistics matching the paper's model, failure
// profiles, observers, and the parallel batch helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <set>
#include <vector>

#include "net/builders.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"

namespace quora::sim {
namespace {

TEST(SimConfig, PaperDefaults) {
  const SimConfig config;
  EXPECT_DOUBLE_EQ(config.mu_access, 1.0);
  EXPECT_DOUBLE_EQ(config.mu_fail(), 128.0);
  // reliability = mu_f / (mu_f + mu_r) must give exactly 0.96.
  EXPECT_NEAR(config.mu_fail() / (config.mu_fail() + config.mu_repair()), 0.96,
              1e-12);
  EXPECT_EQ(config.warmup_accesses, 100'000u);
  EXPECT_EQ(config.accesses_per_batch, 1'000'000u);
}

TEST(SimConfig, Validation) {
  SimConfig config;
  config.mu_access = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SimConfig{};
  config.rho = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SimConfig{};
  config.reliability = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(AccessSpec, Validation) {
  AccessSpec spec;
  spec.alpha = 1.5;
  EXPECT_THROW(spec.validate(5), std::invalid_argument);
  spec = AccessSpec{};
  spec.read_weights = {1.0, 2.0};
  EXPECT_THROW(spec.validate(5), std::invalid_argument);
  spec.read_weights.resize(5, 1.0);
  EXPECT_NO_THROW(spec.validate(5));
}

TEST(FailureProfile, Validation) {
  FailureProfile profile;
  EXPECT_NO_THROW(profile.validate(3, 3));
  profile.site_mu_fail = {1.0, 2.0, 3.0};
  EXPECT_THROW(profile.validate(3, 3), std::invalid_argument);  // missing repair
  profile.site_mu_repair = {1.0, 1.0};
  EXPECT_THROW(profile.validate(3, 3), std::invalid_argument);  // size mismatch
  profile.site_mu_repair = {1.0, 1.0, 1.0};
  EXPECT_NO_THROW(profile.validate(3, 3));
  profile.site_mu_fail[1] = 0.0;
  EXPECT_THROW(profile.validate(3, 3), std::invalid_argument);
}

TEST(FailureProfile, FromReliabilities) {
  const SimConfig config;
  const auto profile = FailureProfile::from_reliabilities(
      config, {0.96, 1.0}, {0.5});
  ASSERT_EQ(profile.site_mu_fail.size(), 2u);
  // reliability .96 with the config's repair scale reproduces mu_fail = 128.
  EXPECT_NEAR(profile.site_mu_fail[0], config.mu_fail(), 1e-9);
  EXPECT_TRUE(std::isinf(profile.site_mu_fail[1]));  // never fails
  EXPECT_NEAR(profile.link_mu_fail[0], config.mu_repair(), 1e-9);  // 50/50
  EXPECT_THROW(FailureProfile::from_reliabilities(config, {0.0}, {}),
               std::invalid_argument);
}

class CountingObserver : public AccessObserver {
public:
  void on_access(const Simulator& sim, const AccessEvent& ev) override {
    ++count;
    reads += ev.is_read ? 1 : 0;
    sites.insert(ev.site);
    last_time = ev.time;
    up_votes += sim.tracker().component_votes(ev.site);
  }
  std::uint64_t count = 0;
  std::uint64_t reads = 0;
  std::uint64_t up_votes = 0;
  double last_time = 0.0;
  std::set<net::SiteId> sites;
};

TEST(Simulator, RunsExactlyTheRequestedAccesses) {
  const net::Topology topo = net::make_ring(10);
  Simulator sim(topo, SimConfig{}, AccessSpec{}, 1);
  CountingObserver obs;
  sim.add_access_observer(&obs);
  sim.run_accesses(500);
  EXPECT_EQ(obs.count, 500u);
  EXPECT_EQ(sim.counters().accesses, 500u);
}

TEST(Simulator, DeterministicPerSeedAndStream) {
  const net::Topology topo = net::make_ring_with_chords(20, 3);
  const auto run = [&](std::uint64_t seed, std::uint64_t stream) {
    Simulator sim(topo, SimConfig{}, AccessSpec{}, seed, stream);
    sim.run_accesses(5'000);
    return std::tuple{sim.now(), sim.counters().site_failures,
                      sim.counters().link_failures,
                      sim.counters().site_recoveries};
  };
  EXPECT_EQ(run(7, 0), run(7, 0));
  EXPECT_NE(run(7, 0), run(7, 1));
  EXPECT_NE(run(7, 0), run(8, 0));
}

TEST(Simulator, AccessRateMatchesModel) {
  // n sites each submitting at rate 1/mu_access => system rate n, so N
  // accesses take ~N/n time units.
  const net::Topology topo = net::make_ring(25);
  Simulator sim(topo, SimConfig{}, AccessSpec{}, 3);
  sim.run_accesses(50'000);
  EXPECT_NEAR(sim.now(), 50'000.0 / 25.0, 50'000.0 / 25.0 * 0.05);
}

TEST(Simulator, AlphaControlsReadFraction) {
  const net::Topology topo = net::make_ring(10);
  AccessSpec spec;
  spec.alpha = 0.25;
  Simulator sim(topo, SimConfig{}, spec, 5);
  CountingObserver obs;
  sim.add_access_observer(&obs);
  sim.run_accesses(40'000);
  EXPECT_NEAR(static_cast<double>(obs.reads) / static_cast<double>(obs.count), 0.25,
              0.01);
}

TEST(Simulator, SetAccessAlphaTakesEffect) {
  const net::Topology topo = net::make_ring(10);
  AccessSpec spec;
  spec.alpha = 0.0;
  Simulator sim(topo, SimConfig{}, spec, 5);
  CountingObserver obs;
  sim.add_access_observer(&obs);
  sim.run_accesses(1'000);
  EXPECT_EQ(obs.reads, 0u);
  sim.set_access_alpha(1.0);
  sim.run_accesses(1'000);
  EXPECT_EQ(obs.reads, 1'000u);
  EXPECT_THROW(sim.set_access_alpha(-0.1), std::invalid_argument);
}

TEST(Simulator, UniformAccessTouchesEverySite) {
  const net::Topology topo = net::make_ring(15);
  Simulator sim(topo, SimConfig{}, AccessSpec{}, 6);
  CountingObserver obs;
  sim.add_access_observer(&obs);
  sim.run_accesses(5'000);
  EXPECT_EQ(obs.sites.size(), 15u);
}

TEST(Simulator, WeightedAccessRespectsWeights) {
  const net::Topology topo = net::make_ring(4);
  AccessSpec spec;
  spec.alpha = 1.0;  // reads only — exercises read_weights
  spec.read_weights = {0.0, 0.0, 1.0, 0.0};
  Simulator sim(topo, SimConfig{}, spec, 6);
  CountingObserver obs;
  sim.add_access_observer(&obs);
  sim.run_accesses(2'000);
  EXPECT_EQ(obs.sites.size(), 1u);
  EXPECT_TRUE(obs.sites.contains(2));
}

TEST(Simulator, StationarySiteReliabilityIsNinetySix) {
  // PASTA: accesses sample the stationary distribution, so the fraction
  // of accesses finding their submitting site up (component_votes > 0)
  // estimates per-site availability — 0.96 in the paper's model.
  class UpCounter : public AccessObserver {
  public:
    void on_access(const Simulator& sim, const AccessEvent& ev) override {
      ++total;
      if (sim.tracker().component_votes(ev.site) > 0) ++up_count;
    }
    std::uint64_t total = 0;
    std::uint64_t up_count = 0;
  } counter;

  const net::Topology topo = net::make_ring(10);
  Simulator sim(topo, SimConfig{}, AccessSpec{}, 11);
  sim.run_accesses(20'000);  // warm up past the all-up initial state
  sim.add_access_observer(&counter);
  sim.run_accesses(200'000);
  EXPECT_NEAR(
      static_cast<double>(counter.up_count) / static_cast<double>(counter.total),
      0.96, 0.01);
}

TEST(Simulator, FailuresBalanceRecoveries) {
  const net::Topology topo = net::make_ring(10);
  Simulator sim(topo, SimConfig{}, AccessSpec{}, 13);
  sim.run_accesses(100'000);
  const auto& c = sim.counters();
  EXPECT_GT(c.site_failures, 0u);
  EXPECT_GT(c.link_failures, 0u);
  // Each recovery follows a failure; counts differ by at most the number
  // of currently-down components.
  EXPECT_LE(c.site_failures - c.site_recoveries, 10u);
  EXPECT_LE(c.link_failures - c.link_recoveries, 10u);
}

TEST(Simulator, InfiniteMuFailNeverFails) {
  const net::Topology topo = net::make_star(6, 0);
  SimConfig config;
  // Hub fails often; leaves and links never.
  std::vector<double> site_rel(6, 1.0);
  site_rel[0] = 0.5;
  const std::vector<double> link_rel(topo.link_count(), 1.0);
  const auto profile = FailureProfile::from_reliabilities(config, site_rel, link_rel);
  Simulator sim(topo, config, AccessSpec{}, profile, 17);
  sim.run_accesses(50'000);
  EXPECT_GT(sim.counters().site_failures, 0u);
  EXPECT_EQ(sim.counters().link_failures, 0u);
  // All failures were the hub's.
  for (net::SiteId s = 1; s < 6; ++s) EXPECT_TRUE(sim.network().is_site_up(s));
}

TEST(Simulator, NetworkObserverSeesEveryChange) {
  class ChangeCounter : public NetworkObserver {
  public:
    void on_network_change(const Simulator&, EventKind kind, std::uint32_t) override {
      ++counts[static_cast<int>(kind)];
    }
    std::array<std::uint64_t, 5> counts{};
  };
  const net::Topology topo = net::make_ring(8);
  Simulator sim(topo, SimConfig{}, AccessSpec{}, 19);
  ChangeCounter counter;
  sim.add_network_observer(&counter);
  sim.run_accesses(50'000);
  const auto& c = sim.counters();
  EXPECT_EQ(counter.counts[static_cast<int>(EventKind::kSiteFail)], c.site_failures);
  EXPECT_EQ(counter.counts[static_cast<int>(EventKind::kSiteRecover)],
            c.site_recoveries);
  EXPECT_EQ(counter.counts[static_cast<int>(EventKind::kLinkFail)], c.link_failures);
  EXPECT_EQ(counter.counts[static_cast<int>(EventKind::kLinkRecover)],
            c.link_recoveries);
}

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue<Event> queue;
  queue.push({2.0, 0, EventKind::kAccess, 0});
  queue.push({1.0, 0, EventKind::kSiteFail, 1});
  queue.push({1.0, 0, EventKind::kLinkFail, 2});  // same time, later insertion
  const Event a = queue.pop();
  const Event b = queue.pop();
  const Event c = queue.pop();
  EXPECT_EQ(a.kind, EventKind::kSiteFail);
  EXPECT_EQ(b.kind, EventKind::kLinkFail);
  EXPECT_EQ(c.kind, EventKind::kAccess);
  EXPECT_TRUE(queue.empty());
}

TEST(ForEachBatch, RunsEveryIndexOnce) {
  std::mutex mu;
  std::vector<std::uint32_t> seen;
  for_each_batch(17, 4, [&](std::uint32_t b) {
    const std::scoped_lock lock(mu);
    seen.push_back(b);
  });
  EXPECT_EQ(seen.size(), 17u);
  std::sort(seen.begin(), seen.end());
  for (std::uint32_t i = 0; i < 17; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ForEachBatch, SerialWhenOneThread) {
  std::vector<std::uint32_t> order;
  for_each_batch(5, 1, [&](std::uint32_t b) { order.push_back(b); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(ForEachBatch, PropagatesExceptions) {
  EXPECT_THROW(
      for_each_batch(8, 4,
                     [](std::uint32_t b) {
                       if (b == 3) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
}

TEST(ForEachBatch, ZeroBatchesIsNoop) {
  bool called = false;
  for_each_batch(0, 4, [&](std::uint32_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(SimulatorStepOne, MatchesTheBatchRunEventForEvent) {
  // step_one is the same dispatch run_accesses performs per iteration, so
  // stepping N accesses by hand must land on the identical trajectory.
  const net::Topology topo = net::make_ring(5);
  Simulator batch(topo, SimConfig{}, AccessSpec{}, /*seed=*/42);
  Simulator stepped(topo, SimConfig{}, AccessSpec{}, /*seed=*/42);

  batch.run_accesses(500);
  std::uint64_t accesses = 0;
  while (accesses < 500) {
    if (stepped.step_one().kind == EventKind::kAccess) ++accesses;
  }

  EXPECT_DOUBLE_EQ(stepped.now(), batch.now());
  EXPECT_EQ(stepped.counters().accesses, batch.counters().accesses);
  EXPECT_EQ(stepped.counters().site_failures, batch.counters().site_failures);
  EXPECT_EQ(stepped.counters().link_failures, batch.counters().link_failures);
  for (net::SiteId s = 0; s < topo.site_count(); ++s) {
    EXPECT_EQ(stepped.network().is_site_up(s), batch.network().is_site_up(s));
  }
}

TEST(SimulatorStepOne, CheckpointRestoreForksTheRun) {
  // Snapshot by value + rebind: the copy continues the run identically,
  // and advancing it leaves the original untouched.
  const net::Topology topo = net::make_ring(5);
  Simulator sim(topo, SimConfig{}, AccessSpec{}, /*seed=*/7);
  sim.run_accesses(200);

  Simulator fork = sim;
  fork.rebind();
  const double paused_at = sim.now();

  Simulator reference(topo, SimConfig{}, AccessSpec{}, /*seed=*/7);
  reference.run_accesses(200);
  fork.run_accesses(300);
  reference.run_accesses(300);

  EXPECT_DOUBLE_EQ(sim.now(), paused_at);  // original undisturbed
  EXPECT_DOUBLE_EQ(fork.now(), reference.now());
  EXPECT_EQ(fork.counters().accesses, reference.counters().accesses);
  EXPECT_EQ(fork.counters().site_failures,
            reference.counters().site_failures);
  EXPECT_EQ(fork.counters().link_recoveries,
            reference.counters().link_recoveries);

  // The tracker of the fork must be watching the fork's own network:
  // component queries agree with the reference at the same instant.
  for (net::SiteId s = 0; s < topo.site_count(); ++s) {
    EXPECT_EQ(fork.tracker().component_votes(s),
              reference.tracker().component_votes(s));
  }
}

} // namespace
} // namespace quora::sim
