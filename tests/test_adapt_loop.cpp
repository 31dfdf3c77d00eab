// Tests for adapt::AccessLoop, the adaptive loop at the access level:
// alpha estimation from the access stream, installs through QR
// toward the estimated optimum, the §5.4 write floor, the warm-up gate,
// and §2.2 safety plus run-to-run determinism on a shifting workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "adapt/access_loop.hpp"
#include "adapt/controller.hpp"
#include "core/reassign.hpp"
#include "net/builders.hpp"
#include "quorum/quorum_spec.hpp"
#include "sim/simulator.hpp"

namespace quora::adapt {
namespace {

/// The bench agents' settings: ~2000-access epochs on 101 sites, install
/// on the first epoch whose predicted gain clears 1%, half the evidence
/// forgotten per epoch.
AdaptiveController::Options bench_options() {
  AdaptiveController::Options opts;
  opts.epoch_length = 20.0;
  opts.threshold = 0.01;
  opts.dwell = 1;
  opts.forget = 0.5;
  return opts;
}

AdaptiveController::Options write_floor_options(double floor) {
  AdaptiveController::Options opts = bench_options();
  opts.objective = AdaptiveController::Objective::kWriteConstrained;
  opts.min_write_availability = floor;
  return opts;
}

TEST(AccessLoop, EstimatesAlphaFromTheStream) {
  const net::Topology topo = net::make_ring(15);
  core::QuorumReassignment qr(topo, quorum::majority(15));
  AdaptiveController controller(topo.site_count(), topo.total_votes(),
                                write_floor_options(0.05));
  AccessLoop agent(topo, controller, qr);

  sim::AccessSpec spec;
  spec.alpha = 0.8;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 31);
  sim.add_access_observer(&agent);
  sim.run_accesses(20'000);
  EXPECT_NEAR(agent.estimated_alpha(), 0.8, 0.05);
}

TEST(AccessLoop, TracksAlphaShifts) {
  const net::Topology topo = net::make_ring(15);
  core::QuorumReassignment qr(topo, quorum::majority(15));
  AdaptiveController controller(topo.site_count(), topo.total_votes(),
                                write_floor_options(0.05));
  AccessLoop agent(topo, controller, qr);

  sim::AccessSpec spec;
  spec.alpha = 0.9;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 32);
  sim.add_access_observer(&agent);
  sim.run_accesses(30'000);
  EXPECT_GT(agent.estimated_alpha(), 0.8);
  sim.set_access_alpha(0.1);
  sim.run_accesses(30'000);
  // Exponential decay must have pulled the estimate down near 0.1.
  EXPECT_LT(agent.estimated_alpha(), 0.2);
}

TEST(AccessLoop, InstallsTowardReadOptimumOnReadHeavyStream) {
  const net::Topology topo = net::make_ring(25);
  core::QuorumReassignment qr(topo, quorum::majority(25));
  // Unconstrained — clearest signal.
  AdaptiveController controller(topo.site_count(), topo.total_votes(),
                                bench_options());
  AccessLoop agent(topo, controller, qr);

  sim::AccessSpec spec;
  spec.alpha = 0.95;  // reads dominate: ring optimum is tiny q_r
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 33);
  sim.add_access_observer(&agent);
  sim.run_accesses(60'000);

  EXPECT_GT(agent.installs(), 0u);
  const auto eff = qr.effective(sim.tracker(), 0);
  EXPECT_LT(eff.spec.q_r, 13u);  // moved below the initial majority
  EXPECT_GT(eff.version, 1u);
}

TEST(AccessLoop, RespectsWriteFloorInItsInstalls) {
  const net::Topology topo = net::make_ring_with_chords(25, 4);
  core::QuorumReassignment qr(topo, quorum::majority(25));
  AdaptiveController controller(topo.site_count(), topo.total_votes(),
                                write_floor_options(0.30));
  AccessLoop agent(topo, controller, qr);

  sim::AccessSpec spec;
  spec.alpha = 0.95;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 34);
  sim.add_access_observer(&agent);
  sim.run_accesses(60'000);

  // Whatever it installed, it must never have installed read-one/
  // write-all (whose write availability on this network is ~0).
  const auto eff = qr.effective(sim.tracker(), 0);
  EXPECT_GT(eff.spec.q_r, 1u);
}

TEST(AccessLoop, NoInstallsBeforeMinSamples) {
  const net::Topology topo = net::make_ring(15);
  core::QuorumReassignment qr(topo, quorum::majority(15));
  AdaptiveController::Options options = write_floor_options(0.05);
  options.min_samples = 1'000'000;  // unreachable in this run
  AdaptiveController controller(topo.site_count(), topo.total_votes(), options);
  AccessLoop agent(topo, controller, qr);

  sim::AccessSpec spec;
  spec.alpha = 0.95;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 35);
  sim.add_access_observer(&agent);
  sim.run_accesses(30'000);
  EXPECT_EQ(agent.installs(), 0u);
  EXPECT_EQ(qr.latest_version(), 1u);
}

TEST(AccessLoop, RejectsControllerSizedForAnotherSystem) {
  const net::Topology topo = net::make_ring(15);
  core::QuorumReassignment qr(topo, quorum::majority(15));
  AdaptiveController controller(16, 16, bench_options());
  EXPECT_THROW(AccessLoop(topo, controller, qr), std::invalid_argument);
}

/// One install as seen from outside the loop: when QR's latest version
/// moves, the assignment now in effect at the lowest up site (the
/// install origin) is the one installed.
struct InstallRecord {
  double time = 0.0;
  std::uint64_t version = 0;
  quorum::QuorumSpec spec{};
  bool operator==(const InstallRecord&) const = default;
};

/// Registered after the loop: audits every grant against §2.2 (the
/// effective version must be the latest one) and logs installs.
class SafetyAudit : public sim::AccessObserver {
public:
  explicit SafetyAudit(const core::QuorumReassignment& qr) : qr_(&qr) {}

  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override {
    const auto type =
        ev.is_read ? quorum::AccessType::kRead : quorum::AccessType::kWrite;
    if (qr_->request(sim.tracker(), ev.site, type).granted) {
      ++grants;
      if (qr_->effective(sim.tracker(), ev.site).version != qr_->latest_version()) {
        ++stale_grants;
      }
    }
    if (qr_->latest_version() != last_version_) {
      last_version_ = qr_->latest_version();
      const net::SiteId origin = *sim.network().first_up_site();
      installs.push_back(InstallRecord{
          ev.time, last_version_, qr_->effective(sim.tracker(), origin).spec});
    }
  }

  std::uint64_t grants = 0;
  std::uint64_t stale_grants = 0;
  std::vector<InstallRecord> installs;

private:
  const core::QuorumReassignment* qr_;
  std::uint64_t last_version_ = 1;
};

/// Alternating read-heavy/write-heavy phases (fixed seed) under a QR+floor
/// loop; returns the audit.
SafetyAudit run_alternating_phases(const net::Topology& topo,
                                   core::QuorumReassignment& qr) {
  AdaptiveController controller(topo.site_count(), topo.total_votes(),
                                write_floor_options(0.20));
  AccessLoop agent(topo, controller, qr);
  SafetyAudit audit(qr);

  sim::AccessSpec spec;
  spec.alpha = 0.9;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 36);
  sim.add_access_observer(&agent);
  sim.add_access_observer(&audit);
  for (const double alpha : {0.9, 0.1, 0.9, 0.1}) {
    sim.set_access_alpha(alpha);
    sim.run_accesses(25'000);
  }
  return audit;
}

TEST(AccessLoop, AlternatingPhasesInstallSafelyBothWaysAndReplayExactly) {
  const net::Topology topo = net::make_ring_with_chords(25, 4);
  core::QuorumReassignment qr(topo, quorum::majority(25));
  const SafetyAudit first = run_alternating_phases(topo, qr);

  EXPECT_GT(first.grants, 0u);
  EXPECT_EQ(first.stale_grants, 0u);
  // Installs in both directions: read-heavy phases pull q_r down,
  // write-heavy phases push it back up.
  bool lowered = false;
  bool raised = false;
  quorum::QuorumSpec previous = quorum::majority(25);
  for (const InstallRecord& r : first.installs) {
    lowered = lowered || r.spec.q_r < previous.q_r;
    raised = raised || r.spec.q_r > previous.q_r;
    previous = r.spec;
  }
  EXPECT_TRUE(lowered);
  EXPECT_TRUE(raised);

  core::QuorumReassignment replay_qr(topo, quorum::majority(25));
  const SafetyAudit second = run_alternating_phases(topo, replay_qr);
  EXPECT_EQ(second.installs, first.installs);
}

} // namespace
} // namespace quora::adapt
