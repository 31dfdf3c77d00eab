// The dynamic-protocol survey the paper's related-work section sketches
// (§1, §2), run head-to-head on one event stream in a failure-heavy
// regime: adapt the QUORUMS (QR + estimator agent, this paper), adapt the
// ELECTORATE (Jajodia-Mutchler dynamic voting, refs [12,13]), or adapt
// the VOTES (Barbara/Garcia-Molina/Spauster overthrow, refs [4,5]) —
// against the static majority and read-one/write-all baselines.
//
// Reads and writes are distinguished only by the quorum-based protocols;
// dynamic voting and vote reassignment treat every access as an update
// (their published setting), which is exactly the gap §5.5 highlights.

#include <iostream>
#include <vector>

#include "adapt/access_loop.hpp"
#include "common.hpp"
#include "core/reassign.hpp"
#include "dyn/dynamic_votes.hpp"
#include "dyn/dynamic_voting.hpp"
#include "metrics/collectors.hpp"
#include "net/builders.hpp"
#include "quorum/protocols.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"

namespace {

using quora::metrics::ProtocolMeter;
using quora::report::TextTable;

/// Attempts an overthrow install after every failure/recovery — the
/// eager reassignment policy of the vote-reassignment references.
class OverthrowAgent : public quora::sim::NetworkObserver {
public:
  explicit OverthrowAgent(quora::dyn::DynamicVotes& dv) : dv_(&dv) {}

  void on_network_change(const quora::sim::Simulator& sim, quora::sim::EventKind,
                         std::uint32_t index) override {
    // Reassign from some up site; the event's component is the natural
    // trigger point, but any majority-holding component may act.
    const auto origin = static_cast<quora::net::SiteId>(
        index % sim.topology().site_count());
    if (!sim.network().is_site_up(origin)) return;
    installs_ += dv_->try_install(sim.tracker(), origin,
                                  dv_->overthrow_votes(sim.tracker(), origin));
  }

  std::uint64_t installs() const noexcept { return installs_; }

private:
  quora::dyn::DynamicVotes* dv_;
  std::uint64_t installs_ = 0;
};

} // namespace

int main(int argc, char** argv) {
  const quora::bench::RunScale scale = quora::bench::parse_args(argc, argv);
  const quora::net::Topology topo = quora::net::make_ring_with_chords(101, 16);
  const quora::net::Vote total = topo.total_votes();

  quora::sim::SimConfig config = quora::bench::to_config(scale);
  config.reliability = 0.90;  // failure-heavy: where dynamic protocols earn
                              // their complexity

  const quora::quorum::QuorumConsensus majority(topo,
                                                quora::quorum::majority(total));
  const quora::quorum::QuorumConsensus rowa(
      topo, quora::quorum::read_one_write_all(total));
  quora::core::QuorumReassignment qr(topo, quora::quorum::majority(total));
  quora::dyn::DynamicVoting jm(topo);
  quora::dyn::DynamicVotes votes(topo);

  ProtocolMeter m_majority(quora::metrics::static_decider(majority));
  ProtocolMeter m_rowa(quora::metrics::static_decider(rowa));
  std::uint64_t stale_grants = 0;
  ProtocolMeter m_qr(quora::metrics::qr_decider(qr, stale_grants));
  ProtocolMeter m_jm([&](const quora::sim::Simulator& sim,
                         const quora::sim::AccessEvent& ev) {
    return jm.attempt_update(sim.tracker(), ev.site);
  });
  ProtocolMeter m_votes([&](const quora::sim::Simulator& sim,
                            const quora::sim::AccessEvent& ev) {
    return votes.request(sim.tracker(), ev.site).granted;
  });

  quora::adapt::AdaptiveController controller(
      topo.site_count(), total, quora::bench::access_loop_options(config, 0.15));
  quora::adapt::AccessLoop qr_agent(topo, controller, qr);
  OverthrowAgent vote_agent(votes);

  quora::sim::AccessSpec spec;
  spec.alpha = 0.6;
  quora::sim::Simulator sim(topo, config, spec, scale.seed);
  sim.run_accesses(config.warmup_accesses);
  sim.add_access_observer(&m_majority);
  sim.add_access_observer(&m_rowa);
  sim.add_access_observer(&m_qr);
  sim.add_access_observer(&m_jm);
  sim.add_access_observer(&m_votes);
  sim.add_access_observer(&qr_agent);
  sim.add_network_observer(&vote_agent);
  sim.run_accesses(config.accesses_per_batch * 2);

  std::cout << "== Dynamic-protocol survey (topology-16, reliability .90, "
               "alpha=.6) ==\n\n";
  TextTable table({"protocol", "adapts", "availability", "A(read)", "A(write)",
                   "adaptations"});
  const auto row = [&](const char* name, const char* adapts,
                       const ProtocolMeter& m, const std::string& adaptations) {
    table.add_row({name, adapts, TextTable::fmt(m.availability(), 4),
                   TextTable::fmt(m.read_availability(), 4),
                   TextTable::fmt(m.write_availability(), 4), adaptations});
  };
  row("static majority", "-", m_majority, "-");
  row("read-one/write-all", "-", m_rowa, "-");
  row("QR + estimator (this paper)", "quorums", m_qr,
      std::to_string(qr_agent.installs()));
  row("dynamic voting (refs 12,13)", "electorate", m_jm,
      std::to_string(jm.committed_updates()) + " commits");
  row("vote reassignment (refs 4,5)", "votes", m_votes,
      std::to_string(vote_agent.installs()));
  table.print(std::cout);

  std::cout << "\nQR safety violations (accesses granted under a stale "
               "assignment): "
            << stale_grants << " (must be 0)\n"
            << "\n(All protocols observe the same failures and the same "
               "access stream. ROWA\ntops raw availability at this read "
               "rate by abandoning writes entirely; the QR\nagent lands "
               "between ROWA and majority, trading read availability for a\n"
               "nonzero write rate — its 15% floor is enforced on the "
               "*estimated* curve, and\nin this harsh regime the estimate "
               "overshoots the realized write rate. The\nelectorate/vote "
               "adapters keep writes healthiest but cannot relax reads\n"
               "separately at all — the read-write distinction this paper "
               "is about.)\n";
  return stale_grants == 0 ? 0 : 1;
}
