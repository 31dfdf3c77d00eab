// DESIGN.md DYNQ — the dynamic quorum reassignment story of §2.2/§4.3:
// under a workload whose read-rate alternates between read-heavy and
// write-heavy phases, compare
//
//   static majority        (q_r = q_w = 51, strict Thomas majority)
//   static read-one/write-all
//   static optimum for the *average* alpha (the best any off-line static
//                           assignment could do without temporal knowledge)
//   QR + adaptive agent     (on-line estimation -> Figure-1 optimizer ->
//                           version-numbered installs)
//   dynamic voting          (Jajodia-Mutchler baseline: adapts the
//                           electorate, not the quorums; no r/w distinction)
//
// All protocols are metered on the *same* event stream, so differences are
// purely protocol, not luck. The QR safety invariant (no access granted
// under a superseded assignment) is asserted on every access.

#include <iostream>
#include <vector>

#include "adapt/access_loop.hpp"
#include "common.hpp"
#include "core/optimize.hpp"
#include "core/reassign.hpp"
#include "dyn/dynamic_voting.hpp"
#include "metrics/collectors.hpp"
#include "net/builders.hpp"
#include "quorum/protocols.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"

namespace {

using quora::metrics::ProtocolMeter;
using quora::report::TextTable;

struct Snapshot {
  std::uint64_t granted = 0;
  std::uint64_t total = 0;
};

Snapshot snap(const ProtocolMeter& meter) {
  return {meter.reads_granted() + meter.writes_granted(),
          meter.reads() + meter.writes()};
}

double phase_avail(const Snapshot& now, const Snapshot& before) {
  const std::uint64_t total = now.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(now.granted - before.granted) /
                          static_cast<double>(total);
}

} // namespace

int main(int argc, char** argv) {
  const quora::bench::RunScale scale = quora::bench::parse_args(argc, argv);
  const quora::net::Topology topo = quora::net::make_ring_with_chords(101, 4);
  const quora::net::Vote total_votes = topo.total_votes();
  quora::sim::SimConfig config = quora::bench::to_config(scale);

  // Pre-measure the topology once to find the best static assignment for
  // the average alpha — the strongest static competitor.
  const double avg_alpha = 0.5;
  quora::metrics::MeasurePolicy pre_policy = quora::bench::to_policy(scale);
  pre_policy.alphas = {avg_alpha};
  pre_policy.batch.min_batches = 3;
  pre_policy.batch.max_batches = 3;
  const auto pre = quora::metrics::measure_curves(topo, config, pre_policy);
  const auto static_best =
      quora::core::optimize_exhaustive(pre.pooled_curve(), avg_alpha);

  // Protocol state.
  const quora::quorum::QuorumConsensus majority(topo,
                                                quora::quorum::majority(total_votes));
  const quora::quorum::QuorumConsensus rowa(
      topo, quora::quorum::read_one_write_all(total_votes));
  const quora::quorum::QuorumConsensus static_avg(topo, static_best.spec);
  quora::core::QuorumReassignment qr_free(topo, quora::quorum::majority(total_votes));
  quora::core::QuorumReassignment qr_safe(topo, quora::quorum::majority(total_votes));
  quora::dyn::DynamicVoting dv(topo);

  // Meters (all observing the same access stream).
  ProtocolMeter m_majority(quora::metrics::static_decider(majority));
  ProtocolMeter m_rowa(quora::metrics::static_decider(rowa));
  ProtocolMeter m_static(quora::metrics::static_decider(static_avg));
  std::uint64_t qr_safety_violations = 0;  // 2.2's safety argument: none
  ProtocolMeter m_qr_free(quora::metrics::qr_decider(qr_free, qr_safety_violations));
  ProtocolMeter m_qr_safe(quora::metrics::qr_decider(qr_safe, qr_safety_violations));
  ProtocolMeter m_dv([&](const quora::sim::Simulator& sim,
                         const quora::sim::AccessEvent& ev) {
    return dv.attempt_update(sim.tracker(), ev.site);
  });
  // The "free" agent optimizes plain availability with no write floor and
  // drifts into read-one/write-all in the read-heavy phases (installation
  // is itself a write, and q_w = T makes further installs all but
  // impossible). The "safe" agent keeps write availability >= 20% so it
  // can keep reassigning -- the very enhancement 5.4 argues for.
  quora::adapt::AdaptiveController ctl_free(
      topo.site_count(), total_votes, quora::bench::access_loop_options(config, 0.0));
  quora::adapt::AdaptiveController ctl_safe(
      topo.site_count(), total_votes, quora::bench::access_loop_options(config, 0.20));
  quora::adapt::AccessLoop agent_free(topo, ctl_free, qr_free);
  quora::adapt::AccessLoop agent_safe(topo, ctl_safe, qr_safe);

  quora::sim::AccessSpec spec;
  spec.alpha = 0.9;
  quora::sim::Simulator sim(topo, config, spec, scale.seed);
  sim.run_accesses(config.warmup_accesses);
  sim.add_access_observer(&m_majority);
  sim.add_access_observer(&m_rowa);
  sim.add_access_observer(&m_static);
  sim.add_access_observer(&m_qr_free);
  sim.add_access_observer(&m_qr_safe);
  sim.add_access_observer(&m_dv);
  sim.add_access_observer(&agent_free);  // after the meters: measure, then adapt
  sim.add_access_observer(&agent_safe);

  const std::vector<double> phase_alphas{0.9, 0.1, 0.9, 0.1};
  const std::uint64_t phase_len = config.accesses_per_batch;

  std::cout << "== Dynamic QR vs static assignments under shifting alpha ==\n"
            << "topology-4, phases of " << phase_len << " accesses, alpha = "
            << "{.9, .1, .9, .1}; static-avg assignment: q_r="
            << static_best.q_r() << " q_w=" << static_best.q_w() << "\n\n";

  TextTable table({"phase", "alpha", "majority", "ROWA", "static-avg",
                   "QR free", "QR +floor", "dyn voting", "installs free/safe"});
  std::vector<ProtocolMeter*> meters{&m_majority, &m_rowa, &m_static,
                                     &m_qr_free, &m_qr_safe, &m_dv};
  std::vector<Snapshot> before(meters.size());
  std::uint64_t free_before = 0;
  std::uint64_t safe_before = 0;

  for (std::size_t ph = 0; ph < phase_alphas.size(); ++ph) {
    sim.set_access_alpha(phase_alphas[ph]);
    sim.run_accesses(phase_len);
    std::vector<std::string> row{std::to_string(ph + 1),
                                 TextTable::fmt(phase_alphas[ph], 1)};
    for (std::size_t m = 0; m < meters.size(); ++m) {
      const Snapshot now = snap(*meters[m]);
      row.push_back(TextTable::fmt(phase_avail(now, before[m]), 4));
      before[m] = now;
    }
    row.push_back(std::to_string(agent_free.installs() - free_before) + "/" +
                  std::to_string(agent_safe.installs() - safe_before));
    free_before = agent_free.installs();
    safe_before = agent_safe.installs();
    table.add_row(std::move(row));
  }
  table.add_separator();
  {
    std::vector<std::string> row{"all", "mix"};
    for (ProtocolMeter* m : meters) row.push_back(TextTable::fmt(m->availability(), 4));
    row.push_back(std::to_string(agent_free.installs()) + "/" +
                  std::to_string(agent_safe.installs()));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nQR safety violations (accesses granted under a stale "
               "assignment): "
            << qr_safety_violations << " (must be 0)\n"
            << "dynamic-voting committed updates: " << dv.committed_updates()
            << "\n(QR+floor tracks each phase's optimum. QR with no write "
               "floor installs ROWA and is stuck there: installation is "
               "itself a write, so leaving needs every site up and connected "
               "at an epoch boundary. Any static assignment must lose in at "
               "least one phase.)\n";
  return qr_safety_violations == 0 ? 0 : 1;
}
