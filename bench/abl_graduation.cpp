// Policy ablation for dynamic reassignment: the estimator-driven
// adapt::AccessLoop (paper §4.3: re-run Figure 1 on-line) versus the
// demand-driven LadderAgent (our concrete instantiation of Herlihy-style
// quorum graduation, which the paper reviews but finds unspecified and
// unevaluated). Both act through the same QR protocol on the same event
// stream; only the decision policy differs. The QR safety invariant (no
// access granted under a superseded assignment) is checked on every
// access of both.

#include <iostream>
#include <vector>

#include "adapt/access_loop.hpp"
#include "common.hpp"
#include "core/reassign.hpp"
#include "dyn/ladder.hpp"
#include "metrics/collectors.hpp"
#include "net/builders.hpp"
#include "quorum/quorum_spec.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"

namespace {

using quora::metrics::ProtocolMeter;
using quora::report::TextTable;

} // namespace

int main(int argc, char** argv) {
  const quora::bench::RunScale scale = quora::bench::parse_args(argc, argv);
  const quora::net::Topology topo = quora::net::make_ring_with_chords(101, 4);
  const quora::net::Vote total = topo.total_votes();
  quora::sim::SimConfig config = quora::bench::to_config(scale);

  quora::core::QuorumReassignment qr_est(topo, quora::quorum::majority(total));
  quora::core::QuorumReassignment qr_lad(topo, quora::quorum::majority(total));
  std::uint64_t stale_grants = 0;
  ProtocolMeter m_est(quora::metrics::qr_decider(qr_est, stale_grants));
  ProtocolMeter m_lad(quora::metrics::qr_decider(qr_lad, stale_grants));

  // The DYNQ bench's QR+floor agent.
  quora::adapt::AdaptiveController controller(
      topo.site_count(), total, quora::bench::access_loop_options(config, 0.20));
  quora::adapt::AccessLoop estimator(topo, controller, qr_est);
  quora::dyn::LadderAgent ladder(topo, qr_lad);

  quora::sim::AccessSpec spec;
  spec.alpha = 0.9;
  quora::sim::Simulator sim(topo, config, spec, scale.seed);
  sim.run_accesses(config.warmup_accesses);
  sim.add_access_observer(&m_est);
  sim.add_access_observer(&m_lad);
  sim.add_access_observer(&estimator);
  sim.add_access_observer(&ladder);

  std::cout << "== Reassignment policy ablation: estimator vs graduation ==\n"
            << "topology-4, alternating alpha {.9, .1}, phases of "
            << config.accesses_per_batch << " accesses\n\n";

  TextTable table({"phase", "alpha", "estimator-driven", "demand-driven",
                   "installs est", "graduations"});
  const std::vector<double> phase_alphas{0.9, 0.1, 0.9, 0.1};
  std::uint64_t est_g0 = 0;
  std::uint64_t lad_g0 = 0;
  std::uint64_t est_c0 = 0;
  std::uint64_t lad_c0 = 0;
  for (std::size_t ph = 0; ph < phase_alphas.size(); ++ph) {
    sim.set_access_alpha(phase_alphas[ph]);
    sim.run_accesses(config.accesses_per_batch);
    const std::uint64_t est_granted =
        m_est.reads_granted() + m_est.writes_granted();
    const std::uint64_t lad_granted =
        m_lad.reads_granted() + m_lad.writes_granted();
    const double est_avail = static_cast<double>(est_granted - est_c0) /
                             static_cast<double>(config.accesses_per_batch);
    const double lad_avail = static_cast<double>(lad_granted - lad_c0) /
                             static_cast<double>(config.accesses_per_batch);
    table.add_row({std::to_string(ph + 1), TextTable::fmt(phase_alphas[ph], 1),
                   TextTable::fmt(est_avail, 4), TextTable::fmt(lad_avail, 4),
                   std::to_string(estimator.installs() - est_g0),
                   std::to_string(ladder.graduations() - lad_g0)});
    est_c0 = est_granted;
    lad_c0 = lad_granted;
    est_g0 = estimator.installs();
    lad_g0 = ladder.graduations();
  }
  table.add_separator();
  table.add_row({"all", "mix", TextTable::fmt(m_est.availability(), 4),
                 TextTable::fmt(m_lad.availability(), 4),
                 std::to_string(estimator.installs()),
                 std::to_string(ladder.graduations())});
  table.print(std::cout);

  std::cout << "\nladder denial totals: reads " << ladder.read_denials()
            << ", writes " << ladder.write_denials()
            << "\nQR safety violations (accesses granted under a stale "
               "assignment): "
            << stale_grants << " (must be 0)"
            << "\n(The estimator anticipates from the component-size "
               "distribution; graduation\nonly reacts to observed denials, "
               "so it trails at phase boundaries but needs\nno distribution "
               "estimate at all.)\n";
  return stale_grants == 0 ? 0 : 1;
}
