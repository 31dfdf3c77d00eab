// Adaptive quorum reassignment in action (§2.2 + §4.3 end to end).
//
// A 45-site network serves a workload that flips between a read-heavy day
// mix and a write-heavy night mix. An adapt::AccessLoop watches the
// access stream, re-estimates the component-size distribution and the
// read rate on-line, and installs better assignments through the
// version-numbered QR protocol whenever the predicted gain is large
// enough. The log below shows each phase's effective assignment drifting
// to that phase's optimum — and the safety counter proving no access was
// ever granted under a stale assignment (the exit status is nonzero if
// one was).

#include <iostream>

#include "adapt/access_loop.hpp"
#include "core/reassign.hpp"
#include "metrics/collectors.hpp"
#include "net/builders.hpp"
#include "quorum/quorum_spec.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"

int main() {
  using quora::report::TextTable;

  const quora::net::Topology topo = quora::net::make_ring_with_chords(45, 4);
  const quora::net::Vote total = topo.total_votes();

  quora::core::QuorumReassignment qr(topo, quora::quorum::majority(total));
  using Controller = quora::adapt::AdaptiveController;
  Controller::Options options;
  options.epoch_length = 20.0;  // ~900 accesses per epoch on 45 sites
  options.threshold = 0.01;
  options.dwell = 1;
  options.forget = 0.5;
  options.objective = Controller::Objective::kWriteConstrained;
  options.min_write_availability = 0.20;  // stay reassignable (see 5.4)
  Controller controller(topo.site_count(), total, options);
  quora::adapt::AccessLoop agent(topo, controller, qr);

  std::uint64_t stale_grants = 0;
  quora::metrics::ProtocolMeter meter(quora::metrics::qr_decider(qr, stale_grants));

  quora::sim::SimConfig config;
  config.warmup_accesses = 5'000;

  quora::sim::AccessSpec spec;
  spec.alpha = 0.9;
  quora::sim::Simulator sim(topo, config, spec, /*seed=*/2026);
  sim.run_accesses(config.warmup_accesses);
  sim.add_access_observer(&meter);
  sim.add_access_observer(&agent);

  std::cout << "network: " << topo.name() << " (T=" << total
            << "), initial assignment: strict majority q_r=q_w=" << total / 2 + 1
            << "\n\n";

  TextTable table({"phase", "alpha", "accesses", "effective q_r/q_w (end)",
                   "version", "installs so far", "est. alpha"});
  const double phase_alpha[] = {0.9, 0.1, 0.9, 0.1, 0.9};
  std::uint64_t accesses = 0;
  for (std::size_t ph = 0; ph < std::size(phase_alpha); ++ph) {
    sim.set_access_alpha(phase_alpha[ph]);
    sim.run_accesses(60'000);
    accesses += 60'000;
    const auto eff = qr.effective(sim.tracker(), /*origin=*/0);
    table.add_row({std::to_string(ph + 1), TextTable::fmt(phase_alpha[ph], 1),
                   std::to_string(accesses),
                   std::to_string(eff.spec.q_r) + "/" + std::to_string(eff.spec.q_w),
                   std::to_string(eff.version), std::to_string(agent.installs()),
                   TextTable::fmt(agent.estimated_alpha(), 2)});
  }
  table.print(std::cout);

  std::cout << "\noverall availability under QR: "
            << TextTable::fmt(meter.availability(), 4)
            << "  (reads " << TextTable::fmt(meter.read_availability(), 4)
            << ", writes " << TextTable::fmt(meter.write_availability(), 4) << ")\n"
            << "accesses granted under a stale assignment: " << stale_grants
            << " (the QR protocol guarantees 0)\n"
            << "\nRead-heavy phases pull q_r down toward 1; write-heavy phases "
               "push it back up\ntoward majority — all installs ride the "
               "version-numbered QR protocol of 2.2.\n";
  return stale_grants == 0 ? 0 : 1;
}
