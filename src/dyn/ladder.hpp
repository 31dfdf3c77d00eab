#pragma once

#include <cstdint>
#include <vector>

#include "core/reassign.hpp"
#include "sim/simulator.hpp"

namespace quora::dyn {

/// Demand-driven quorum graduation over an ordered ladder of assignments
/// — our concrete answer to Herlihy's dynamic quorum adjustment (TODS
/// 1987), which the paper reviews and criticizes for leaving the level
/// selection/ordering mechanism unspecified and unevaluated (§1).
///
/// The ladder is the canonical family q_w = T - q_r + 1 ordered by q_r.
/// Instead of re-estimating the component-size distribution (the
/// strategy of `adapt::AccessLoop`), the agent watches *denials*: a burst
/// of read denials is evidence q_r is too high, a burst of write denials
/// that q_w is (i.e. q_r too low). When one side's denial share crosses a
/// threshold, the agent steps the assignment one rung in the helpful
/// direction — through the QR protocol, so every step inherits §2.2
/// safety. A denied component can never graduate itself (installation
/// needs a write quorum under the old assignment, which the denied
/// component by definition lacks); steps are executed opportunistically
/// from components that can.
class LadderAgent : public sim::AccessObserver {
public:
  struct Options {
    /// Accesses per decision window.
    std::uint64_t window = 2'000;
    /// Minimum share of denials (among all accesses in the window) before
    /// any step is attempted.
    double denial_trigger = 0.05;
    /// Required dominance of one denial type over the other, as a
    /// fraction of all denials, before stepping toward it.
    double dominance = 0.65;
    /// Largest single step, in ladder rungs.
    net::Vote max_step = 8;
  };

  LadderAgent(const net::Topology& topo, core::QuorumReassignment& qr)
      : LadderAgent(topo, qr, Options{}) {}
  LadderAgent(const net::Topology& topo, core::QuorumReassignment& qr,
              Options options);

  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override;

  std::uint64_t graduations() const noexcept { return graduations_; }
  std::uint64_t read_denials() const noexcept { return read_denials_total_; }
  std::uint64_t write_denials() const noexcept { return write_denials_total_; }

private:
  void maybe_step(const sim::Simulator& sim, net::SiteId origin);

  const net::Topology* topo_;
  core::QuorumReassignment* qr_;
  Options options_;
  net::Vote max_q_ = 0;

  std::uint64_t window_accesses_ = 0;
  std::uint64_t window_read_denials_ = 0;
  std::uint64_t window_write_denials_ = 0;
  std::uint64_t read_denials_total_ = 0;
  std::uint64_t write_denials_total_ = 0;
  std::uint64_t graduations_ = 0;
};

} // namespace quora::dyn
