#pragma once

#include <cstdint>

#include "adapt/controller.hpp"
#include "core/reassign.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace quora::adapt {

/// The adaptive loop at the access level: the same
/// sense -> optimize -> install cycle `msg::Cluster` runs, clocked by the
/// `sim::Simulator` access stream instead of cluster events.
///
/// - Sense: every access whose origin is up records its component's vote
///   total in the controller's histogram (PASTA samples, footnote-4
///   conditioned at read-out), and every access's read/write label feeds
///   the alpha estimate.
/// - Optimize: one controller epoch per `epoch_length` simulated seconds,
///   run at the first access at or past each boundary (boundaries with no
///   access between them merge into one epoch). The first boundary falls
///   one epoch after the first observed access.
/// - Install: from the lowest-numbered operational site, through
///   `core::QuorumReassignment`, when the controller's hysteresis clears.
///
/// Every knob is the controller's (`AdaptiveController::Options`); the
/// alpha counts decay by the same `forget` factor as the histogram.
class AccessLoop : public sim::AccessObserver {
public:
  /// Both references are borrowed and must outlive the loop. Throws
  /// std::invalid_argument when `controller` is sized for a different
  /// system than `topo`.
  AccessLoop(const net::Topology& topo, AdaptiveController& controller,
             core::QuorumReassignment& qr);

  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override;

  /// Installs that the QR protocol accepted.
  std::uint64_t installs() const noexcept { return installs_; }
  /// Decayed read fraction of the observed accesses (0.5 before any).
  double estimated_alpha() const;

private:
  void run_epoch(const sim::Simulator& sim);

  AdaptiveController* controller_;
  core::QuorumReassignment* qr_;
  double next_epoch_ = 0.0;
  bool started_ = false;
  double reads_ = 0.0;
  double writes_ = 0.0;
  std::uint64_t installs_ = 0;
};

} // namespace quora::adapt
