#pragma once

#include <cstdint>

#include "adapt/estimator.hpp"
#include "quorum/quorum_spec.hpp"

namespace quora::adapt {

/// The optimize half of the sense -> optimize -> install loop: each epoch
/// it reads the empirical mixture out of the histogram (footnote-4
/// conditioned), re-runs the Figure-1 optimizer over it — plain
/// availability, the §5.4 write-constrained variant A(0, q_r) >= A_w, or
/// the §5.4 weighted objective A(omega, alpha, q) — and gates the
/// resulting candidate behind hysteresis: an install is recommended only
/// after the predicted gain over the currently effective assignment has
/// exceeded `threshold` for `dwell` consecutive epochs *for the same
/// candidate*. A candidate change or a sub-threshold epoch resets the
/// streak, so assignment flapping under a noisy estimate is structurally
/// impossible.
///
/// Deterministic by construction: no RNG, no wall clock — epochs are
/// whatever sim events the driver turns into `epoch()` calls, and two
/// runs that feed identical samples make identical decisions.
class AdaptiveController {
public:
  enum class Objective : std::uint8_t {
    kAvailability,      // maximize A(alpha, q_r) (Figure 1)
    kWriteConstrained,  // maximize A s.t. A(0, q_r) >= A_w (§5.4)
    kWeighted,          // maximize alpha*R(q) + omega*(1-alpha)*W(T-q+1)
  };

  struct Options {
    /// Simulated seconds between estimation epochs.
    double epoch_length = 50.0;
    /// Minimum predicted (absolute) availability gain to count toward the
    /// dwell streak.
    double threshold = 0.02;
    /// Consecutive above-threshold epochs required before an install.
    std::uint32_t dwell = 2;
    Objective objective = Objective::kAvailability;
    /// §5.4 write floor A_w (kWriteConstrained only).
    double min_write_availability = 0.0;
    /// Write weight omega (kWeighted only).
    double omega = 1.0;
    /// Steady-state site reliability p for footnote-4 unconditioning.
    double site_reliability = 0.96;
    /// Pooled samples required before the optimizer runs at all.
    double min_samples = 64.0;
    /// Per-epoch histogram decay; 1 = cumulative, < 1 tracks drift.
    double forget = 1.0;

    /// Throws std::invalid_argument on out-of-range knobs.
    void validate() const;
  };

  /// One epoch's verdict, returned to the driver (which owns the actual
  /// QR install machinery and the transcript).
  struct Decision {
    bool evaluated = false;   // enough samples to run the optimizer
    bool feasible = true;     // write-constrained floor satisfiable
    bool install = false;     // hysteresis cleared: install `spec` now
    quorum::QuorumSpec spec{};      // the optimizer's candidate
    double current_value = 0.0;     // objective at the effective assignment
    double candidate_value = 0.0;   // objective at `spec`
    double predicted_gain = 0.0;    // candidate_value - current_value
    std::uint32_t streak = 0;       // dwell progress after this epoch
  };

  AdaptiveController(std::uint32_t site_count, net::Vote total_votes,
                     Options opts);

  EmpiricalVoteHistogram& histogram() noexcept { return hist_; }
  const EmpiricalVoteHistogram& histogram() const noexcept { return hist_; }
  const Options& options() const noexcept { return opts_; }

  /// Run one estimation epoch against the currently effective assignment.
  /// Applies the per-epoch forgetting factor on the way out. When the
  /// decision says install, the streak resets — the next campaign starts
  /// from scratch whether or not the driver's install attempt succeeds
  /// (a refused install means the component lacked a write quorum; its
  /// evidence is stale either way).
  Decision epoch(double alpha, quorum::QuorumSpec current);

  std::uint64_t epochs() const noexcept { return epochs_; }
  std::uint64_t installs_recommended() const noexcept { return installs_; }

private:
  Options opts_;
  EmpiricalVoteHistogram hist_;
  quorum::QuorumSpec streak_spec_{};  // candidate the current streak backs
  std::uint32_t streak_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t installs_ = 0;
};

const char* objective_name(AdaptiveController::Objective objective);

} // namespace quora::adapt
