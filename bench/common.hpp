#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "adapt/controller.hpp"
#include "metrics/experiment.hpp"
#include "net/topology.hpp"
#include "sim/config.hpp"

namespace quora::bench {

/// Scale knobs shared by every experiment binary.
///
/// Defaults are a *reduced* but shape-preserving configuration chosen so
/// the whole suite runs in minutes on one core; `--paper` restores the
/// paper's exact protocol (100k warm-up, 1M-access batches, 5-18 batches
/// to a ±0.5% CI), which is what EXPERIMENTS.md numbers were produced
/// with where stated.
struct RunScale {
  std::uint64_t warmup = 20'000;
  std::uint64_t batch = 150'000;
  std::uint32_t min_batches = 5;
  std::uint32_t max_batches = 8;
  double ci_target = 0.005;
  std::uint64_t seed = 0xC0FFEEULL;
  unsigned threads = 0;  // 0 => hardware
  unsigned stride = 7;   // q_r row thinning in printed tables
  std::optional<std::string> csv_path;
  std::optional<std::string> svg_path;
  /// Observability outputs (docs/OBSERVABILITY.md). `--trace PATH`
  /// records the stream-0 batch simulator's structured event trace
  /// (Chrome trace_event JSON when PATH ends in .json, the compact text
  /// transcript otherwise); `--metrics PATH` dumps the shared metrics
  /// registry, accumulated across every figure the binary ran.
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  bool paper_scale = false;
};

/// Parses --paper, --warmup, --batch, --min-batches, --max-batches, --ci,
/// --seed, --threads, --stride, --csv PATH, --svg PATH, --trace PATH,
/// --metrics PATH, --help. Exits on --help or a bad flag.
/// Numeric flags are validated strictly (full-string parse, range checks)
/// with a clear diagnostic — a typo'd `--batch 40k` aborts instead of
/// silently truncating.
RunScale parse_args(int argc, char** argv);

/// The command line of a binary that takes no options: `--help` or `-h`
/// prints a one-line usage and exits 0; any other argument exits 2,
/// naming it on stderr.
void parse_no_args(int argc, char** argv);

sim::SimConfig to_config(const RunScale& scale);
metrics::MeasurePolicy to_policy(const RunScale& scale);

/// Shared driver for the figure benches: measure the availability curves
/// of `topo` under the paper's protocol, print the table + optima footer,
/// optionally dump CSV. Returns the measured curves for extra reporting.
metrics::CurveResult run_figure(const net::Topology& topo, const std::string& title,
                                const RunScale& scale);

/// Controller settings of the access-level adaptive loop in the DYNQ, GRAD
/// and DSURV benches: epochs of about 2000 accesses on 101 sites, install
/// on the first epoch whose predicted gain clears 1%, half the evidence
/// forgotten per epoch, footnote-4 read-out at `config.reliability`. A
/// positive `min_write` selects the §5.4 write-constrained objective with
/// that floor; 0 selects plain availability.
adapt::AdaptiveController::Options access_loop_options(const sim::SimConfig& config,
                                                       double min_write);

} // namespace quora::bench
