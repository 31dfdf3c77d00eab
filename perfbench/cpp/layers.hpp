#pragma once

// The replay harness behind the per-layer metrics. Clocks stay out of the
// deterministic layers: the benchmark records what a layer was asked to do
// (a network flip stream, a draw count, a model-checker walk) and replays
// that work through the layer's public API alone, timing from here.

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "bench.hpp"
#include "conn/live_network.hpp"
#include "fault/fault_plan.hpp"
#include "model/scope.hpp"
#include "msg/cluster.hpp"
#include "net/topology.hpp"
#include "sim/config.hpp"

namespace perfbench {

namespace adapt = quora::adapt;
namespace conn = quora::conn;
namespace fault = quora::fault;
namespace model = quora::model;
namespace msg = quora::msg;
namespace net = quora::net;
namespace quorum = quora::quorum;
namespace sim = quora::sim;

/// Batches per measure_curves call: a multiple of the 4 worker threads, so
/// both waves are full, and inside the paper's 5-18 range.
inline constexpr std::uint32_t kPaperBatches = 8;

/// A recorded stream of site/link flips and component-vote queries.
class NetStream {
public:
  explicit NetStream(const conn::LiveNetwork& start);

  void record_site(std::uint32_t site, bool up);
  void record_link(std::uint32_t link, bool up);
  void record_query(std::uint32_t site);
  /// Appends the flips that turn the last recorded state into `now`.
  void diff(const conn::LiveNetwork& now);
  std::uint64_t flips() const noexcept { return flips_; }

  struct Replay {
    double ns_per_flip = 0.0;   // apply + refresh + the queries between flips
    double rebuild_frac = 0.0;  // full tracker rebuilds per flip
  };
  /// Replays the stream through a fresh LiveNetwork + ComponentTracker;
  /// the median of `rounds` timed replays.
  Replay replay(const net::Topology& topo, int rounds = 3) const;

private:
  struct Op {
    std::uint32_t index = 0;
    std::uint8_t kind = 0;  // 0/1 site down/up, 2/3 link down/up, 4 query
  };
  std::vector<std::uint8_t> start_sites_;
  std::vector<std::uint8_t> start_links_;
  std::vector<std::uint8_t> sites_;
  std::vector<std::uint8_t> links_;
  std::vector<Op> ops_;
  std::uint64_t flips_ = 0;
};

/// The access-level simulator's layers on one topology, from one batch
/// stream (seed, stream 0) stepped with `step_one` under spans.
struct SimLayer {
  std::uint64_t accesses = 0;
  std::uint64_t events = 0;
  std::uint64_t flips = 0;
  double step_self_ns = 0.0;  // per event, excluding the collector child
  double collect_ns = 0.0;    // per access, collector incl. tracker query
  double refresh_ns = 0.0;    // replayed conn cost per flip
  double rebuild_frac = 0.0;
  double draw_ns = 0.0;       // replayed rng cost per draw
  double reduce_s = 0.0;      // replayed reduction of one measure_curves call
  double optimize_ns = 0.0;   // one optimize_exhaustive call
  double events_per_access() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(events) /
                               static_cast<double>(accesses);
  }
};

/// Warms a simulator up, records `accesses` accesses of its stream on a
/// twin, then steps the original under spans (written to `spans_path`
/// unless empty) and replays the stream through conn and rng.
SimLayer measure_sim_layer(const net::Topology& topo,
                           const sim::SimConfig& config, std::uint64_t seed,
                           std::uint64_t accesses,
                           const std::vector<double>& alphas,
                           const std::string& spans_path);

/// sim.*, conn.refresh_ns.{ring101,complete101}, conn.rebuild_frac,
/// rng.draw_ns, core.optimize_ns, metrics.reduce_s from the two paper
/// topologies' layers.
void add_sim_layers(Report& report, const SimLayer& ring,
                    const SimLayer& complete);

/// The cluster parameters tools/quora_chaos uses for a plan (its
/// run_plan), so both binaries drive a plan identically.
msg::Cluster::Params chaos_params(const fault::ChaosSpec& spec);

/// Mean cost of one AdaptiveController::epoch, replayed on copies of a
/// controller whose histogram a real run filled.
double epoch_ns(const adapt::AdaptiveController& controller, double alpha,
                quorum::QuorumSpec current);

/// Unit costs of the model-checker hooks, from a seeded random walk over
/// the scope's transitions: copy + rebind, fingerprint, one transition,
/// and msg::check_safety on the reached state.
struct ModelCosts {
  double copy_ns = 0.0;
  double fingerprint_ns = 0.0;
  double step_ns = 0.0;
  double check_ns = 0.0;
};
ModelCosts measure_model_costs(const model::Scope& scope, std::uint64_t seed,
                               std::size_t steps);

// Reference probes for layers a workload leaves idle (implemented next to
// the workload that exercises the layer).
void add_msg_reference(Report& report, const Options& opt, std::uint64_t seed);
void add_fault_reference(Report& report, const Options& opt);
void add_adapt_reference(Report& report, const Options& opt,
                         std::uint64_t seed);
void add_obs_reference(Report& report, const Options& opt, std::uint64_t seed);
void add_model_reference(Report& report, const Options& opt,
                         std::uint64_t seed);

}  // namespace perfbench
