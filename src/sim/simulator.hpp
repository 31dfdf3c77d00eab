#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "core/analysis_annotations.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/alias_table.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/config.hpp"
#include "sim/event.hpp"

namespace quora::sim {

class Simulator;

/// One access request, as delivered to observers. Votes reachable from the
/// submitting site are queried through `Simulator::tracker()`; a down
/// submitting site yields zero votes (the paper's "component of size zero").
struct AccessEvent {
  double time = 0.0;
  net::SiteId site = 0;
  bool is_read = false;
};

/// Receives every access event during measured simulation.
class AccessObserver {
public:
  virtual ~AccessObserver() = default;
  virtual void on_access(const Simulator& sim, const AccessEvent& ev) = 0;
};

/// Receives a notification after every site/link failure or recovery.
/// Dynamic protocols (quorum reassignment, dynamic voting) react here.
class NetworkObserver {
public:
  virtual ~NetworkObserver() = default;
  virtual void on_network_change(const Simulator& sim, EventKind kind,
                                 std::uint32_t index) = 0;
};

/// Steady-state discrete event simulator of the paper's system model
/// (§5.1–5.2): fail-stop sites, bidirectional fallible links, Poisson
/// failure/repair/access processes, instantaneous events.
///
/// Deterministic: one RNG stream drives everything, event ties break by
/// insertion order, so a (seed, stream) pair fully determines a run.
class Simulator {
public:
  Simulator(const net::Topology& topo, SimConfig config, AccessSpec spec,
            std::uint64_t seed, std::uint64_t stream = 0);

  /// As above, with heterogeneous per-component failure parameters. Sites
  /// or links whose mu_fail is infinite never fail.
  Simulator(const net::Topology& topo, SimConfig config, AccessSpec spec,
            FailureProfile profile, std::uint64_t seed, std::uint64_t stream = 0);

  /// Process events until `count` further access events have occurred.
  /// Hot path and (future) sim-shard entry point: everything reachable
  /// from here must stay allocation-free in steady state (L006) and may
  /// only touch sim-shard state (L007/L008).
  QUORA_HOT_PATH QUORA_SHARD_ENTRY(sim) void run_accesses(std::uint64_t count);

  /// Process exactly one queued event — the same dispatch `run_accesses`
  /// performs per iteration — and return it. Single-stepping is the
  /// checkpoint-restore entry point: together with `rebind()` it lets a
  /// driver (debugger, model harness) snapshot the simulator by value and
  /// advance the copy and the original independently. The queue never
  /// drains: the Poisson failure/repair/access processes reschedule
  /// themselves, so `step_one` always has an event to pop.
  Event step_one();

  /// Restore the initial all-up state, clear the clock, reschedule, and
  /// rewind the RNG — a subsequent run replays this simulator's history
  /// exactly. Observers stay attached. (The paper resets before each
  /// batch; independent batches come from distinct streams, not reset.)
  void reset();

  /// Fix internal cross-references after a by-value copy: the component
  /// tracker must observe this simulator's live network, not the
  /// source's. Call on every snapshot/restore copy before use. Observers
  /// and recorders are borrowed pointers and stay shared — copying a
  /// simulator with a trace recorder attached is not supported (two
  /// clocks, one recorder).
  void rebind() noexcept { tracker_.rebind(live_); }

  /// Observers are notified in registration order; they are borrowed, not
  /// owned, and must outlive the simulator or be removed first.
  void add_access_observer(AccessObserver* obs) {
    access_obs_.push_back(obs);
    solo_access_obs_ = access_obs_.size() == 1 ? obs : nullptr;
  }
  void add_network_observer(NetworkObserver* obs) {
    network_obs_.push_back(obs);
    solo_network_obs_ = network_obs_.size() == 1 ? obs : nullptr;
  }
  void clear_observers() noexcept {
    access_obs_.clear();
    network_obs_.clear();
    solo_access_obs_ = nullptr;
    solo_network_obs_ = nullptr;
  }

  /// Change the read fraction for subsequent accesses — lets experiments
  /// model a shifting read/write mix mid-run (§4.3's motivating scenario).
  void set_access_alpha(double alpha);

  double now() const noexcept { return now_; }
  const net::Topology& topology() const noexcept { return *topo_; }
  const conn::LiveNetwork& network() const noexcept { return live_; }
  const conn::ComponentTracker& tracker() const noexcept { return tracker_; }
  const SimConfig& config() const noexcept { return config_; }
  const AccessSpec& access_spec() const noexcept { return spec_; }

  struct Counters {
    std::uint64_t accesses = 0;
    std::uint64_t site_failures = 0;
    std::uint64_t site_recoveries = 0;
    std::uint64_t link_failures = 0;
    std::uint64_t link_recoveries = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

  /// Observability: pure recording, provably inert (the golden
  /// determinism suite replays with these attached and asserts
  /// byte-identical transcripts). The recorder is clocked on this
  /// simulator's simulated time and shared with the component tracker;
  /// one recorder per simulator — recorders are not thread-safe. The
  /// registry IS thread-safe and may be shared across parallel batch
  /// simulators. Pass nullptr to detach.
  void set_trace(obs::TraceRecorder* trace);
  void set_metrics(obs::Registry* registry);

private:
  void schedule_initial_events();
  QUORA_HOT_PATH void handle(const Event& e);

  // The measurement loop almost always runs exactly one observer of each
  // kind; dispatching through a cached pointer skips the vector iteration
  // (load, bounds, increment) that would otherwise precede every virtual
  // call on the hot path.
  // Analysis boundaries: dynamic dispatch into registered observers is
  // fan-out the call graph cannot follow; each observer carries its own
  // determinism/allocation guarantees (the golden suite replays with them
  // attached).
  QUORA_ANALYSIS_BOUNDARY void notify_network(EventKind kind, std::uint32_t index) {
    if (solo_network_obs_ != nullptr) {
      solo_network_obs_->on_network_change(*this, kind, index);
      return;
    }
    for (NetworkObserver* obs : network_obs_) obs->on_network_change(*this, kind, index);
  }
  QUORA_ANALYSIS_BOUNDARY void notify_access(const AccessEvent& ev) {
    if (solo_access_obs_ != nullptr) {
      solo_access_obs_->on_access(*this, ev);
      return;
    }
    for (AccessObserver* obs : access_obs_) obs->on_access(*this, ev);
  }

  double site_mu_fail(net::SiteId s) const;
  double site_mu_repair(net::SiteId s) const;
  double link_mu_fail(net::LinkId l) const;
  double link_mu_repair(net::LinkId l) const;

  const net::Topology* topo_;
  SimConfig config_;
  AccessSpec spec_;
  FailureProfile profile_;
  std::uint64_t seed_;
  std::uint64_t stream_;

  // Mutable per-run state, owned by the (future) sim shard: nothing
  // outside a sim-shard entry point may reach it (L007).
  QUORA_SHARD_LOCAL(sim) conn::LiveNetwork live_;
  QUORA_SHARD_LOCAL(sim) conn::ComponentTracker tracker_;
  QUORA_SHARD_LOCAL(sim) rng::Xoshiro256ss gen_;
  QUORA_SHARD_LOCAL(sim) EventQueue<Event> queue_;
  QUORA_SHARD_LOCAL(sim) double now_ = 0.0;
  double access_interarrival_ = 0.0;  // mu_access / n: merged process mean

  // Site choice per access: uniform unless weights were given.
  std::optional<rng::AliasTable> read_sites_;
  std::optional<rng::AliasTable> write_sites_;

  QUORA_SHARD_LOCAL(sim) Counters counters_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter obs_accesses_;
  obs::Counter obs_site_failures_;
  obs::Counter obs_site_recoveries_;
  obs::Counter obs_link_failures_;
  obs::Counter obs_link_recoveries_;
  std::vector<AccessObserver*> access_obs_;
  std::vector<NetworkObserver*> network_obs_;
  AccessObserver* solo_access_obs_ = nullptr;    // set iff exactly one registered
  NetworkObserver* solo_network_obs_ = nullptr;  // set iff exactly one registered
};

} // namespace quora::sim
