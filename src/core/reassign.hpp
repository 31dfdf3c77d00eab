#pragma once

#include <cstdint>
#include <vector>

#include "conn/component_tracker.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quorum/protocols.hpp"
#include "quorum/quorum_spec.hpp"
#include "quorum/replicated_store.hpp"

namespace quora::core {

/// The quorum reassignment protocol (QR, paper §2.2).
///
/// Every copy stores a quorum assignment and a version number (initially
/// 1). The assignment *in effect* for an access submitted at site x is the
/// highest-version assignment stored at any up site of x's component. A
/// new assignment may be installed only from a component holding at least
/// a write quorum of votes under the assignment currently in effect there;
/// installation stamps version+1 on every up member.
///
/// Safety (proved in §2.2, asserted by our tests): because an installing
/// component holds q_w votes under the old assignment and q_r + q_w > T,
/// no other component can reach even a read quorum until some installer
/// site joins it — at which point it learns the new assignment. Hence no
/// access is ever granted under a superseded assignment.
///
/// One-copy serializability needs one step the paper leaves implicit:
/// installation must also *synchronize the data object* across the
/// installing component. The component holds a write quorum under the old
/// assignment, so it provably contains a copy of the most recent write;
/// unless that copy is spread to all members at install time, a later
/// read quorum under the new assignment — which need not intersect any
/// old write quorum — can miss it. Our randomized integration test
/// reproduces exactly that stale read when the sync is skipped; use
/// `install_and_sync` when a `quorum::ReplicatedStore` carries real data.
class QuorumReassignment {
public:
  struct Assignment {
    quorum::QuorumSpec spec;
    std::uint64_t version = 1;
  };

  QuorumReassignment(const net::Topology& topo, quorum::QuorumSpec initial);

  /// The assignment in effect for accesses submitted at `origin`: the
  /// max-version assignment among up sites of origin's component. A down
  /// origin reports its own stored assignment (it cannot access anyway).
  Assignment effective(const conn::ComponentTracker& tracker,
                       net::SiteId origin) const;

  /// Decide an access under the effective assignment.
  quorum::Decision request(const conn::ComponentTracker& tracker,
                           net::SiteId origin, quorum::AccessType type) const;

  /// Attempt to install `next` from origin's component. Fails (returns
  /// false) if origin is down, the component lacks a write quorum under
  /// the effective (old) assignment, `next` is invalid for T, or `next`
  /// equals the effective assignment (no-op installs are suppressed).
  bool try_install(const conn::ComponentTracker& tracker, net::SiteId origin,
                   quorum::QuorumSpec next);

  /// Adopt `a` at site `s` if it is strictly newer than what `s` stores —
  /// the per-message gossip path of §2.2's merge rule, used by the
  /// message-level cluster when a protocol message carries a newer
  /// assignment than the receiver's. Never regresses a version and ignores
  /// assignments that are invalid for T. Returns true if `s` changed.
  bool adopt(net::SiteId s, const Assignment& a);

  /// Copy the max-version assignment of each component to all its up
  /// members — the state update the paper performs when components merge.
  /// `effective()` already looks through to the max version, so this only
  /// compacts state; it never changes behaviour.
  void propagate(const conn::ComponentTracker& tracker);

  /// Version of the most recently installed assignment, system-wide.
  std::uint64_t latest_version() const noexcept { return latest_version_; }

  const Assignment& stored(net::SiteId s) const { return stored_.at(s); }
  net::Vote total_votes() const noexcept { return total_; }

  /// Observability: successful installs emit kQrInstall and successful
  /// adoptions kQrAdopt (pure recording — protocol decisions unchanged).
  /// The recorder must share the owning simulation's clock. Metrics land
  /// under `qr.installs` / `qr.adopts`. Pass nullptr to detach.
  void set_trace(obs::TraceRecorder* trace) noexcept { trace_ = trace; }
  void set_metrics(obs::Registry* registry);

private:
  const net::Topology* topo_;
  net::Vote total_;
  std::vector<Assignment> stored_;
  std::uint64_t latest_version_ = 1;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter obs_installs_;
  obs::Counter obs_adopts_;
};

/// Install `next` through `qr` and, on success, synchronize `store`'s
/// copies across the installing component — the coupling required for
/// one-copy serializability under reassignment (see the class docs).
bool install_and_sync(QuorumReassignment& qr, quorum::ReplicatedStore& store,
                      const conn::ComponentTracker& tracker, net::SiteId origin,
                      quorum::QuorumSpec next);

/// Merge-time counterpart of `install_and_sync`: propagate assignments
/// within every component AND synchronize the data alongside. Assignment
/// awareness without the data is dangerous — a site that learns a new
/// small read quorum and then partitions away from every installer would
/// serve stale reads; carrying the newest copy with the assignment
/// message closes that hole.
void propagate_and_sync(QuorumReassignment& qr, quorum::ReplicatedStore& store,
                        const conn::ComponentTracker& tracker);

} // namespace quora::core
