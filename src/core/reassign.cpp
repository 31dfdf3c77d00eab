#include "core/reassign.hpp"

#include <stdexcept>

#include "core/contracts.hpp"

namespace quora::core {
namespace {

/// Packed (q_r, q_w) payload for qr-install / qr-adopt trace events.
[[maybe_unused]] std::uint64_t pack_spec(const quorum::QuorumSpec& spec) {
  return (static_cast<std::uint64_t>(spec.q_r) << 16) |
         static_cast<std::uint64_t>(spec.q_w);
}

} // namespace

void QuorumReassignment::set_metrics(obs::Registry* registry) {
  obs_installs_ = obs::counter(registry, "qr.installs");
  obs_adopts_ = obs::counter(registry, "qr.adopts");
}

QuorumReassignment::QuorumReassignment(const net::Topology& topo,
                                       quorum::QuorumSpec initial)
    : topo_(&topo), total_(topo.total_votes()) {
  if (!initial.valid(total_)) {
    throw std::invalid_argument("QuorumReassignment: invalid initial assignment");
  }
  stored_.assign(topo.site_count(), Assignment{initial, 1});
}

QuorumReassignment::Assignment QuorumReassignment::effective(
    const conn::ComponentTracker& tracker, net::SiteId origin) const {
  const std::int32_t comp = tracker.component_of(origin);
  if (comp == conn::kNoComponent) return stored_.at(origin);
  Assignment best = stored_.at(origin);
  for (const net::SiteId s : tracker.members(comp)) {
    if (stored_[s].version > best.version) best = stored_[s];
  }
  // §2.2: a component always operates on the newest assignment any member
  // knows — never older than the origin's own view.
  QUORA_INVARIANT(best.version >= stored_.at(origin).version,
                  "effective assignment regressed below the origin's version");
  QUORA_INVARIANT(best.spec.valid(total_),
                  "stored QR assignment lost quorum intersection");
  return best;
}

quorum::Decision QuorumReassignment::request(const conn::ComponentTracker& tracker,
                                             net::SiteId origin,
                                             quorum::AccessType type) const {
  quorum::Decision d;
  d.votes_collected = tracker.component_votes(origin);
  const quorum::QuorumSpec spec = effective(tracker, origin).spec;
  d.granted = type == quorum::AccessType::kRead
                  ? spec.allows_read(d.votes_collected)
                  : spec.allows_write(d.votes_collected);
  return d;
}

bool QuorumReassignment::try_install(const conn::ComponentTracker& tracker,
                                     net::SiteId origin, quorum::QuorumSpec next) {
  if (!next.valid(total_)) return false;
  const std::int32_t comp = tracker.component_of(origin);
  if (comp == conn::kNoComponent) return false;

  const Assignment current = effective(tracker, origin);
  if (next == current.spec) return false;
  const net::Vote votes = tracker.component_votes(origin);
  if (!current.spec.allows_write(votes)) return false;

  const Assignment installed{next, current.version + 1};
  QUORA_INVARIANT(installed.version > current.version,
                  "QR install must strictly advance the version number");
  for (const net::SiteId s : tracker.members(comp)) {
    // Monotonicity across the component: `current` already holds the max
    // member version, so no member can be ahead of the install.
    QUORA_ASSERT(stored_[s].version <= current.version,
                 "a component member was ahead of the effective assignment");
    stored_[s] = installed;
  }
  if (installed.version > latest_version_) latest_version_ = installed.version;
  QUORA_METRIC_ADD(obs_installs_, 1);
  QUORA_TRACE(trace_, obs::EventKind::kQrInstall, origin, installed.version,
              pack_spec(next));
  return true;
}

bool install_and_sync(QuorumReassignment& qr, quorum::ReplicatedStore& store,
                      const conn::ComponentTracker& tracker, net::SiteId origin,
                      quorum::QuorumSpec next) {
  if (!qr.try_install(tracker, origin, next)) return false;
  store.refresh_component(tracker, origin);
  return true;
}

bool QuorumReassignment::adopt(net::SiteId s, const Assignment& a) {
  if (!a.spec.valid(total_)) return false;
  Assignment& mine = stored_.at(s);
  if (a.version <= mine.version) return false;
  mine = a;
  // Gossip can only redistribute installed assignments, never mint one, so
  // the system-wide latest version is untouched by construction.
  QUORA_INVARIANT(a.version <= latest_version_,
                  "adopted a QR version newer than any install");
  QUORA_METRIC_ADD(obs_adopts_, 1);
  QUORA_TRACE(trace_, obs::EventKind::kQrAdopt, s, a.version,
              pack_spec(a.spec));
  return true;
}

void QuorumReassignment::propagate(const conn::ComponentTracker& tracker) {
  const auto count = static_cast<std::int32_t>(tracker.component_count());
  for (std::int32_t comp = 0; comp < count; ++comp) {
    const auto members = tracker.members(comp);
    Assignment best = stored_.at(members.front());
    for (const net::SiteId s : members) {
      if (stored_[s].version > best.version) best = stored_[s];
    }
    for (const net::SiteId s : members) {
      // Propagation only ever moves versions forward (§2.2 monotonicity).
      QUORA_ASSERT(best.version >= stored_[s].version,
                   "propagate would overwrite a newer assignment");
      if (stored_[s].version != best.version) stored_[s] = best;
    }
  }
}

void propagate_and_sync(QuorumReassignment& qr, quorum::ReplicatedStore& store,
                        const conn::ComponentTracker& tracker) {
  qr.propagate(tracker);
  const auto count = static_cast<std::int32_t>(tracker.component_count());
  for (std::int32_t comp = 0; comp < count; ++comp) {
    store.refresh_component(tracker, tracker.members(comp).front());
  }
}

} // namespace quora::core
