#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "core/contracts.hpp"
#include "msg/cluster.hpp"

// Model-checker hooks for msg::Cluster (Params::model_mode). The explorer
// (src/model) owns the schedule: it reads the enabled transitions, fires
// one by sequence number, and snapshots the cluster by value. Everything
// here is off the simulation hot path — quora_bench never sets model_mode.

namespace quora::msg {
namespace {

/// FNV-1a over the canonical word stream, byte by byte.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& words, std::uint64_t h) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFFull;
      h *= kPrime;
    }
  }
  return h;
}

/// Second, structurally different mix (splitmix64 chaining) so the two
/// fingerprint halves do not collide together.
std::uint64_t splitmix_chain(const std::vector<std::uint64_t>& words,
                             std::uint64_t h) {
  for (const std::uint64_t w : words) {
    std::uint64_t z = w + h + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    h = (h * 31) ^ (z ^ (z >> 31));
  }
  return h;
}

} // namespace

std::vector<Cluster::ModelEvent> Cluster::model_enabled_events() const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_enabled_events needs Params::model_mode");
  // Per directed link, find the earliest pending delivery by (time, seq):
  // links are FIFO per direction, so only that head is enabled — a later
  // delivery on the same direction cannot overtake it under any timing.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, std::uint64_t>> head(
      dir_blocked_.size(), {kInf, ~std::uint64_t{0}});
  const auto dir_of = [this](const Event& e) {
    return 2 * static_cast<std::size_t>(e.index) +
           (topo_->link(e.index).b == e.target ? 0 : 1);
  };
  const std::span<const Event> pending = queue_.pending();
  for (const Event& e : pending) {
    if (e.kind != Kind::kDelivery) continue;
    const std::size_t dir = dir_of(e);
    if (e.time < head[dir].first ||
        (e.time == head[dir].first && e.seq < head[dir].second)) {
      head[dir] = {e.time, e.seq};
    }
  }

  std::vector<ModelEvent> out;
  out.reserve(pending.size());
  for (const Event& e : pending) {
    ModelEvent me;
    me.seq = e.seq;
    me.target = e.target;
    me.index = e.index;
    me.request = e.request;
    me.phase = e.phase;
    switch (e.kind) {
      case Kind::kDelivery:
        if (head[dir_of(e)].second != e.seq) continue;  // behind the FIFO head
        me.kind = ModelEventKind::kDelivery;
        me.message = e.message;
        break;
      case Kind::kTimer:
        me.kind = ModelEventKind::kTimer;
        break;
      case Kind::kRetry:
        me.kind = ModelEventKind::kRetry;
        break;
      default:
        // Nothing else is ever scheduled in model mode (no Poisson events,
        // no injector timeline) — but enumerate defensively.
        me.kind = ModelEventKind::kOther;
        break;
    }
    out.push_back(me);
  }
  // pending() is in heap order; the explorer's DFS order and its
  // per-descriptor occurrence numbering rest on ascending seq.
  std::sort(out.begin(), out.end(), [](const ModelEvent& a, const ModelEvent& b) {
    return a.seq < b.seq;
  });
  return out;
}

void Cluster::model_purge_dead_timers() {
  // handle_timer ignores a timer whose request is decided or whose phase
  // was superseded, and with max_retries == 0 (model mode) phases only
  // advance — so such an event can never do anything again. Dropping it
  // here merges every "fire the dead timer now vs. later" pair of states.
  queue_.remove_if([this](const Event& e) {
    if (e.kind != Kind::kTimer && e.kind != Kind::kRetry) return false;
    const auto it = pending_[e.target].find(e.request);
    if (it == pending_[e.target].end()) return true;
    return e.kind == Kind::kTimer && it->second.phase != e.phase;
  });
}

bool Cluster::model_step_event(std::uint64_t seq) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_step_event needs Params::model_mode");
  const std::optional<Event> e = queue_.remove(seq);
  if (!e) return false;
  // Logical clock: one tick per transition. Submission and decision
  // timestamps then order by firing sequence, which is exactly the
  // linearization `check_safety`'s real-time comparisons audit.
  now_ += 1.0;
  step(*e);
  model_purge_dead_timers();
  return true;
}

void Cluster::model_submit_access(net::SiteId origin, bool is_read) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_submit_access needs Params::model_mode");
  now_ += 1.0;
  submit_access(origin, is_read);
  model_purge_dead_timers();
}

void Cluster::model_apply_fault(const fault::Action& action) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_apply_fault needs Params::model_mode");
  QUORA_PRECONDITION(action.kind != fault::Action::Kind::kArmCrashOnCommit,
                     "model mode has no injector to arm (audit rejects this)");
  now_ += 1.0;
  apply_fault(action);
  model_purge_dead_timers();
}

void Cluster::model_serialize(std::vector<std::uint64_t>& out) const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_serialize needs Params::model_mode");
  const auto u = [&out](std::uint64_t v) { out.push_back(v); };

  // Newest record decided at or before `t` — the floor a pending access
  // will eventually be audited against. Storing the floor instead of the
  // raw submit timestamp keeps the encoding time-free.
  const auto floor_of = [](const auto& records, double t) {
    std::uint64_t f = 0;
    for (const auto& r : records) {
      if (r.decide_time <= t && r.version > f) f = r.version;
    }
    return f;
  };

  // Liveness + gray cuts.
  for (net::SiteId s = 0; s < topo_->site_count(); ++s) {
    u(live_.is_site_up(s) ? 1 : 0);
  }
  for (net::LinkId l = 0; l < topo_->link_count(); ++l) {
    u(live_.is_link_up(l) ? 1 : 0);
  }
  for (const char b : dir_blocked_) u(static_cast<std::uint64_t>(b));

  // Per-site durable + volatile protocol state. std::map iteration is in
  // key order, so the encoding is canonical by construction.
  for (net::SiteId s = 0; s < topo_->site_count(); ++s) {
    u(copies_[s].value);
    u(copies_[s].version);
    u(leases_[s].request);  // expiry is effectively infinite in model mode
    const core::QuorumReassignment::Assignment& a = qr_.stored(s);
    u(a.version);
    u(a.spec.q_r);
    u(a.spec.q_w);

    u(pending_[s].size());
    for (const auto& [req, p] : pending_[s]) {
      u(req);
      u(p.is_read ? 1 : 0);
      u(static_cast<std::uint64_t>(p.phase));
      u(p.attempt);
      u(p.spec.q_r);
      u(p.spec.q_w);
      u(p.qr_version);
      u(p.votes);
      u(p.denied);
      u(p.acked);
      u(p.repliers.size());
      for (const net::SiteId r : p.repliers) u(r);
      u(p.ackers.size());
      for (const net::SiteId r : p.ackers) u(r);
      u(p.best_version);
      u(p.best_value);
      u(p.write_value);
      u(p.oracle_granted ? 1 : 0);
      u(floor_of(commits_, p.submit_time));
      u(floor_of(installs_, p.submit_time));
    }

    u(floods_[s].size());
    for (const auto& [key, fs] : floods_[s]) {
      u(key);
      u(fs.has_parent ? 1 : 0);
      u(fs.has_parent ? fs.parent_link : 0);
    }
  }
  u(next_request_);

  // Safety-history digest: the slice of the past that constrains *future*
  // verdicts. Committed versions as a sorted multiset (a future commit
  // duplicating any of them violates uniqueness) and the newest install
  // (the stale-assignment floor of every future access).
  std::vector<std::uint64_t> versions;
  versions.reserve(commits_.size());
  for (const CommitRecord& c : commits_) versions.push_back(c.version);
  std::sort(versions.begin(), versions.end());
  u(versions.size());
  for (const std::uint64_t v : versions) u(v);
  std::uint64_t newest_install = 0;
  for (const InstallRecord& r : installs_) {
    newest_install = std::max(newest_install, r.version);
  }
  u(newest_install);

  // In-flight events as a canonical multiset. Deliveries carry their
  // directed link and FIFO rank (position in that direction's pending
  // order) instead of absolute times; two states whose queues differ only
  // in timestamps — but agree on per-direction order — encode equal,
  // which is the whole point of the untimed abstraction.
  const auto dir_of = [this](const Event& e) {
    return 2 * static_cast<std::size_t>(e.index) +
           (topo_->link(e.index).b == e.target ? 0 : 1);
  };
  const auto fifo_rank = [&](const Event& e) {
    std::uint64_t rank = 0;
    const std::size_t dir = dir_of(e);
    for (const Event& o : queue_.pending()) {
      if (o.kind != Kind::kDelivery || dir_of(o) != dir) continue;
      if (o.time < e.time || (o.time == e.time && o.seq < e.seq)) ++rank;
    }
    return rank;
  };
  std::vector<std::vector<std::uint64_t>> encodings;
  encodings.reserve(queue_.size());
  for (const Event& e : queue_.pending()) {
    std::vector<std::uint64_t> enc;
    switch (e.kind) {
      case Kind::kDelivery: {
        const Message& m = e.message;
        enc = {1,
               dir_of(e),
               fifo_rank(e),
               static_cast<std::uint64_t>(m.kind),
               m.is_write ? 1u : 0u,
               m.request,
               m.coordinator,
               m.sender,
               m.replier,
               m.votes,
               m.version,
               m.value,
               m.qr_version,
               m.qr_r,
               m.qr_w};
        break;
      }
      case Kind::kTimer:
        enc = {2, e.target, e.request, static_cast<std::uint64_t>(e.phase)};
        break;
      case Kind::kRetry:
        enc = {3, e.target, e.request};
        break;
      default:
        enc = {4, static_cast<std::uint64_t>(e.kind), e.index, e.target,
               e.request};
        break;
    }
    encodings.push_back(std::move(enc));
  }
  std::sort(encodings.begin(), encodings.end());
  u(encodings.size());
  for (const std::vector<std::uint64_t>& enc : encodings) {
    u(enc.size());
    for (const std::uint64_t w : enc) u(w);
  }
}

std::array<std::uint64_t, 2> Cluster::model_fingerprint() const {
  std::vector<std::uint64_t> words;
  words.reserve(256);
  model_serialize(words);
  return {fnv1a(words, 1469598103934665603ull),
          splitmix_chain(words, 0x9E3779B97F4A7C15ull)};
}

} // namespace quora::msg
