#include <algorithm>
#include <span>
#include <tuple>

#include "core/contracts.hpp"
#include "msg/cluster.hpp"

// Model-checker hooks for msg::Cluster (Params::model_mode): the model
// scheduler and the canonical serializer. In model mode send() and
// arm_timer() append to per-direction FIFO channels and one timer list
// instead of the timed heap. The explorer (src/model) owns the schedule:
// it reads the enabled transitions, fires one by sequence number, and
// snapshots the cluster by value. Nothing here runs in a timed run.

namespace quora::msg {

namespace {

/// One step of a hash lane. For a fixed word it is a bijection of the
/// lane, and for a fixed lane a bijection of the word, so a stream that
/// differs from another in one word differs in that word's lanes.
constexpr std::uint64_t lane_step(std::uint64_t lane, std::uint64_t w,
                                  std::uint64_t mul) noexcept {
  lane = (lane ^ w) * mul;
  return lane ^ (lane >> 32);
}

/// MurmurHash3's 64-bit finalizer: a bijection in which every input bit
/// flips each output bit with probability about 1/2.
constexpr std::uint64_t avalanche(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  return h ^ (h >> 33);
}

} // namespace

std::array<std::uint64_t, 2> model_hash(std::span<const std::uint64_t> words) {
  // Four independent lanes, so their multiplies overlap instead of
  // chaining: lanes 0 and 1 take the even and odd words for the first
  // half, lanes 2 and 3 take them again under other multipliers for the
  // second, so each half hashes every word on its own.
  constexpr std::array<std::uint64_t, 4> kMul{
      0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full, 0x165667B19E3779F9ull,
      0xD6E8FEB86659FD93ull};
  std::array<std::uint64_t, 4> lane{kMul[3], kMul[2], kMul[1], kMul[0]};
  const std::size_t n = words.size();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    lane[0] = lane_step(lane[0], words[i], kMul[0]);
    lane[1] = lane_step(lane[1], words[i + 1], kMul[1]);
    lane[2] = lane_step(lane[2], words[i], kMul[2]);
    lane[3] = lane_step(lane[3], words[i + 1], kMul[3]);
  }
  if (i < n) {
    lane[0] = lane_step(lane[0], words[i], kMul[0]);
    lane[2] = lane_step(lane[2], words[i], kMul[2]);
  }
  // Each fold is a bijection of what it adds, so a stream that changes
  // one lane of a half, or only the length, changes that half.
  const auto fold = [n](std::uint64_t even, std::uint64_t odd) {
    return avalanche(avalanche(avalanche(even) ^ odd) ^ n);
  };
  return {fold(lane[0], lane[1]), fold(lane[2], lane[3])};
}

std::vector<Cluster::ModelEvent> Cluster::model_enabled_events() const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_enabled_events needs Params::model_mode");
  // Links are FIFO per direction, so only the head of each channel is
  // enabled — a later delivery on the same direction cannot overtake it
  // under any timing. Every timer is enabled.
  std::vector<ModelEvent> out;
  out.reserve(channels_.size() + timers_.size());
  for (std::size_t dir = 0; dir < channels_.size(); ++dir) {
    if (channels_[dir].empty()) continue;
    const ModelEntry& head = channels_[dir].front();
    out.push_back(ModelEvent{head.seq, ModelEventKind::kDelivery,
                             head.payload.target,
                             static_cast<std::uint32_t>(dir / 2), 0, 0,
                             head.payload.message});
  }
  for (const ModelEntry& t : timers_) {
    out.push_back(ModelEvent{t.seq, ModelEventKind::kTimer, t.payload.target,
                             0, t.payload.request, t.payload.phase, {}});
  }
  // The explorer's DFS order rests on ascending seq.
  std::sort(out.begin(), out.end(), [](const ModelEvent& a, const ModelEvent& b) {
    return a.seq < b.seq;
  });
  return out;
}

void Cluster::model_purge_dead_timers() {
  // No injector, no background processes and no retries: model mode
  // never schedules a timed event, so the channels and the timer list
  // hold everything pending.
  QUORA_PRECONDITION(queue_.empty(),
                     "model mode schedules only deliveries and timers");
  // handle_timer ignores a timer whose request is decided or whose phase
  // was superseded, and with max_retries == 0 (model mode) phases only
  // advance — so such an event can never do anything again. Dropping it
  // here merges every "fire the dead timer now vs. later" pair of states.
  std::erase_if(timers_, [this](const ModelEntry& t) {
    const Payload& p = t.payload;
    return find_coordination(p.target, p.request, p.phase) == nullptr;
  });
}

bool Cluster::model_step_event(std::uint64_t seq) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_step_event needs Params::model_mode");
  const auto head = std::find_if(channels_.begin(), channels_.end(),
                                 [seq](const std::vector<ModelEntry>& c) {
                                   return !c.empty() && c.front().seq == seq;
                                 });
  const auto timer = std::find_if(timers_.begin(), timers_.end(),
                                  [seq](const ModelEntry& t) { return t.seq == seq; });
  if (head == channels_.end() && timer == timers_.end()) return false;
  // Logical clock: one tick per transition. Submission and decision
  // timestamps then order by firing sequence, which is exactly the
  // linearization `check_safety`'s real-time comparisons audit. The
  // handler runs on a copy of the event, which leaves its list first.
  now_ += 1.0;
  if (head != channels_.end()) {
    const auto link = static_cast<net::LinkId>((head - channels_.begin()) / 2);
    const Payload delivery = head->front().payload;
    head->erase(head->begin());
    handle_delivery(link, delivery);
  } else {
    const Payload p = timer->payload;
    timers_.erase(timer);
    handle_timer(p);
  }
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
  const auto at = [&out](std::size_t k) {
    return out.begin() + static_cast<std::ptrdiff_t>(k);
  };

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

  // Per-site durable + volatile protocol state. Coordinations are kept in
  // ascending request id, replier and acker sets iterate in ascending site
  // order and flood windows in ascending key, so the encoding is canonical
  // by construction.
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
      p.repliers.for_each(u);
      u(p.ackers.size());
      p.ackers.for_each(u);
      u(p.best_version);
      u(p.best_value);
      u(p.write_value);
      u(p.oracle_granted ? 1 : 0);
      u(floor_of(commits_, p.submit_time));
      u(floor_of(installs_, p.submit_time));
    }

    // The visited count goes first; it is known once the window is read.
    const FloodWindow& w = floods_[s];
    const std::size_t count_at = out.size();
    u(0);
    for (std::size_t i = 0; i < w.entries.size(); ++i) {
      const std::uint32_t entry = w.entries[i];
      if (entry == 0) continue;
      ++out[count_at];
      u(w.base + i);
      u(entry > kFloodRoot ? 1 : 0);
      u(entry > kFloodRoot ? entry - 2 : 0);
    }
  }
  u(next_request_);

  // Safety-history digest: the slice of the past that constrains *future*
  // verdicts. Committed versions as a sorted multiset (a future commit
  // duplicating any of them violates uniqueness) and the newest install
  // (the stale-assignment floor of every future access).
  u(commits_.size());
  const std::size_t versions = out.size();
  for (const CommitRecord& c : commits_) u(c.version);
  std::sort(at(versions), out.end());
  std::uint64_t newest_install = 0;
  for (const InstallRecord& r : installs_) {
    newest_install = std::max(newest_install, r.version);
  }
  u(newest_install);

  // In-flight events as a canonical multiset: deliveries (tag 1), then
  // timers (tag 2), each record after its length. A delivery carries its
  // direction and its position in that direction's channel (its FIFO
  // rank) instead of an absolute time; two states whose channels hold the
  // same messages in the same order encode equal, which is the whole
  // point of the untimed abstraction. Timers are sorted by (owner,
  // request, phase) over their indices, parked at the end of `out` and
  // dropped once the records follow them, so nothing is allocated per
  // event.
  std::size_t in_flight = timers_.size();
  for (const std::vector<ModelEntry>& c : channels_) in_flight += c.size();
  u(in_flight);
  for (std::size_t dir = 0; dir < channels_.size(); ++dir) {
    for (std::size_t rank = 0; rank < channels_[dir].size(); ++rank) {
      const Message& m = channels_[dir][rank].payload.message;
      out.insert(out.end(),
                 {15, 1, dir, rank, static_cast<std::uint64_t>(m.kind),
                  m.is_write ? 1u : 0u, m.request, m.coordinator, m.sender,
                  m.replier, m.votes, m.version, m.value, m.qr_version, m.qr_r,
                  m.qr_w});
    }
  }
  const std::size_t first = out.size();
  for (std::size_t i = 0; i < timers_.size(); ++i) u(i);
  std::sort(at(first), out.end(), [this](std::uint64_t i, std::uint64_t j) {
    const Payload& a = timers_[i].payload;
    const Payload& b = timers_[j].payload;
    return std::tuple(a.target, a.request, a.phase) <
           std::tuple(b.target, b.request, b.phase);
  });
  for (std::size_t k = first; k < first + timers_.size(); ++k) {
    const Payload& p = timers_[out[k]].payload;
    out.insert(out.end(), {4, 2, p.target, p.request,
                           static_cast<std::uint64_t>(p.phase)});
  }
  out.erase(at(first), at(first + timers_.size()));
}

std::array<std::uint64_t, 2> Cluster::model_fingerprint() const {
  std::vector<std::uint64_t> words;
  words.reserve(256);
  model_serialize(words);
  return model_hash(words);
}

} // namespace quora::msg
