#include <algorithm>
#include <array>
#include <span>

#include "core/contracts.hpp"
#include "msg/cluster.hpp"

// Model-checker hooks for msg::Cluster (Params::model_mode): the model
// scheduler, the canonical serializer and the fingerprint cache. In model
// mode send() and arm_timer() append to per-direction FIFO channels and
// one timer list instead of the timed heap. The explorer (src/model) owns
// the schedule: it reads the enabled transitions, fires one by sequence
// number, and snapshots the cluster by value. Nothing here runs in a
// timed run.

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

/// model_hash fed a word at a time. Four independent lanes, so their
/// multiplies overlap instead of chaining: lanes 0 and 1 take the even
/// and odd words for the first half, lanes 2 and 3 take them again under
/// other multipliers for the second, so each half hashes every word on
/// its own.
class LaneHasher {
public:
  void operator()(std::uint64_t w) noexcept {
    if (n_++ % 2 == 0) {
      lane_[0] = lane_step(lane_[0], w, kMul[0]);
      lane_[2] = lane_step(lane_[2], w, kMul[2]);
    } else {
      lane_[1] = lane_step(lane_[1], w, kMul[1]);
      lane_[3] = lane_step(lane_[3], w, kMul[3]);
    }
  }

  std::array<std::uint64_t, 2> finish() const noexcept {
    // Each fold is a bijection of what it adds, so a stream that changes
    // one lane of a half, or only the length, changes that half.
    const auto fold = [this](std::uint64_t even, std::uint64_t odd) {
      return avalanche(avalanche(avalanche(even) ^ odd) ^ n_);
    };
    return {fold(lane_[0], lane_[1]), fold(lane_[2], lane_[3])};
  }

private:
  static constexpr std::array<std::uint64_t, 4> kMul{
      0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full, 0x165667B19E3779F9ull,
      0xD6E8FEB86659FD93ull};
  std::array<std::uint64_t, 4> lane_{kMul[3], kMul[2], kMul[1], kMul[0]};
  std::uint64_t n_ = 0;
};

} // namespace

std::array<std::uint64_t, 2> model_hash(std::span<const std::uint64_t> words) {
  LaneHasher h;
  for (const std::uint64_t w : words) h(w);
  return h.finish();
}

void Cluster::model_enabled_events(std::vector<ModelEvent>& out) const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_enabled_events needs Params::model_mode");
  // Links are FIFO per direction, so only the head of each channel is
  // enabled — a later delivery on the same direction cannot overtake it
  // under any timing. Every timer is enabled.
  out.clear();
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
}

std::vector<Cluster::ModelEvent> Cluster::model_enabled_events() const {
  std::vector<ModelEvent> out;
  model_enabled_events(out);
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
  // handler runs on a copy of the event, which leaves its list first. It
  // changes only the event's target site and, for a delivery, the channel
  // the event leaves; send() marks each channel it appends to.
  now_ += 1.0;
  if (head != channels_.end()) {
    const auto dir = static_cast<std::size_t>(head - channels_.begin());
    const Payload delivery = head->front().payload;
    head->erase(head->begin());
    model_touch_channel(dir);
    model_touch_site(delivery.target);
    handle_delivery(static_cast<net::LinkId>(dir / 2), delivery);
  } else {
    const Payload p = timer->payload;
    timers_.erase(timer);
    model_touch_site(p.target);
    handle_timer(p);
  }
  model_purge_dead_timers();
  return true;
}

void Cluster::model_submit_access(net::SiteId origin, bool is_read) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_submit_access needs Params::model_mode");
  now_ += 1.0;
  model_touch_site(origin);
  submit_access(origin, is_read);
  model_purge_dead_timers();
}

void Cluster::model_apply_fault(const fault::Action& action) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_apply_fault needs Params::model_mode");
  QUORA_PRECONDITION(action.kind != fault::Action::Kind::kArmCrashOnCommit,
                     "model mode has no injector to arm (audit rejects this)");
  // A fault may change any liveness, site or channel: rehash them all.
  now_ += 1.0;
  for (ModelSection& section : model_sections_) section.dirty = true;
  apply_fault(action);
  model_purge_dead_timers();
}

template <class Out>
void Cluster::model_encode_liveness(Out& out) const {
  for (net::SiteId s = 0; s < topo_->site_count(); ++s) {
    out(live_.is_site_up(s) ? 1 : 0);
  }
  for (net::LinkId l = 0; l < topo_->link_count(); ++l) {
    out(live_.is_link_up(l) ? 1 : 0);
  }
  for (const char b : dir_blocked_) out(static_cast<std::uint64_t>(b));
}

template <class Out>
void Cluster::model_encode_site(net::SiteId s, Out& out) const {
  // Newest record decided at or before `t` — the floor a pending access
  // will eventually be audited against. Storing the floor instead of the
  // raw submit timestamp keeps the encoding time-free. It is fixed once
  // the access is submitted: the clock ticks once per transition, so
  // every record decided later has a later time.
  const auto floor_of = [](const auto& records, double t) {
    std::uint64_t f = 0;
    for (const auto& r : records) {
      if (r.decide_time <= t && r.version > f) f = r.version;
    }
    return f;
  };
  const auto each = [&out](net::SiteId v) { out(v); };

  // Durable + volatile protocol state. Coordinations are kept in
  // ascending request id, replier and acker sets iterate in ascending site
  // order and flood windows in ascending key, so the encoding is canonical
  // by construction.
  out(copies_[s].value);
  out(copies_[s].version);
  out(leases_[s].request);  // expiry is effectively infinite in model mode
  const core::QuorumReassignment::Assignment& a = qr_.stored(s);
  out(a.version);
  out(a.spec.q_r);
  out(a.spec.q_w);

  out(pending_[s].size());
  for (const auto& [req, p] : pending_[s]) {
    out(req);
    out(p.is_read ? 1 : 0);
    out(static_cast<std::uint64_t>(p.phase));
    out(p.attempt);
    out(p.spec.q_r);
    out(p.spec.q_w);
    out(p.qr_version);
    out(p.votes);
    out(p.denied);
    out(p.acked);
    out(p.repliers.size());
    p.repliers.for_each(each);
    out(p.ackers.size());
    p.ackers.for_each(each);
    out(p.best_version);
    out(p.best_value);
    out(p.write_value);
    out(p.oracle_granted ? 1 : 0);
    out(floor_of(commits_, p.submit_time));
    out(floor_of(installs_, p.submit_time));
  }

  // The visited entries of the flood window, after their count.
  const FloodWindow& w = floods_[s];
  out(static_cast<std::uint64_t>(std::count_if(
      w.entries.begin(), w.entries.end(), [](std::uint32_t e) { return e != 0; })));
  for (std::size_t i = 0; i < w.entries.size(); ++i) {
    const std::uint32_t entry = w.entries[i];
    if (entry == 0) continue;
    out(w.base + i);
    out(entry > kFloodRoot ? 1 : 0);
    out(entry > kFloodRoot ? entry - 2 : 0);
  }
}

template <class Out>
void Cluster::model_encode_history(Out& out) const {
  out(next_request_);

  // Safety-history digest: the slice of the past that constrains *future*
  // verdicts. Committed versions as a sorted multiset (a future commit
  // duplicating any of them violates uniqueness), written smallest first
  // by repeated selection — a scope commits a handful at most — and the
  // newest install (the stale-assignment floor of every future access).
  out(commits_.size());
  std::uint64_t least = 0;  // every version below it is written
  for (std::size_t written = 0; written < commits_.size();) {
    std::uint64_t next = ~std::uint64_t{0};
    for (const CommitRecord& c : commits_) {
      if (c.version >= least && c.version < next) next = c.version;
    }
    for (const CommitRecord& c : commits_) {
      if (c.version != next) continue;
      out(next);
      ++written;
    }
    least = next + 1;
  }
  std::uint64_t newest_install = 0;
  for (const InstallRecord& r : installs_) {
    newest_install = std::max(newest_install, r.version);
  }
  out(newest_install);

  // In-flight events as a canonical multiset: the deliveries of every
  // channel (tag 1), then the timers (tag 2), each record after its
  // length.
  std::size_t in_flight = timers_.size();
  for (const std::vector<ModelEntry>& c : channels_) in_flight += c.size();
  out(in_flight);
}

template <class Out>
void Cluster::model_encode_channel(std::size_t dir, Out& out) const {
  // A delivery carries its direction and its position in that direction's
  // channel (its FIFO rank) instead of an absolute time; two states whose
  // channels hold the same messages in the same order encode equal, which
  // is the whole point of the untimed abstraction.
  const std::vector<ModelEntry>& channel = channels_[dir];
  for (std::size_t rank = 0; rank < channel.size(); ++rank) {
    const Message& m = channel[rank].payload.message;
    const std::array<std::uint64_t, 16> record{
        15, 1, dir, rank, static_cast<std::uint64_t>(m.kind),
        m.is_write ? 1u : 0u, m.request, m.coordinator, m.sender, m.replier,
        m.votes, m.version, m.value, m.qr_version, m.qr_r, m.qr_w};
    for (const std::uint64_t w : record) out(w);
  }
}

template <class Out>
void Cluster::model_encode_timers(Out& out) const {
  // timers_ is kept in (owner, request, phase) order.
  for (const ModelEntry& t : timers_) {
    const Payload& p = t.payload;
    out(4);
    out(2);
    out(p.target);
    out(p.request);
    out(static_cast<std::uint64_t>(p.phase));
  }
}

void Cluster::model_serialize(std::vector<std::uint64_t>& out) const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_serialize needs Params::model_mode");
  const auto append = [&out](std::uint64_t w) { out.push_back(w); };
  model_encode_liveness(append);
  for (net::SiteId s = 0; s < topo_->site_count(); ++s) {
    model_encode_site(s, append);
  }
  model_encode_history(append);
  for (std::size_t dir = 0; dir < channels_.size(); ++dir) {
    model_encode_channel(dir, append);
  }
  model_encode_timers(append);
}

std::array<std::uint64_t, 2> Cluster::model_section_hash(std::size_t k) const {
  LaneHasher h;
  const std::size_t sites = topo_->site_count();
  if (k == 0) {
    model_encode_liveness(h);
  } else if (k <= sites) {
    model_encode_site(static_cast<net::SiteId>(k - 1), h);
  } else {
    model_encode_channel(k - 1 - sites, h);
  }
  return h.finish();
}

std::array<std::uint64_t, 2> Cluster::model_fingerprint() const {
  return model_fingerprint({});
}

std::array<std::uint64_t, 2> Cluster::model_fingerprint(
    std::span<const std::uint64_t> extra) const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_fingerprint needs Params::model_mode");
  LaneHasher h;
  for (std::size_t k = 0; k < model_sections_.size(); ++k) {
    ModelSection& section = model_sections_[k];
    if (section.dirty) {
      section.hash = model_section_hash(k);
      section.dirty = false;
    }
    h(section.hash[0]);
    h(section.hash[1]);
  }
  // The cache against a recomputation: a transition that changed a
  // section it did not mark would merge two different states.
  if constexpr (contracts::kActive) {
    for (std::size_t k = 0; k < model_sections_.size(); ++k) {
      QUORA_INVARIANT(model_sections_[k].hash == model_section_hash(k),
                      "a model transition changed a state section it did "
                      "not mark dirty");
    }
  }
  model_encode_history(h);
  model_encode_timers(h);
  for (const std::uint64_t w : extra) h(w);
  return h.finish();
}

} // namespace quora::msg
