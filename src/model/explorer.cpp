#include "model/explorer.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "core/contracts.hpp"
#include "quorum/quorum_spec.hpp"

namespace quora::model {
namespace {

using msg::Cluster;

const char* message_kind_name(msg::Message::Kind k) {
  switch (k) {
    case msg::Message::Kind::kVoteRequest: return "vote-request";
    case msg::Message::Kind::kVoteReply: return "vote-reply";
    case msg::Message::Kind::kVoteDeny: return "vote-deny";
    case msg::Message::Kind::kCommitRequest: return "commit-request";
    case msg::Message::Kind::kCommitAck: return "commit-ack";
    case msg::Message::Kind::kAbort: return "abort";
  }
  return "?";
}

/// True when two enabled events are the same transition, whatever their
/// queue sequence numbers.
bool same_descriptor(const Cluster::ModelEvent& x, const Cluster::ModelEvent& y) {
  if (x.kind != y.kind || x.target != y.target || x.index != y.index ||
      x.request != y.request || x.phase != y.phase) {
    return false;
  }
  if (x.kind != Cluster::ModelEventKind::kDelivery) return true;
  const msg::Message& a = x.message;
  const msg::Message& b = y.message;
  return a.kind == b.kind && a.is_write == b.is_write &&
         a.request == b.request && a.coordinator == b.coordinator &&
         a.sender == b.sender && a.replier == b.replier &&
         a.votes == b.votes && a.version == b.version && a.value == b.value &&
         a.qr_version == b.qr_version && a.qr_r == b.qr_r && a.qr_w == b.qr_w;
}

/// True when a recorded choice names this enabled transition.
bool same_choice(const Choice& x, const Choice& y) {
  if (x.kind != y.kind) return false;
  if (x.kind != Choice::Kind::kEvent) return x.index == y.index;
  return same_descriptor(x.event, y.event);
}

/// A transition's sleep-set key: msg::model_hash over its descriptor
/// words. Keys are compared only for equality and inclusion.
std::uint64_t descriptor_key(const Choice& c) {
  const Cluster::ModelEvent& e = c.event;
  const msg::Message& m = e.message;
  const std::array<std::uint64_t, 14> words{
      static_cast<std::uint64_t>(c.kind), c.index,
      static_cast<std::uint64_t>(e.kind), e.target, e.index, e.request,
      static_cast<std::uint64_t>(e.phase),
      // A delivery's message; the first seven words alone for a timer.
      static_cast<std::uint64_t>(m.kind), m.is_write ? 1u : 0u, m.request,
      m.sender, m.replier, m.version, m.qr_version};
  const bool delivery = e.kind == Cluster::ModelEventKind::kDelivery;
  return msg::model_hash(std::span(words).first(delivery ? 14 : 7))[0];
}

} // namespace

std::string Choice::describe(const Scope& scope) const {
  switch (kind) {
    case Kind::kSubmit: {
      const fault::Action& a = scope.accesses[index];
      return std::string("submit ") + (a.is_read ? "read" : "write") +
             " at site " + std::to_string(a.site);
    }
    case Kind::kFault: {
      std::string out = "fault:";
      for (const fault::Action& a : scope.faults[index]) {
        out += " " + fault::render_action(a) + ";";
      }
      out.pop_back();
      return out;
    }
    case Kind::kEvent:
      break;
  }
  if (event.kind == Cluster::ModelEventKind::kDelivery) {
    return std::string("deliver ") + message_kind_name(event.message.kind) +
           " req " + std::to_string(event.message.request) + " -> site " +
           std::to_string(event.target) + " (link " +
           std::to_string(event.index) + ")";
  }
  return "timer site " + std::to_string(event.target) + " req " +
         std::to_string(event.request) + " phase " + std::to_string(event.phase);
}

std::vector<std::string> Violation::codes() const {
  std::vector<std::string> out;
  for (const msg::SafetyViolation& v : safety.violations) {
    out.push_back(msg::invariant_slug(v.code));
  }
  for (const PropertyViolation& p : properties) out.push_back(p.code);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Explorer::VisitedSet::clear() {
  slots_.assign(1024, Slot{});
  used_ = 0;
  sets_.clear();
  keys_.clear();
}

std::size_t Explorer::VisitedSet::find(const Fingerprint& fp) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(fp[0]) & mask;
  while (slots_[i].newest != 0 && slots_[i].fp != fp) i = (i + 1) & mask;
  return i;
}

bool Explorer::VisitedSet::covered(std::size_t slot,
                                   std::span<const std::uint64_t> keys) const {
  for (std::uint32_t s = slots_[slot].newest; s != 0; s = sets_[s - 1].older) {
    const KeySet& set = sets_[s - 1];
    const auto cached = keys_.begin() + static_cast<std::ptrdiff_t>(set.begin);
    if (std::includes(keys.begin(), keys.end(), cached, cached + set.size)) {
      return true;
    }
  }
  return false;
}

void Explorer::VisitedSet::add(std::size_t slot, const Fingerprint& fp,
                               std::span<const std::uint64_t> keys) {
  if (fresh(slot)) {
    if (2 * (used_ + 1) > slots_.size()) {
      std::vector<Slot> old(2 * slots_.size());
      old.swap(slots_);
      for (const Slot& o : old) {
        if (o.newest != 0) slots_[find(o.fp)] = o;
      }
      slot = find(fp);
    }
    ++used_;
    slots_[slot].fp = fp;
  }
  QUORA_PRECONDITION(sets_.size() < 0xFFFFFFFFu, "visited key sets overflow");
  sets_.push_back(KeySet{keys_.size(), static_cast<std::uint32_t>(keys.size()),
                         slots_[slot].newest});
  keys_.insert(keys_.end(), keys.begin(), keys.end());
  slots_[slot].newest = static_cast<std::uint32_t>(sets_.size());
}

Explorer::Explorer(const Scope& scope, Options opt)
    : scope_(&scope), opt_(opt) {
  QUORA_PRECONDITION(scope.chaos.system.has_value(),
                     "scope must carry a parsed system");
}

msg::Cluster Explorer::make_cluster() const {
  Cluster::Params params = msg::chaos_params(scope_->chaos);
  params.model_mode = true;
  return Cluster(scope_->chaos.system->topology, params, /*seed=*/1);
}

void Explorer::enabled_transitions(
    const msg::Cluster& c, std::uint32_t submitted, std::uint32_t faulted,
    std::vector<msg::Cluster::ModelEvent>& events,
    std::vector<Transition>& out) const {
  // Submits and faults lead the list: DFS then tries the schedules that
  // interleave them early in the protocol first, which is where seeded
  // mutations bite — pure delivery permutations come after. Exhaustive
  // coverage does not depend on this order, only time-to-counterexample.
  out.clear();
  for (std::uint32_t i = 0; i < scope_->accesses.size(); ++i) {
    if ((submitted >> i) & 1u) continue;
    Transition t;
    t.choice.kind = Choice::Kind::kSubmit;
    t.choice.index = i;
    t.global = true;
    t.key = 0xACCE55ull << 32 | i;
    out.push_back(std::move(t));
  }
  for (std::uint32_t i = 0; i < scope_->faults.size(); ++i) {
    if ((faulted >> i) & 1u) continue;
    Transition t;
    t.choice.kind = Choice::Kind::kFault;
    t.choice.index = i;
    t.global = true;
    t.key = 0xFA17ull << 32 | i;
    out.push_back(std::move(t));
  }
  c.model_enabled_events(events);
  for (const Cluster::ModelEvent& e : events) {
    Transition t;
    t.choice.kind = Choice::Kind::kEvent;
    t.choice.event = e;
    t.site = e.target;
    t.key = descriptor_key(t.choice);
    out.push_back(std::move(t));
  }
}

void Explorer::apply(msg::Cluster& c, const Transition& t,
                     std::uint32_t& submitted, std::uint32_t& faulted) const {
  switch (t.choice.kind) {
    case Choice::Kind::kEvent: {
      const bool fired = c.model_step_event(t.choice.event.seq);
      QUORA_PRECONDITION(fired, "enabled event vanished before firing");
      break;
    }
    case Choice::Kind::kSubmit: {
      const fault::Action& a = scope_->accesses[t.choice.index];
      c.model_submit_access(a.site, a.is_read);
      submitted |= 1u << t.choice.index;
      break;
    }
    case Choice::Kind::kFault:
      // A fault step is atomic: every action in the group fires before
      // the next transition is chosen (e.g. `crash S for 0` = down+up).
      for (const fault::Action& a : scope_->faults[t.choice.index]) {
        c.model_apply_fault(a);
      }
      faulted |= 1u << t.choice.index;
      break;
  }
}

void Explorer::stored_qr_versions(const msg::Cluster& c,
                                  std::vector<std::uint64_t>& out) const {
  const net::Topology& topo = scope_->chaos.system->topology;
  out.resize(topo.site_count());
  for (net::SiteId s = 0; s < topo.site_count(); ++s) {
    out[s] = c.reassignment().stored(s).version;
  }
}

std::optional<Violation> Explorer::check_state(
    const msg::Cluster& c, std::span<const std::uint64_t> prev_qr,
    std::span<const std::uint64_t> cur_qr, msg::SafetyScratch& scratch) const {
  Violation v;
  v.safety = msg::check_safety(c, scratch);

  // qr-monotonicity: §2.2 requires stored assignment versions to only
  // ever move forward; a decrease would resurrect a superseded quorum.
  for (std::size_t s = 0; s < cur_qr.size(); ++s) {
    if (cur_qr[s] < prev_qr[s]) {
      v.properties.push_back(PropertyViolation{
          "qr-monotonicity",
          "site " + std::to_string(s) + " stored QR version went backwards: " +
              std::to_string(prev_qr[s]) + " -> " +
              std::to_string(cur_qr[s])});
    }
  }

  // quorum-intersection: every installed assignment must satisfy
  // Gifford's two conditions against the vote total.
  const net::Vote total = scope_->chaos.system->topology.total_votes();
  for (const Cluster::InstallRecord& r : c.installs()) {
    if (!r.spec.valid(total)) {
      v.properties.push_back(PropertyViolation{
          "quorum-intersection",
          "installed assignment v" + std::to_string(r.version) + " (" +
              std::to_string(r.spec.q_r) + ", " + std::to_string(r.spec.q_w) +
              ") violates the intersection conditions for T=" +
              std::to_string(total)});
    }
  }

  // grant-without-quorum: a granted access must be backed by at least a
  // quorum of votes under the assignment version it ran under.
  const auto spec_of = [&](std::uint64_t qr_version,
                           quorum::QuorumSpec& spec) {
    if (qr_version <= 1) {
      spec = scope_->chaos.has_quorum
                 ? scope_->chaos.quorum
                 : quorum::majority(total);
      return true;
    }
    for (const Cluster::InstallRecord& r : c.installs()) {
      if (r.version == qr_version) {
        spec = r.spec;
        return true;
      }
    }
    return false;
  };
  for (const msg::AccessOutcome& o : c.outcomes()) {
    if (!o.granted) continue;
    quorum::QuorumSpec spec;
    if (!spec_of(o.qr_version, spec)) {
      v.properties.push_back(PropertyViolation{
          "grant-without-quorum",
          "granted access at site " + std::to_string(o.origin) +
              " ran under QR version " + std::to_string(o.qr_version) +
              " which was never installed"});
      continue;
    }
    const bool ok = o.is_read ? spec.allows_read(o.votes_collected)
                              : spec.allows_write(o.votes_collected);
    if (!ok) {
      v.properties.push_back(PropertyViolation{
          "grant-without-quorum",
          std::string("granted ") + (o.is_read ? "read" : "write") +
              " at site " + std::to_string(o.origin) + " collected " +
              std::to_string(o.votes_collected) + " votes < quorum (" +
              std::to_string(o.is_read ? spec.q_r : spec.q_w) + ") under v" +
              std::to_string(o.qr_version)});
    }
  }

  if (v.safety.ok() && v.properties.empty()) return std::nullopt;
  return v;
}

bool Explorer::dfs(std::size_t depth, std::vector<Choice>& path) {
  Frame& f = frames_[depth];
  const msg::Cluster& cur = *f.cluster;
  ++stats_.explored;
  stats_.max_depth_seen = std::max<std::uint64_t>(stats_.max_depth_seen, depth);

  stored_qr_versions(cur, f.qr);
  const std::vector<std::uint64_t>& prev_qr =
      depth == 0 ? f.qr : frames_[depth - 1].qr;
  if (std::optional<Violation> v =
          check_state(cur, prev_qr, f.qr, safety_scratch_)) {
    v->trace = path;
    found_ = std::move(v);
    return true;
  }

  // Visited set with the DPOR covering rule: a fingerprint revisited
  // under sleep set S is pruned only if it was already explored under
  // some S' ⊆ S — then everything S would allow was already tried.
  f.sleep_keys.clear();
  for (const SleepEntry& z : f.sleep) f.sleep_keys.push_back(z.key);
  std::sort(f.sleep_keys.begin(), f.sleep_keys.end());
  const std::array<std::uint64_t, 2> masks{f.submitted, f.faulted};
  const VisitedSet::Fingerprint fp = cur.model_fingerprint(masks);
  const std::size_t slot = visited_.find(fp);
  if (visited_.fresh(slot)) {
    ++stats_.unique_states;
    if (stats_.unique_states > scope_->max_states) {
      stats_.state_capped = true;
      return false;
    }
  } else if (visited_.covered(slot, f.sleep_keys)) {
    ++stats_.visited_hits;
    return false;
  }
  visited_.add(slot, fp, f.sleep_keys);

  enabled_transitions(cur, f.submitted, f.faulted, f.events, f.todo);
  if (f.todo.empty()) return false;  // quiescent: everything resolved

  const auto asleep = [&f](const Transition& t) {
    return std::binary_search(f.sleep_keys.begin(), f.sleep_keys.end(), t.key);
  };
  const std::size_t enabled = f.todo.size();
  std::erase_if(f.todo, asleep);
  stats_.sleep_pruned += enabled - f.todo.size();
  if (f.todo.empty()) return false;

  if (depth >= scope_->max_depth) {
    stats_.depth_capped = true;
    return false;
  }

  if (frames_.size() == depth + 1) frames_.emplace_back();
  Frame& child = frames_[depth + 1];
  for (const Transition& t : f.todo) {
    if (&t == &f.todo.back()) {
      // Nothing reads this depth's state once its last child starts, so
      // the child takes the object instead of a copy. The object does not
      // move, so its tracker stays bound to its own network.
      f.cluster.swap(child.cluster);
    } else {
      if (child.cluster) {
        *child.cluster = cur;
      } else {
        child.cluster = std::make_unique<msg::Cluster>(cur);
      }
      child.cluster->model_rebind();
    }
    child.submitted = f.submitted;
    child.faulted = f.faulted;
    apply(*child.cluster, t, child.submitted, child.faulted);
    ++stats_.transitions;

    // Sleep entries independent of t stay asleep in the child; a
    // dependent one is woken (its orderings relative to t now matter).
    child.sleep.clear();
    for (const SleepEntry& z : f.sleep) {
      const bool dependent = z.global || t.global || z.site == t.site;
      if (!dependent) child.sleep.push_back(z);
    }

    path.push_back(t.choice);
    if (dfs(depth + 1, path)) return true;
    path.pop_back();
    if (stats_.state_capped) return false;

    if (opt_.dpor) {
      f.sleep.push_back(SleepEntry{t.key, t.site, t.global});
    }
  }
  return false;
}

std::optional<Violation> Explorer::run() {
  stats_ = Stats{};
  visited_.clear();
  frames_.clear();
  found_.reset();

  frames_.emplace_back().cluster = std::make_unique<msg::Cluster>(make_cluster());
  frames_[0].cluster->model_rebind();
  std::vector<Choice> path;
  dfs(0, path);
  return std::move(found_);
}

std::optional<Violation> Explorer::replay(
    const std::vector<Choice>& trace) const {
  msg::Cluster c = make_cluster();
  std::uint32_t submitted = 0;
  std::uint32_t faulted = 0;
  std::vector<std::uint64_t> prev_qr;
  std::vector<std::uint64_t> cur_qr;
  stored_qr_versions(c, prev_qr);
  std::vector<Cluster::ModelEvent> events;
  std::vector<Transition> enabled;
  std::vector<Choice> done;
  msg::SafetyScratch scratch;

  if (std::optional<Violation> v = check_state(c, prev_qr, prev_qr, scratch)) {
    v->trace = done;
    return v;
  }
  for (const Choice& choice : trace) {
    // Resolve the recorded choice in this state; it may no longer apply.
    enabled_transitions(c, submitted, faulted, events, enabled);
    const auto t = std::find_if(
        enabled.begin(), enabled.end(),
        [&choice](const Transition& e) { return same_choice(e.choice, choice); });
    if (t == enabled.end()) return std::nullopt;
    apply(c, *t, submitted, faulted);
    done.push_back(t->choice);
    stored_qr_versions(c, cur_qr);
    if (std::optional<Violation> v = check_state(c, prev_qr, cur_qr, scratch)) {
      v->trace = done;
      return v;
    }
    prev_qr.swap(cur_qr);
  }
  return std::nullopt;
}

std::vector<Choice> Explorer::minimize(const Violation& seed) const {
  const std::vector<std::string> target = seed.codes();
  const auto covers = [&target](const Violation& v) {
    const std::vector<std::string> got = v.codes();
    return std::includes(got.begin(), got.end(), target.begin(),
                         target.end());
  };

  // The seed trace is already truncated at its first violating state;
  // re-replay to normalize in case the caller assembled it by hand.
  std::vector<Choice> best = seed.trace;
  if (std::optional<Violation> v = replay(best); v && covers(*v)) {
    best = v->trace;
  }

  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < best.size(); ++i) {
      std::vector<Choice> candidate;
      candidate.reserve(best.size() - 1);
      for (std::size_t j = 0; j < best.size(); ++j) {
        if (j != i) candidate.push_back(best[j]);
      }
      std::optional<Violation> v = replay(candidate);
      if (v && covers(*v)) {
        best = std::move(v->trace);  // also truncates
        shrunk = true;
        break;
      }
    }
  }
  return best;
}

} // namespace quora::model
