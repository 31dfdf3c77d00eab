#include "msg/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/contracts.hpp"
#include "rng/distributions.hpp"

namespace quora::msg {
namespace {

/// The flood a message belongs to: phase 1 (votes), 2 (commit), 3 (abort).
int flood_phase(Message::Kind kind) {
  switch (kind) {
    case Message::Kind::kVoteRequest:
    case Message::Kind::kVoteReply:
    case Message::Kind::kVoteDeny: return 1;
    case Message::Kind::kCommitRequest:
    case Message::Kind::kCommitAck: return 2;
    case Message::Kind::kAbort: return 3;
  }
  return 3;
}

/// Replies travel back to their coordinator along the flood's parent links.
bool is_reply(Message::Kind kind) {
  return kind == Message::Kind::kVoteReply || kind == Message::Kind::kVoteDeny ||
         kind == Message::Kind::kCommitAck;
}

} // namespace

const char* deny_reason_name(DenyReason reason) {
  switch (reason) {
    case DenyReason::kNone: return "none";
    case DenyReason::kOriginDown: return "origin-down";
    case DenyReason::kTimeout: return "timeout";
    case DenyReason::kNoQuorum: return "no-quorum";
    case DenyReason::kCoordinatorCrash: return "coordinator-crash";
    case DenyReason::kStaleAssignment: return "stale-assignment";
    case DenyReason::kAbandoned: return "abandoned";
  }
  return "unknown";
}

Cluster::Cluster(const net::Topology& topo, Params params, std::uint64_t seed)
    : topo_(&topo),
      params_(params),
      live_(topo),
      tracker_(live_),
      qr_(topo, params.spec),
      gen_(seed) {
  params_.config.validate();
  if (!params_.spec.valid(topo.total_votes())) {
    throw std::invalid_argument("Cluster: invalid quorum assignment");
  }
  if (!(params_.mean_hop_latency > 0.0) || !(params_.phase_timeout > 0.0)) {
    throw std::invalid_argument("Cluster: latency and timeout must be positive");
  }
  if (!(params_.alpha >= 0.0 && params_.alpha <= 1.0)) {
    throw std::invalid_argument("Cluster: alpha outside [0,1]");
  }
  if (params_.backoff_base < 0.0 || params_.access_budget < 0.0 ||
      !(params_.backoff_jitter >= 0.0 && params_.backoff_jitter <= 1.0)) {
    throw std::invalid_argument("Cluster: negative retry/timeout parameter");
  }
  if (params_.max_retries > Params::kMaxRetryBudget) {
    throw std::invalid_argument(
        "Cluster: max_retries exceeds kMaxRetryBudget (64): doubling "
        "backoff overflows any plausible schedule first");
  }
  // The throws above use `!(x > 0)` style comparisons that a NaN slips
  // through; contracts catch what validation cannot express.
  QUORA_PRECONDITION(std::isfinite(params_.mean_hop_latency) &&
                         std::isfinite(params_.phase_timeout) &&
                         std::isfinite(params_.backoff_base) &&
                         std::isfinite(params_.backoff_jitter) &&
                         std::isfinite(params_.access_budget) &&
                         std::isfinite(params_.alpha),
                     "Cluster::Params: every timing parameter must be finite");

  if (params_.model_mode) {
    // Untimed-asynchrony abstraction: the explorer fires events in any
    // order and the logical clock ticks once per transition, so a finite
    // lease would let reordering fabricate lease-expiry races that no
    // timed schedule exhibits. Leases release only via commit, abort, or
    // crash. Retries are disabled for the same reason: a backoff is a
    // timed, jittered wait, and the model scheduler has neither.
    lease_lifetime_ = 1e12;
    params_.max_retries = 0;
    channels_.resize(2 * static_cast<std::size_t>(topo.link_count()));
    model_sections_.resize(1 + topo.site_count() + channels_.size());
  } else {
    // One attempt's worst-case window: phase 1 plus the commit deadline,
    // with slack. Retries abort the old request id first, so the lease
    // only ever has to cover a single attempt.
    lease_lifetime_ = 1.5 * params_.phase_timeout + params_.phase_timeout;
  }
  copies_.assign(topo.site_count(), Copy{});
  leases_.assign(topo.site_count(), Lease{});
  pending_.resize(topo.site_count());
  floods_.resize(topo.site_count());
  fifo_clock_.assign(2 * static_cast<std::size_t>(topo.link_count()), 0.0);
  dir_blocked_.assign(2 * static_cast<std::size_t>(topo.link_count()), 0);

  hop_latency_.assign(topo.link_count(), net::LinkLatency{});
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    const net::LinkLatency lat = topo.link_latency(l);
    // Unannotated links ({0,0}) resolve to pure exponential jitter with
    // the uniform mean: base 0 + Exp(mean_hop_latency) is the exact
    // legacy draw, so unannotated runs replay byte-identically.
    hop_latency_[l] = (lat.base > 0.0 || lat.jitter > 0.0)
                          ? lat
                          : net::LinkLatency{0.0, params_.mean_hop_latency};
  }

  if (topo.has_domains()) {
    region_names_ = topo.regions();
    site_region_.assign(topo.site_count(), kNoRegion);
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const std::string rg = topo.domain_prefix(s, 1);
      if (rg.empty()) continue;
      for (std::size_t i = 0; i < region_names_.size(); ++i) {
        if (region_names_[i] == rg) {
          site_region_[s] = static_cast<std::uint32_t>(i);
          break;
        }
      }
    }
  }

  if (params_.model_mode) return;  // no Poisson background events

  down_holds_.assign(topo.site_count(), 0);
  const double mu_f = params_.config.mu_fail();
  for (net::SiteId s = 0; s < topo.site_count(); ++s) {
    schedule(rng::exponential(gen_, mu_f), Kind::kSiteFail, s);
  }
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    schedule(rng::exponential(gen_, mu_f), Kind::kLinkFail, l);
  }
  const double interarrival =
      params_.config.mu_access / static_cast<double>(topo.site_count());
  schedule(rng::exponential(gen_, interarrival), Kind::kAccess, 0);
}

void Cluster::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  if (trace != nullptr) trace->set_clock(&now_);
  qr_.set_trace(trace);
  tracker_.set_trace(trace);
}

void Cluster::set_metrics(obs::Registry* registry) {
  registry_ = registry;
  obs_accesses_ = obs::counter(registry, "cluster.accesses");
  obs_grants_ = obs::counter(registry, "cluster.grants");
  obs_retries_ = obs::counter(registry, "cluster.retries");
  // One deny counter per reason code; index 0 (kNone) stays detached.
  for (std::size_t r = 1; r < kDenyReasonCount; ++r) {
    obs_denies_[r] = obs::counter(
        registry, std::string("cluster.denies.") +
                      deny_reason_name(static_cast<DenyReason>(r)));
  }
  const std::vector<double> latency_buckets(kLatencyBucketsSeconds.begin(),
                                            kLatencyBucketsSeconds.end());
  obs_access_latency_ = obs::histogram(
      registry, "cluster.access_latency_seconds", latency_buckets);
  obs_phase1_latency_ =
      obs::histogram(registry, "cluster.phase1_seconds", latency_buckets);
  obs_commit_latency_ =
      obs::histogram(registry, "cluster.commit_seconds", latency_buckets);
  obs_adapt_epochs_ = obs::counter(registry, "adapt.epochs");
  obs_adapt_installs_ = obs::counter(registry, "adapt.installs");
  obs_adapt_refused_ = obs::counter(registry, "adapt.installs_refused");
  // Gains can be negative (a mispredicted install); bucket both tails.
  const std::vector<double> gain_buckets{-0.5, -0.2, -0.1, -0.05, -0.02,
                                         0.0,  0.02, 0.05, 0.1,   0.2, 0.5};
  obs_adapt_predicted_gain_ =
      obs::histogram(registry, "adapt.predicted_gain", gain_buckets);
  obs_adapt_realized_gain_ =
      obs::histogram(registry, "adapt.realized_gain", gain_buckets);
  // Per-domain breakdown: one grant/deny counter pair and one latency
  // histogram per region (level-1 domain) of an annotated topology.
  obs_region_grants_.assign(region_names_.size(), obs::Counter{});
  obs_region_denies_.assign(region_names_.size(), obs::Counter{});
  obs_region_latency_.assign(region_names_.size(), obs::Histogram{});
  for (std::size_t r = 0; r < region_names_.size(); ++r) {
    const std::string prefix = "cluster.domain." + region_names_[r];
    obs_region_grants_[r] = obs::counter(registry, prefix + ".grants");
    obs_region_denies_[r] = obs::counter(registry, prefix + ".denies");
    obs_region_latency_[r] = obs::histogram(
        registry, prefix + ".access_latency_seconds", latency_buckets);
  }
  qr_.set_metrics(registry);
  tracker_.set_metrics(registry);
  if (injector_ != nullptr) injector_->set_metrics(registry);
}

void Cluster::attach_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  injector->set_topology(topo_);
  if (registry_ != nullptr) injector->set_metrics(registry_);
  const auto& timeline = injector->timeline();
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    Event e;
    e.time = timeline[i].time;
    e.kind = Kind::kFault;
    e.index = static_cast<std::uint32_t>(i);
    queue_.push(e);
  }
}

void Cluster::attach_log(fault::EventLog* log) { log_ = log; }

void Cluster::attach_adaptive(adapt::AdaptiveController* controller) {
  adaptive_ = controller;
  if (controller == nullptr) return;
  if (controller->histogram().site_count() != topo_->site_count() ||
      controller->histogram().total_votes() != topo_->total_votes()) {
    throw std::invalid_argument(
        "Cluster::attach_adaptive: controller sized for a different system");
  }
  adapt_window_start_ = outcomes_.size();
  schedule(controller->options().epoch_length, Kind::kAdaptEpoch, 0);
}

void Cluster::schedule(double delay, Kind kind, std::uint32_t index) {
  queue_.push(Event{now_ + delay, 0, kind, index, 0});
}

void Cluster::arm_timer(net::SiteId site, std::uint64_t request, int phase) {
  const Payload timer{{}, site, request, phase};
  if (params_.model_mode) {
    const auto after = std::upper_bound(
        timers_.begin(), timers_.end(), timer,
        [](const Payload& a, const ModelEntry& b) {
          return std::tuple(a.target, a.request, a.phase) <
                 std::tuple(b.payload.target, b.payload.request, b.payload.phase);
        });
    timers_.insert(after, ModelEntry{model_seq_++, timer});
    return;
  }
  queue_.push(Event{now_ + params_.phase_timeout, 0, Kind::kTimer, 0,
                    store(timer)});
}

std::uint32_t Cluster::store(const Payload& p) {
  if (free_slots_.empty()) {
    slab_.push_back(p);
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slab_[slot] = p;
  return slot;
}

Cluster::Payload Cluster::take(std::uint32_t slot) {
  free_slots_.push_back(slot);
  return slab_[slot];
}

void Cluster::stamp(Message& m, net::SiteId author) const {
  const core::QuorumReassignment::Assignment& a = qr_.stored(author);
  m.qr_version = a.version;
  m.qr_r = a.spec.q_r;
  m.qr_w = a.spec.q_w;
}

void Cluster::maybe_adopt(net::SiteId here, const Message& m) {
  if (m.qr_version > qr_.stored(here).version) {
    qr_.adopt(here, core::QuorumReassignment::Assignment{
                        quorum::QuorumSpec{m.qr_r, m.qr_w}, m.qr_version});
  }
}

void Cluster::send(net::SiteId from, net::LinkId link, const Message& m) {
  const net::Link& edge = topo_->link(link);
  const net::SiteId to = edge.a == from ? edge.b : edge.a;
  const std::size_t dir = direction(link, to);
  Payload delivery{m, to, 0, 0};
  delivery.message.sender = from;
  ++messages_sent_;
  if (params_.model_mode) {
    // Untimed: a direction's channel order is its delivery order, so no
    // latency is drawn and no injector consulted.
    channels_[dir].push_back(ModelEntry{model_seq_++, delivery});
    model_touch_channel(dir);
    return;
  }

  const net::LinkLatency& hop = hop_latency_[link];
  fault::MessageFault fate;
  if (injector_ != nullptr && injector_->has_rules()) {
    // The duplicate-copy latency draw is parameterized by this link's
    // mean hop latency (= mean_hop_latency on unannotated topologies).
    fate = injector_->on_send(link, now_, hop.base + hop.jitter);
  }

  double hop_latency = hop.base + fate.extra_delay;
  if (hop.jitter > 0.0) hop_latency += rng::exponential(gen_, hop.jitter);
  const double arrival = std::max(fifo_clock_[dir], now_ + hop_latency);
  fifo_clock_[dir] = arrival;  // FIFO per direction

  if (fate.drop) {
    // Lost mid-flight. The FIFO clock already advanced past its would-be
    // arrival, so later messages keep their ordering.
    ++messages_dropped_;
  } else {
    queue_.push(Event{arrival, 0, Kind::kDelivery, link, store(delivery)});
  }
  if (fate.duplicate) {
    ++messages_sent_;
    ++messages_duplicated_;
    const double dup_arrival = std::max(fifo_clock_[dir], arrival + fate.dup_extra);
    fifo_clock_[dir] = dup_arrival;
    queue_.push(Event{dup_arrival, 0, Kind::kDelivery, link, store(delivery)});
  }
}

void Cluster::flood(net::SiteId from, const Message& m, net::LinkId except_link,
                    bool has_except) {
  for (const net::Topology::Edge& edge : topo_->neighbors(from)) {
    if (has_except && edge.link == except_link) continue;
    send(from, edge.link, m);
  }
}

void Cluster::start_flood(net::SiteId site, Message m) {
  flood_entry(site, flood_key(m.request, flood_phase(m.kind))) = kFloodRoot;
  m.coordinator = site;
  stamp(m, site);
  flood(site, m, 0, false);
}

void Cluster::answer(net::SiteId here, net::LinkId link, const Message& m,
                     Message::Kind kind, std::uint64_t version,
                     std::uint64_t value) {
  Message reply;
  reply.kind = kind;
  reply.request = m.request;
  reply.coordinator = m.coordinator;
  reply.replier = here;
  reply.votes = topo_->votes(here);
  reply.version = version;
  reply.value = value;
  stamp(reply, here);
  send(here, link, reply);
  flood(here, m, link, true);  // the flood continues regardless
}

void Cluster::relay_toward_coordinator(net::SiteId at, const Message& m) {
  const FloodWindow& w = floods_[at];
  // A key below the window wraps past its end, so one test covers both.
  const std::uint64_t i = flood_key(m.request, flood_phase(m.kind)) - w.base;
  if (i >= w.entries.size() || w.entries[i] <= kFloodRoot) return;  // path lost
  send(at, w.entries[i] - 2, m);
}

std::uint32_t& Cluster::flood_entry(net::SiteId site, std::uint64_t key) {
  FloodWindow& w = floods_[site];
  if (w.entries.empty()) {
    w.base = key;
  } else if (key < w.base) {
    // An older flood reaches the site after a newer one, e.g. a message
    // sent before the site last failed: extend the window downward.
    w.entries.insert(w.entries.begin(), w.base - key, 0);
    w.base = key;
  }
  const std::uint64_t i = key - w.base;
  if (i >= w.entries.size()) w.entries.resize(i + 1, 0);
  return w.entries[i];
}

Cluster::Coordinations::iterator Cluster::find_request(Coordinations& coords,
                                                       std::uint64_t request) {
  const auto it = std::lower_bound(
      coords.begin(), coords.end(), request,
      [](const auto& entry, std::uint64_t r) { return entry.first < r; });
  return it != coords.end() && it->first == request ? it : coords.end();
}

Cluster::Pending* Cluster::find_coordination(net::SiteId site,
                                             std::uint64_t request, int phase) {
  const auto it = find_request(pending_[site], request);
  if (it == pending_[site].end() || it->second.phase != phase) return nullptr;
  return &it->second;
}

bool Cluster::lease_vote(net::SiteId site, std::uint64_t request) {
  Lease& lease = leases_[site];
  if (lease.held(now_) && lease.request != request) return false;
  lease = Lease{request, now_ + lease_lifetime_};
  return true;
}

void Cluster::release_lease(net::SiteId site, std::uint64_t request) {
  if (leases_[site].request == request) leases_[site] = Lease{};
}

void Cluster::handle_access(net::SiteId origin) {
  const bool is_read = rng::bernoulli(gen_, params_.alpha);
  submit_access(origin, is_read);
}

void Cluster::submit_access(net::SiteId origin, bool is_read) {
  const std::uint64_t request = next_request_++;
  QUORA_METRIC_ADD(obs_accesses_, 1);
  QUORA_TRACE(trace_, obs::EventKind::kAccessSubmit, origin, request, 0,
              is_read ? std::uint8_t{1} : std::uint8_t{0});

  // Oracle: the paper's instantaneous decision from global state, under
  // the assignment in effect for origin's component (§2.2).
  const net::Vote oracle_votes = tracker_.component_votes(origin);
  const quorum::QuorumSpec oracle_spec = qr_.effective(tracker_, origin).spec;
  const bool oracle = is_read ? oracle_spec.allows_read(oracle_votes)
                              : oracle_spec.allows_write(oracle_votes);

  if (!live_.is_site_up(origin)) {
    AccessOutcome out;
    out.submit_time = now_;
    out.decide_time = now_;
    out.origin = origin;
    out.is_read = is_read;
    out.deny_reason = DenyReason::kOriginDown;
    out.qr_version = qr_.stored(origin).version;
    out.oracle_granted = oracle;
    record_outcome(out, request);
    log_event("decide id=%llu origin=%u %s denied reason=%s",
              static_cast<unsigned long long>(request), origin,
              is_read ? "read" : "write", deny_reason_name(out.deny_reason));
    return;
  }

  // Adaptive estimator tap: accesses are Poisson arrivals, so sampling the
  // component vote total at submit instants yields unbiased time averages
  // (PASTA). The down-origin path above never records, which is exactly the
  // footnote-4 "sites observe only while operational" censoring the
  // estimator's read-out conditioning undoes.
  if (adaptive_ != nullptr) adaptive_->histogram().record(origin, oracle_votes);

  Pending p;
  p.is_read = is_read;
  p.submit_time = now_;
  p.oracle_granted = oracle;
  p.write_value = request;  // written payload: the request id (test-visible)
  pending_[origin].emplace_back(request, std::move(p));
  start_coordination(origin, request);
}

void Cluster::start_coordination(net::SiteId origin, std::uint64_t request) {
  // The reference stays valid: nothing below adds to pending_[origin], and
  // every call that erases from it (decide, begin_commit's crash) is the
  // last thing done with `p`.
  Pending& p = find_request(pending_[origin], request)->second;
  // Fresh attempt: snapshot the locally stored assignment and copy. A
  // retry re-reads both — the previous attempt may have adopted a newer
  // QR assignment from a stale-deny, or seen a commit land locally.
  const core::QuorumReassignment::Assignment assign = qr_.stored(origin);
  p.spec = assign.spec;
  p.qr_version = assign.version;
  p.phase = 1;
  p.votes = topo_->votes(origin);
  p.denied = 0;
  p.acked = 0;
  p.repliers.clear();
  p.repliers.insert(origin);
  p.ackers.clear();
  p.best_version = copies_[origin].version;
  p.best_value = copies_[origin].value;
  QUORA_OBS_ONLY(p.obs_attempt_start = now_;)
  QUORA_TRACE(trace_, obs::EventKind::kRoundStart, origin, request,
              p.obs_prev_request, static_cast<std::uint8_t>(p.attempt));

  if (!p.is_read && !lease_vote(origin, request)) {
    // Our own vote is leased to another in-flight write: this write
    // cannot proceed from here right now.
    decide(origin, request, false, DenyReason::kNoQuorum);
    return;
  }

  Message m;
  m.kind = Message::Kind::kVoteRequest;
  m.is_write = !p.is_read;
  m.request = request;
  start_flood(origin, m);
  arm_timer(origin, request, 1);

  // Single-site quorums decide immediately.
  if (p.is_read && p.spec.allows_read(p.votes)) {
    decide(origin, request, true);
  } else if (!p.is_read && p.spec.allows_write(p.votes)) {
    begin_commit(origin, request, p);
  }
}

void Cluster::begin_commit(net::SiteId site, std::uint64_t request,
                           Pending& p) {
  p.phase = 2;
  QUORA_METRIC_RECORD(obs_phase1_latency_, now_ - p.obs_attempt_start);
  QUORA_OBS_ONLY(p.obs_phase2_start = now_;)
  p.best_version = p.best_version + 1;
  copies_[site] = Copy{p.write_value, p.best_version};
  release_lease(site, request);
  p.acked = topo_->votes(site);
  p.ackers.insert(site);
  if (!p.spec.allows_write(p.acked)) {
    // Install the new version everywhere reachable.
    Message commit;
    commit.kind = Message::Kind::kCommitRequest;
    commit.request = request;
    commit.version = p.best_version;
    commit.value = p.write_value;
    start_flood(site, commit);
    arm_timer(site, request, 2);
  }
  // The partial-write scenario: the commit flood has departed, the ack
  // quorum has not assembled — a scripted crash lands exactly in the gap.
  if (maybe_crash_on_commit(site, request)) return;
  // A degenerate write quorum: the local commit alone decides.
  if (p.spec.allows_write(p.acked)) decide(site, request, true);
}

void Cluster::retry(net::SiteId coordinator, std::uint64_t old_request) {
  const auto it = find_request(pending_[coordinator], old_request);
  Pending p = std::move(it->second);
  pending_[coordinator].erase(it);
  // A write floods an abort, which also frees our own lease, so remote
  // leases for the dead attempt free up instead of starving the retry.
  if (!p.is_read) abort_flood(coordinator, old_request);

  ++p.attempt;
  ++retries_;
  QUORA_METRIC_ADD(obs_retries_, 1);
  QUORA_OBS_ONLY(p.obs_prev_request = old_request;)
  const std::uint64_t request = next_request_++;
  const double base = params_.backoff_base > 0.0 ? params_.backoff_base
                                                 : 0.25 * params_.phase_timeout;
  double backoff =
      base * std::pow(2.0, static_cast<double>(p.attempt) - 1.0);
  if (params_.backoff_jitter > 0.0) {
    // Jitter around the nominal value, in [1 - j/2, 1 + j/2).
    backoff *= 1.0 - 0.5 * params_.backoff_jitter +
               params_.backoff_jitter * gen_.next_double();
  }

  log_event("retry id=%llu origin=%u attempt=%u next=%llu",
            static_cast<unsigned long long>(old_request), coordinator,
            p.attempt, static_cast<unsigned long long>(request));

  pending_[coordinator].emplace_back(request, std::move(p));
  queue_.push(Event{now_ + backoff, 0, Kind::kRetry, 0,
                    store(Payload{{}, coordinator, request, 0})});
}

void Cluster::decide(net::SiteId coordinator, std::uint64_t request,
                     bool granted, DenyReason reason) {
  const auto it = find_request(pending_[coordinator], request);
  if (it == pending_[coordinator].end()) return;
  const Pending& p = it->second;

  AccessOutcome out;
  out.submit_time = p.submit_time;
  out.decide_time = now_;
  out.origin = coordinator;
  out.is_read = p.is_read;
  out.granted = granted;
  out.deny_reason =
      granted ? DenyReason::kNone
              : (reason == DenyReason::kNone ? DenyReason::kTimeout : reason);
  out.attempts = p.attempt;
  out.votes_collected = granted ? (p.is_read ? p.votes : p.acked) : 0;
  out.qr_version = p.qr_version;
  out.oracle_granted = p.oracle_granted;
  out.version = p.best_version;
  out.value = p.is_read ? p.best_value : p.write_value;
  if (!p.is_read && granted) {
    commits_.push_back(CommitRecord{p.best_version, now_});
  }

  QUORA_TRACE(trace_, obs::EventKind::kRoundFinish, coordinator, request, 0,
              static_cast<std::uint8_t>(p.phase));
  record_outcome(out, request);
  QUORA_OBS_ONLY(if (p.phase == 2) {
    QUORA_METRIC_RECORD(obs_commit_latency_, now_ - p.obs_phase2_start);
  } else {
    QUORA_METRIC_RECORD(obs_phase1_latency_, now_ - p.obs_attempt_start);
  })

  log_event(
      "decide id=%llu origin=%u %s %s reason=%s qrv=%llu v=%llu attempt=%u",
      static_cast<unsigned long long>(request), coordinator,
      p.is_read ? "read" : "write", granted ? "granted" : "denied",
      deny_reason_name(out.deny_reason),
      static_cast<unsigned long long>(out.qr_version),
      static_cast<unsigned long long>(out.version), p.attempt);

  const bool abort_write = !p.is_read && !granted;
  pending_[coordinator].erase(it);

  if (abort_write) abort_flood(coordinator, request);
}

void Cluster::record_outcome(const AccessOutcome& out,
                             [[maybe_unused]] std::uint64_t request) {
  outcomes_.push_back(out);
  if (out.granted) {
    QUORA_METRIC_ADD(obs_grants_, 1);
    QUORA_TRACE(trace_, obs::EventKind::kAccessGrant, out.origin, request,
                out.version, static_cast<std::uint8_t>(out.attempts));
  } else {
    QUORA_METRIC_ADD(
        obs_denies_[static_cast<std::size_t>(out.deny_reason)], 1);
    QUORA_TRACE(trace_, obs::EventKind::kAccessDeny, out.origin, request,
                out.version, static_cast<std::uint8_t>(out.deny_reason));
  }
  [[maybe_unused]] const double latency = out.decide_time - out.submit_time;
  QUORA_METRIC_RECORD(obs_access_latency_, latency);
  // Per-domain (region-level) breakdown; none on unannotated topologies
  // or for sites outside every region.
  if (site_region_.empty()) return;
  const std::uint32_t r = site_region_[out.origin];
  if (r == kNoRegion || r >= obs_region_grants_.size()) return;
  if (out.granted) {
    QUORA_METRIC_ADD(obs_region_grants_[r], 1);
  } else {
    QUORA_METRIC_ADD(obs_region_denies_[r], 1);
  }
  QUORA_METRIC_RECORD(obs_region_latency_[r], latency);
}

void Cluster::abort_flood(net::SiteId coordinator, std::uint64_t request) {
  if (!live_.is_site_up(coordinator)) return;
  // Release leased votes proactively; lease expiry covers the sites an
  // abort cannot reach.
  release_lease(coordinator, request);
  Message abort;
  abort.kind = Message::Kind::kAbort;
  abort.request = request;
  start_flood(coordinator, abort);
}

void Cluster::handle_delivery(net::LinkId link, const Payload& delivery) {
  const Message& m = delivery.message;
  const net::SiteId here = delivery.target;
  // In-flight messages die with the link or the destination.
  if (!live_.is_link_up(link) || !live_.is_site_up(here)) return;
  // One-way cuts discard at delivery time too — but invisibly to
  // LiveNetwork, so the oracle still believes the link works (gray).
  if (dir_blocked_[direction(link, here)] != 0) {
    ++oneway_losses_;
    return;
  }

  // §2.2 gossip: every message carries its author's assignment; any
  // receiver behind it adopts before acting.
  maybe_adopt(here, m);

  if (is_reply(m.kind)) {
    if (here != m.coordinator) {
      relay_toward_coordinator(here, m);
      return;
    }
  } else {
    std::uint32_t& entry =
        flood_entry(here, flood_key(m.request, flood_phase(m.kind)));
    if (entry != 0) return;  // already participated in this flood
    entry = link + 2;
  }

  switch (m.kind) {
    case Message::Kind::kVoteRequest: {
      // Stale-version rejection (§2.2): a coordinator running a superseded
      // assignment is refused, and the deny carries the newer assignment
      // back so it can adopt. Otherwise a write vote is refused while it
      // is leased to another write.
      const bool stale = m.qr_version < qr_.stored(here).version &&
                         !params_.mutations.accept_stale_qr;
      const bool vote_granted =
          !stale && (!m.is_write || lease_vote(here, m.request));
      answer(here, link, m,
             vote_granted ? Message::Kind::kVoteReply : Message::Kind::kVoteDeny,
             copies_[here].version, copies_[here].value);
      return;
    }
    case Message::Kind::kCommitRequest:
      if (m.version > copies_[here].version) {
        copies_[here] = Copy{m.value, m.version};
      }
      release_lease(here, m.request);
      answer(here, link, m, Message::Kind::kCommitAck, m.version, 0);
      return;
    case Message::Kind::kAbort:
      release_lease(here, m.request);
      flood(here, m, link, true);
      return;
    case Message::Kind::kVoteDeny: {
      Pending* p = find_coordination(here, m.request, 1);
      if (p == nullptr || !p->repliers.insert(m.replier)) return;
      if (m.qr_version > p->qr_version) {
        // The replier holds a newer QR assignment than this coordination
        // ran under: the access must not proceed. (We already adopted the
        // newer assignment above; fresh accesses use it.)
        ++stale_rejections_;
        log_event("stale-reject id=%llu coord=%u coord_qrv=%llu seen_qrv=%llu",
                  static_cast<unsigned long long>(m.request), here,
                  static_cast<unsigned long long>(p->qr_version),
                  static_cast<unsigned long long>(m.qr_version));
        decide(here, m.request, false, DenyReason::kStaleAssignment);
        return;
      }
      p->denied += m.votes;
      // Fast abort: a write quorum is no longer reachable.
      if (!p->is_read && topo_->total_votes() - p->denied < p->spec.q_w) {
        decide(here, m.request, false, DenyReason::kNoQuorum);
      }
      return;
    }
    case Message::Kind::kVoteReply: {
      Pending* p = find_coordination(here, m.request, 1);
      if (p == nullptr || !p->repliers.insert(m.replier)) return;
      p->votes += m.votes;
      if (m.version > p->best_version) {
        p->best_version = m.version;
        p->best_value = m.value;
      }
      if (p->is_read) {
        if (p->spec.allows_read(p->votes)) decide(here, m.request, true);
      } else if (p->spec.allows_write(p->votes)) {
        begin_commit(here, m.request, *p);
      }
      return;
    }
    case Message::Kind::kCommitAck: {
      Pending* p = find_coordination(here, m.request, 2);
      if (p == nullptr || !p->ackers.insert(m.replier)) return;
      p->acked += m.votes;
      if (p->spec.allows_write(p->acked)) decide(here, m.request, true);
      return;
    }
  }
}

void Cluster::handle_timer(const Payload& timer) {
  const Pending* p = find_coordination(timer.target, timer.request, timer.phase);
  if (p == nullptr) return;  // already decided, or superseded by phase 2
  const bool budget_ok =
      params_.access_budget <= 0.0 ||
      now_ - p->submit_time < params_.access_budget;
  if (timer.phase == 1 && p->attempt < params_.max_retries && budget_ok &&
      live_.is_site_up(timer.target)) {
    retry(timer.target, timer.request);
    return;
  }
  decide(timer.target, timer.request, false,
         p->attempt > 0 ? DenyReason::kAbandoned : DenyReason::kTimeout);
}

bool Cluster::maybe_crash_on_commit(net::SiteId coordinator,
                                    std::uint64_t request) {
  if (injector_ == nullptr) return false;
  const std::optional<double> down_for =
      injector_->take_crash_on_commit(coordinator);
  if (!down_for) return false;
  log_event("crash-on-commit coord=%u id=%llu down_for=%.6f",
            coordinator, static_cast<unsigned long long>(request), *down_for);
  QUORA_TRACE(trace_, obs::EventKind::kFaultInject, coordinator, request, 0,
              obs::kFaultSite);
  live_.set_site_up(coordinator, false);
  on_site_failed(coordinator);
  maybe_cascade(coordinator);
  if (*down_for > 0.0) {
    // The site's own Poisson fail/repair chain is still pending, so it
    // comes back without a draw or a rescheduled failure, as a cascade
    // victim does.
    ++down_holds_[coordinator];
    schedule(*down_for, Kind::kFaultRecover, coordinator);
  } else {
    // duration == 0: crash with immediate restart. Volatile coordination
    // state is gone (the pending request just resolved coordinator-crash)
    // but the site never observably leaves the up set — no recovery event,
    // no extra Poisson rescheduling, no RNG draw.
    live_.set_site_up(coordinator, true);
    QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, coordinator, request, 0,
                obs::kFaultSite);
  }
  return true;
}

void Cluster::on_site_failed(net::SiteId s) {
  // Fail-stop: volatile coordination state is lost; every in-progress
  // coordination this site led resolves as denied right now. (The seeded
  // mutation keeps the coordinations alive across the crash — the bug the
  // model checker must rediscover as a duplicate commit version.)
  if (!params_.mutations.skip_crash_cleanup) {
    while (!pending_[s].empty()) {
      decide(s, pending_[s].begin()->first, false,
             DenyReason::kCoordinatorCrash);
    }
  }
  floods_[s] = FloodWindow{};  // frees the window's memory too
  leases_[s] = Lease{};  // volatile
}

void Cluster::release_hold(net::SiteId s) {
  QUORA_ASSERT(down_holds_[s] > 0, "a recovery without a hold");
  if (--down_holds_[s] != 0) return;
  live_.set_site_up(s, true);
  QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, s, 0, 0, obs::kFaultSite);
}

void Cluster::log_event(const char* fmt, ...) {
  if (log_ == nullptr) return;
  std::va_list args;
  va_start(args, fmt);
  std::va_list again;
  va_copy(again, args);
  // A line longer than the first guess (a long domain path, say) is
  // formatted again at the length the first pass measured.
  std::string line(255, '\0');
  const int n = std::vsnprintf(line.data(), line.size() + 1, fmt, args);
  line.resize(static_cast<std::size_t>(std::max(n, 0)));
  if (n > 255) std::vsnprintf(line.data(), line.size() + 1, fmt, again);
  va_end(again);
  va_end(args);
  log_->record(now_, line);
}

void Cluster::maybe_cascade(net::SiteId failed) {
  // Legacy plans carry no correlation rules: no draws, so their
  // transcripts stay byte-identical.
  if (injector_ == nullptr || !injector_->has_correlations()) return;
  for (const auto& [victim, down_for] : injector_->correlated_failures(failed)) {
    if (!live_.set_site_up(victim, false)) continue;  // already down
    on_site_failed(victim);
    log_event("fault correlated site=%u with=%u down_for=%.6f",
              victim, failed, down_for);
    QUORA_TRACE(trace_, obs::EventKind::kFaultInject, victim, 0, failed,
                obs::kFaultSite);
    // One level of contagion only: victims recover via kFaultRecover and
    // never cascade themselves, so a rack rule cannot melt the fleet.
    ++down_holds_[victim];
    schedule(down_for, Kind::kFaultRecover, victim);
  }
}

void Cluster::sync_component_copies(net::SiteId origin) {
  const std::int32_t comp = tracker_.component_of(origin);
  if (comp == conn::kNoComponent) return;
  const auto members = tracker_.members(comp);
  Copy best = copies_[origin];
  for (const net::SiteId s : members) {
    if (copies_[s].version > best.version) best = copies_[s];
  }
  for (const net::SiteId s : members) copies_[s] = best;
}

void Cluster::apply_fault(const fault::Action& action) {
  using K = fault::Action::Kind;
  switch (action.kind) {
    case K::kSiteDown: {
      const bool changed = live_.set_site_up(action.site, false);
      if (changed) on_site_failed(action.site);
      log_event("fault site-down %u", action.site);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, action.site, 0, 0,
                  obs::kFaultSite);
      if (changed) maybe_cascade(action.site);
      break;
    }
    case K::kSiteUp:
      live_.set_site_up(action.site, true);
      log_event("fault site-up %u", action.site);
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, action.site, 0, 0,
                  obs::kFaultSite);
      break;
    case K::kLinkDown:
      live_.set_link_up(action.link, false);
      log_event("fault link-down %u", action.link);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, action.link, 0, 0,
                  obs::kFaultLink);
      break;
    case K::kLinkUp:
      live_.set_link_up(action.link, true);
      log_event("fault link-up %u", action.link);
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, action.link, 0, 0,
                  obs::kFaultLink);
      break;
    case K::kPartition: {
      std::vector<std::int32_t> group(topo_->site_count(), -1);
      for (std::size_t g = 0; g < action.groups.size(); ++g) {
        for (const net::SiteId s : action.groups[g]) {
          if (s < topo_->site_count()) group[s] = static_cast<std::int32_t>(g);
        }
      }
      std::uint32_t cut = 0;
      for (net::LinkId l = 0; l < topo_->link_count(); ++l) {
        const net::Link& edge = topo_->link(l);
        if (group[edge.a] != -1 && group[edge.b] != -1 &&
            group[edge.a] != group[edge.b]) {
          if (live_.set_link_up(l, false)) ++cut;
        }
      }
      log_event("fault partition groups=%u cut=%u",
                static_cast<std::uint32_t>(action.groups.size()), cut);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, 0, 0, cut,
                  obs::kFaultPartition);
      break;
    }
    case K::kHeal:
      live_.reset_all_up();
      log_event("fault heal");
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, 0, 0, 0,
                  obs::kFaultHealAll);
      break;
    case K::kHealLinks:
      for (net::LinkId l = 0; l < topo_->link_count(); ++l) {
        live_.set_link_up(l, true);
      }
      log_event("fault heal-links");
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, 0, 0, 1,
                  obs::kFaultHealAll);
      break;
    case K::kReassign: {
      if (install_assignment(action.site, action.next)) {
        log_event(
            "fault reassign origin=%u qr=(%u,%u) v=%llu installed",
            action.site, action.next.q_r, action.next.q_w,
            static_cast<unsigned long long>(qr_.stored(action.site).version));
      } else {
        log_event("fault reassign origin=%u qr=(%u,%u) refused",
                  action.site, action.next.q_r, action.next.q_w);
      }
      break;
    }
    case K::kArmCrashOnCommit:
      injector_->arm_crash_on_commit(action.site, action.duration);
      log_event("fault arm-crash-on-commit site=%u",
                action.site);
      break;
    case K::kDomainDown: {
      // Scripted whole-domain outages do not cascade: the blast radius is
      // exactly the named domain, so scenarios stay composable.
      std::uint32_t downed = 0;
      for (const net::SiteId s : topo_->sites_in_domain(action.domain)) {
        if (live_.set_site_up(s, false)) {
          on_site_failed(s);
          ++downed;
        }
      }
      log_event("fault domain-down %s sites=%u",
                action.domain.c_str(), downed);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, 0, 0, downed,
                  obs::kFaultSite);
      break;
    }
    case K::kDomainUp: {
      std::uint32_t upped = 0;
      for (const net::SiteId s : topo_->sites_in_domain(action.domain)) {
        if (live_.set_site_up(s, true)) ++upped;
      }
      log_event("fault domain-up %s sites=%u",
                action.domain.c_str(), upped);
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, 0, 0, upped,
                  obs::kFaultSite);
      break;
    }
    case K::kSetAlpha:
      // Regime shifts mutate the parameter in place; only draws made after
      // this instant see the new value, so the run stays deterministic.
      params_.alpha = action.value;
      log_event("fault set-alpha %.6f", action.value);
      break;
    case K::kSetReliability:
      params_.config.reliability = action.value;
      log_event("fault set-reliability %.6f", action.value);
      break;
    case K::kSetRho:
      params_.config.rho = action.value;
      log_event("fault set-rho %.9f", action.value);
      break;
    case K::kAccess:
      // Scripted access: deterministic — no Poisson draw, no read/write
      // coin flip — so counterexample replays pin the exact sequence the
      // model checker explored.
      log_event("fault access origin=%u %s", action.site,
                action.is_read ? "read" : "write");
      submit_access(action.site, action.is_read);
      break;
    case K::kOneWayDown:
    case K::kOneWayUp: {
      const bool down = action.kind == K::kOneWayDown;
      const net::LinkId l = topo_->find_link(action.site, action.site_b);
      if (l == topo_->link_count()) {
        // audit_chaos flags this statically; at runtime it is a no-op.
        log_event("fault oneway-%s %u->%u no-link",
                  down ? "down" : "up", action.site, action.site_b);
        break;
      }
      dir_blocked_[direction(l, action.site_b)] = down ? 1 : 0;
      log_event("fault oneway-%s %u->%u link=%u",
                down ? "down" : "up", action.site, action.site_b, l);
      QUORA_TRACE(trace_,
                  down ? obs::EventKind::kFaultInject : obs::EventKind::kFaultHeal,
                  l, 0, 0, obs::kFaultLink);
      break;
    }
  }
}

void Cluster::step(const Event& e) {
  switch (e.kind) {
    case Kind::kSiteFail:
      ++down_holds_[e.index];
      live_.set_site_up(e.index, false);
      on_site_failed(e.index);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, e.index, 0, 0,
                  obs::kFaultSite);
      schedule(rng::exponential(gen_, params_.config.mu_repair()),
               Kind::kSiteRecover, e.index);
      maybe_cascade(e.index);
      break;
    case Kind::kSiteRecover:
      release_hold(e.index);
      schedule(rng::exponential(gen_, params_.config.mu_fail()),
               Kind::kSiteFail, e.index);
      break;
    case Kind::kLinkFail:
      live_.set_link_up(e.index, false);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, e.index, 0, 0,
                  obs::kFaultLink);
      schedule(rng::exponential(gen_, params_.config.mu_repair()),
               Kind::kLinkRecover, e.index);
      break;
    case Kind::kLinkRecover:
      live_.set_link_up(e.index, true);
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, e.index, 0, 0,
                  obs::kFaultLink);
      schedule(rng::exponential(gen_, params_.config.mu_fail()),
               Kind::kLinkFail, e.index);
      break;
    case Kind::kAccess: {
      const auto origin = static_cast<net::SiteId>(
          rng::uniform_index(gen_, topo_->site_count()));
      handle_access(origin);
      const double interarrival =
          params_.config.mu_access / static_cast<double>(topo_->site_count());
      schedule(rng::exponential(gen_, interarrival), Kind::kAccess, 0);
      break;
    }
    case Kind::kDelivery:
      handle_delivery(e.index, take(e.slot));
      break;
    case Kind::kTimer:
      handle_timer(take(e.slot));
      break;
    case Kind::kFault:
      apply_fault(injector_->timeline()[e.index]);
      break;
    case Kind::kRetry: {
      // The coordinator may have crashed while backing off (the pending
      // entry resolves as coordinator-crash when the site fails).
      const Payload p = take(e.slot);
      Coordinations& coords = pending_[p.target];
      if (find_request(coords, p.request) != coords.end() &&
          live_.is_site_up(p.target)) {
        start_coordination(p.target, p.request);
      }
      break;
    }
    case Kind::kFaultRecover:
      // A fault down-time ends. No Poisson rescheduling and no draw: the
      // site's own fail/repair process runs on.
      release_hold(e.index);
      break;
    case Kind::kAdaptEpoch:
      handle_adapt_epoch();
      break;
  }
}

bool Cluster::install_assignment(net::SiteId origin, quorum::QuorumSpec next) {
  if (!live_.is_site_up(origin) ||
      !qr_.try_install(tracker_, origin, next)) {
    return false;
  }
  // §2.2 one-copy serializability: the installing component holds a write
  // quorum under the old assignment, so it contains the newest copy —
  // spread it alongside the assignment, or a read quorum under the new
  // assignment could miss it (see core/reassign.hpp).
  sync_component_copies(origin);
  installs_.push_back(
      InstallRecord{qr_.stored(origin).version, now_, origin, next});
  return true;
}

void Cluster::handle_adapt_epoch() {
  // Epoch-window availability over the accesses decided since the previous
  // epoch boundary; this is the realized side of the predicted/realized
  // gain ledger.
  const std::size_t end = outcomes_.size();
  std::uint64_t granted = 0;
  for (std::size_t i = adapt_window_start_; i < end; ++i) {
    if (outcomes_[i].granted) ++granted;
  }
  const std::size_t window = end - adapt_window_start_;
  const double window_avail =
      window > 0 ? static_cast<double>(granted) / static_cast<double>(window)
                 : 0.0;
  adapt_window_start_ = end;

  QUORA_METRIC_ADD(obs_adapt_epochs_, 1);
  if (adapt_realized_pending_ && window > 0) {
    QUORA_METRIC_RECORD(obs_adapt_realized_gain_,
                        window_avail - adapt_pre_install_avail_);
    log_event("adapt realized avail=%.6f delta=%+.6f",
              window_avail, window_avail - adapt_pre_install_avail_);
    adapt_realized_pending_ = false;
  }

  // The loop's view of "current" is the assignment in effect at the
  // lowest-numbered operational site — the same site that would originate
  // an install, so prediction and installation agree on the baseline.
  if (const std::optional<net::SiteId> up = live_.first_up_site()) {
    const net::SiteId origin = *up;
    const quorum::QuorumSpec current = qr_.effective(tracker_, origin).spec;
    const adapt::AdaptiveController::Decision d =
        adaptive_->epoch(params_.alpha, current);
    if (d.evaluated) {
      QUORA_METRIC_RECORD(obs_adapt_predicted_gain_, d.predicted_gain);
      log_event("adapt epoch avail=%.6f cur=(%u,%u) cand=(%u,%u) gain=%+.6f "
                "streak=%u%s",
                window_avail, current.q_r, current.q_w, d.spec.q_r, d.spec.q_w,
                d.predicted_gain, d.streak, d.feasible ? "" : " infeasible");
    } else {
      log_event("adapt epoch avail=%.6f warming", window_avail);
    }
    if (d.install) {
      if (install_assignment(origin, d.spec)) {
        QUORA_METRIC_ADD(obs_adapt_installs_, 1);
        adapt_pre_install_avail_ = window_avail;
        adapt_realized_pending_ = true;
        log_event("adapt install origin=%u qr=(%u,%u) v=%llu predicted=%+.6f",
                  origin, d.spec.q_r, d.spec.q_w,
                  static_cast<unsigned long long>(qr_.stored(origin).version),
                  d.predicted_gain);
      } else {
        QUORA_METRIC_ADD(obs_adapt_refused_, 1);
        log_event("adapt install origin=%u qr=(%u,%u) refused",
                  origin, d.spec.q_r, d.spec.q_w);
      }
    }
  } else {
    log_event("adapt epoch skipped: no operational site");
  }
  schedule(adaptive_->options().epoch_length, Kind::kAdaptEpoch, 0);
}

void Cluster::run_decided_accesses(std::uint64_t count) {
  const std::size_t target = outcomes_.size() + count;
  while (outcomes_.size() < target) {
    const Event e = queue_.pop();
    now_ = e.time;
    step(e);
  }
}

void Cluster::run_until(double t_end) {
  while (!queue_.empty() && queue_.top().time <= t_end) {
    const Event e = queue_.pop();
    now_ = e.time;
    step(e);
  }
  now_ = t_end;
}

double Cluster::availability() const {
  if (outcomes_.empty()) return 0.0;
  std::uint64_t granted = 0;
  for (const AccessOutcome& o : outcomes_) granted += o.granted ? 1 : 0;
  return static_cast<double>(granted) / static_cast<double>(outcomes_.size());
}

double Cluster::oracle_availability() const {
  if (outcomes_.empty()) return 0.0;
  std::uint64_t granted = 0;
  for (const AccessOutcome& o : outcomes_) granted += o.oracle_granted ? 1 : 0;
  return static_cast<double>(granted) / static_cast<double>(outcomes_.size());
}

Cluster::Params chaos_params(const fault::ChaosSpec& spec) {
  Cluster::Params params;
  params.spec = spec.has_quorum
                    ? spec.quorum
                    : quorum::majority(spec.system->topology.total_votes());
  params.max_retries = 2;
  // Seeded protocol mutations (checker-validation fixtures): the plan
  // opts into a known-bad behaviour so the counterexample it carries
  // reproduces the violation. audit_chaos warns on these.
  for (const std::string& m : spec.mutations) {
    if (m == "accept-stale-qr") params.mutations.accept_stale_qr = true;
    if (m == "skip-crash-cleanup") params.mutations.skip_crash_cleanup = true;
  }
  const auto& actions = spec.plan.actions();
  if (std::any_of(actions.begin(), actions.end(), [](const fault::Action& a) {
        return a.kind == fault::Action::Kind::kSetReliability ||
               a.kind == fault::Action::Kind::kSetRho;
      })) {
    params.config.reliability = 0.96;
    params.config.rho = 1.0 / 128.0;
  } else {
    params.config.reliability = 0.999999;
    params.config.rho = 1e-9;
  }
  return params;
}

} // namespace quora::msg
