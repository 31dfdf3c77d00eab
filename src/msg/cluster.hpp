#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adapt/controller.hpp"
#include "conn/bitwords.hpp"
#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "core/analysis_annotations.hpp"
#include "core/reassign.hpp"
#include "fault/event_log.hpp"
#include "fault/injector.hpp"
#include "msg/message.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quorum/quorum_spec.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/config.hpp"
#include "sim/event.hpp"

namespace quora::msg {

/// Why an access was denied; `kNone` on grants. Distinct codes let the
/// chaos harness and the message-level benchmarks report *which* failure
/// mode ate an access instead of a bare denial count.
enum class DenyReason : std::uint8_t {
  kNone,              // granted
  kOriginDown,        // submitted at a failed site (the paper's ACC rule)
  kTimeout,           // a phase deadline passed with no retry budget used
  kNoQuorum,          // provably unreachable: vote-deny mass or lease conflict
  kCoordinatorCrash,  // the coordinating site failed mid-protocol
  kStaleAssignment,   // a voter held a newer QR assignment version (§2.2)
  kAbandoned,         // retries exhausted or the access budget ran out
};
inline constexpr std::size_t kDenyReasonCount = 7;

/// Stable kebab-case slug for reports and event logs.
const char* deny_reason_name(DenyReason reason);

/// Bucket plan (inclusive upper bounds, seconds) of the cluster's access,
/// phase-1 and commit latency histograms. `quora_trace` summarizes
/// transcripts on the same plan.
inline constexpr std::array<double, 12> kLatencyBucketsSeconds{
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0};

/// One access as the coordinator finally resolved it.
struct AccessOutcome {
  double submit_time = 0.0;
  double decide_time = 0.0;
  net::SiteId origin = 0;
  bool is_read = false;
  bool granted = false;
  DenyReason deny_reason = DenyReason::kNone;
  std::uint32_t attempts = 0;         // retries consumed (0 = first try decided)
  std::uint64_t version = 0;  // read: version returned; write: version written
  std::uint64_t value = 0;    // read result
  /// Votes backing the grant: phase-1 votes for reads, phase-2 acks for
  /// writes (0 on denials). The model checker asserts every grant is
  /// backed by a quorum under the assignment it ran under.
  net::Vote votes_collected = 0;
  /// QR assignment version the coordination ran under.
  std::uint64_t qr_version = 1;
  /// What the paper's instantaneous oracle (component votes at submit
  /// time) would have decided — for paired comparison.
  bool oracle_granted = false;
};

/// A message-level simulation of the quorum consensus protocol: fail-stop
/// sites exchanging the Message protocol over FIFO links with exponential
/// per-hop latencies, under the paper's Poisson failure/repair/access
/// model. This is the §5.1 system model *without* the instantaneous-event
/// simplification — accesses take real rounds, races with failures and
/// all.
///
/// Semantics:
///  - links are FIFO per direction and silently drop messages that are in
///    flight when the link or an endpoint is down at delivery time;
///  - a failed site loses all volatile coordination state but keeps its
///    copy (persistent storage); recovering sites resume with stale
///    volatile state cleared;
///  - accesses submitted at down sites fail immediately (the paper's ACC
///    accounting);
///  - every phase runs against a timeout; with a retry budget the
///    coordinator re-floods under jittered exponential backoff, else the
///    access resolves denied with a reason code. Partial writes (commit
///    flooded, ack quorum missed) are possible and deliberately not rolled
///    back — version numbers carry the usual weighted-voting semantics;
///  - every site stores a QR assignment (spec, version); messages gossip
///    the newest known assignment, and a voter that is ahead of a request's
///    version denies it (stale-version rejection, §2.2).
///
/// Deterministic fault injection: attach a `fault::FaultInjector` to
/// script partitions, flaps, crashes, message drop/delay/duplication, and
/// QR reassignments against the run, and a `fault::EventLog` to capture a
/// byte-stable transcript. Same topology, params, seed, and plan replay
/// identically.
///
/// Real-time consistency guarantee (asserted by the tests): a granted
/// read returns a version at least as new as every write whose commit
/// *decision* preceded the read's submission.
class Cluster {
public:
  struct Params {
    quorum::QuorumSpec spec;
    double mean_hop_latency = 0.005;  // per link traversal
    /// Deadline of each coordination phase (vote collection, commit).
    double phase_timeout = 0.5;
    /// Phase-1 retries after a timeout before the access is abandoned.
    /// 0 preserves the classic deny-on-first-timeout behaviour.
    std::uint32_t max_retries = 0;
    /// First backoff delay; doubles per retry. 0 = auto (phase_timeout/4).
    double backoff_base = 0.0;
    /// Fraction of each backoff randomized around its nominal value.
    double backoff_jitter = 0.5;
    /// Wall-clock budget per access across all retries; a retry is never
    /// scheduled past submit + budget. 0 = unlimited.
    double access_budget = 0.0;
    double alpha = 0.5;
    sim::SimConfig config;            // mu_access, rho, reliability

    /// Seeded known-bad behaviours, used to validate that the model
    /// checker and the chaos harness actually catch protocol bugs. All
    /// false in production; nothing on any code path branches on them
    /// when off, so transcripts stay byte-identical.
    struct TestingMutations {
      /// Drop the §2.2 stale-version rejection: a voter grants requests
      /// stamped with a superseded QR assignment version.
      bool accept_stale_qr = false;
      /// Skip the crash-during-commit cleanup: a failed coordinator keeps
      /// its in-progress coordinations instead of resolving them, so a
      /// restarted site can assemble a quorum from pre-crash replies.
      bool skip_crash_cleanup = false;
      bool any() const noexcept { return accept_stale_qr || skip_crash_cleanup; }
    };
    TestingMutations mutations;

    /// Model-checker mode (`tools/quora_model`): the explorer drives the
    /// cluster one transition at a time under an untimed-asynchrony
    /// abstraction. Construction then schedules no Poisson background
    /// events, disables retries, and makes write-vote leases effectively
    /// infinite (released only by commit/abort/crash) — a finite lease
    /// would let arbitrary event reordering fabricate lease-expiry races
    /// no timed schedule exhibits. Deliveries and phase timers go to the
    /// model scheduler's FIFO channels and timer list, with no latency
    /// and no RNG draw. See the model_* methods and docs/MODEL_CHECKING.md.
    bool model_mode = false;

    /// Hard cap on `max_retries`: backoff doubles per attempt, so budgets
    /// beyond this overflow any plausible schedule long before they run.
    /// Construction throws on larger values.
    static constexpr std::uint32_t kMaxRetryBudget = 64;
  };

  Cluster(const net::Topology& topo, Params params, std::uint64_t seed);

  /// Attach a fault injector (non-owning; must outlive the run). Pushes
  /// the plan's timeline into the event queue — call before running.
  void attach_injector(fault::FaultInjector* injector);

  /// Attach an event log (non-owning) capturing decisions, fault actions,
  /// installs, and stale rejections.
  void attach_log(fault::EventLog* log);

  /// Attach the adaptive quorum-optimization loop (non-owning; must
  /// outlive the run). Schedules the controller's estimation epochs as
  /// simulator events (one every `epoch_length` simulated seconds, the
  /// first one epoch from now) and starts feeding the per-site vote
  /// histogram: every access submitted at an operational site records its
  /// component's vote total. When an epoch's decision clears the
  /// hysteresis gate, the §2.2 QR install machinery runs from the
  /// lowest-numbered operational site, exactly like a scripted reassign
  /// action. Detached (the default), nothing here executes and
  /// transcripts are byte-identical to pre-adaptive builds.
  void attach_adaptive(adapt::AdaptiveController* controller);

  /// Run until `count` further accesses have been *decided* (granted,
  /// denied, or aborted by coordinator failure).
  ///
  /// Entry points of the (future) msg shard: L007/L008 prove that nothing
  /// reachable from here touches another shard's QUORA_SHARD_LOCAL state
  /// or an undeclared mutable global. (No QUORA_HOT_PATH here — the
  /// coordination tables, flood windows and payload slab grow on demand,
  /// and each coordination allocates its replier and acker sets.)
  QUORA_SHARD_ENTRY(msg) void run_decided_accesses(std::uint64_t count);

  /// Run until the simulated clock reaches `t_end` (the soak-harness
  /// driver: fault plans are scheduled in absolute time).
  QUORA_SHARD_ENTRY(msg) void run_until(double t_end);

  const std::vector<AccessOutcome>& outcomes() const noexcept { return outcomes_; }

  /// Fraction granted among decided accesses / among oracle decisions.
  double availability() const;
  double oracle_availability() const;

  /// Highest version whose write decision has been recorded, and the
  /// decision log for real-time consistency checks.
  struct CommitRecord {
    std::uint64_t version = 0;
    double decide_time = 0.0;
  };
  const std::vector<CommitRecord>& commits() const noexcept { return commits_; }

  /// QR installs performed by fault-plan reassign actions.
  struct InstallRecord {
    std::uint64_t version = 0;
    double decide_time = 0.0;
    net::SiteId origin = 0;
    quorum::QuorumSpec spec{};
  };
  const std::vector<InstallRecord>& installs() const noexcept { return installs_; }
  const core::QuorumReassignment& reassignment() const noexcept { return qr_; }

  std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }
  std::uint64_t messages_duplicated() const noexcept { return messages_duplicated_; }
  /// Messages discarded at delivery time by a one-way link cut.
  std::uint64_t oneway_losses() const noexcept { return oneway_losses_; }
  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t stale_rejections() const noexcept { return stale_rejections_; }
  double now() const noexcept { return now_; }
  const conn::LiveNetwork& network() const noexcept { return live_; }

  /// Observability: pure recording — protocol decisions, message fates,
  /// and every RNG draw are untouched (the golden chaos transcript is
  /// replayed with both attached to prove it). The recorder is clocked on
  /// this cluster's simulated time and shared with the QR protocol and
  /// the component tracker; one recorder per cluster (recorders are not
  /// thread-safe). The registry is thread-safe and is also forwarded to
  /// an attached fault injector, in either attach order. Pass nullptr to
  /// detach.
  void set_trace(obs::TraceRecorder* trace);
  void set_metrics(obs::Registry* registry);

  // ---- Model-checker interface (Params::model_mode only) --------------
  // Model mode has its own scheduler over the same handlers: send()
  // appends each delivery to its direction's FIFO channel and arm_timer()
  // appends to one timer list; the timed heap stays empty. The explorer
  // owns the schedule: it enumerates the enabled transitions of a state,
  // fires one, and snapshots/restores the cluster by value (call
  // model_rebind() on every copy). The logical clock advances by exactly
  // 1 per transition, so decision/submission timestamps order by firing
  // sequence — which is what `check_safety`'s real-time comparisons then
  // audit. See docs/MODEL_CHECKING.md.

  /// Model mode schedules deliveries and phase timers and nothing else:
  /// it has no injector and no background processes, and retries are off.
  enum class ModelEventKind : std::uint8_t {
    kDelivery = 0,
    kTimer = 1,
  };
  /// One enabled transition. `seq` is the stable handle for
  /// model_step_event and stays valid until the event fires; it orders
  /// events by scheduling time.
  struct ModelEvent {
    std::uint64_t seq = 0;
    ModelEventKind kind = ModelEventKind::kDelivery;
    net::SiteId target = 0;     // delivery destination / timer owner
    std::uint32_t index = 0;    // link id (deliveries)
    std::uint64_t request = 0;  // timer coordination id
    int phase = 0;              // timer phase
    Message message{};          // deliveries only
  };

  /// The currently enabled transitions: the head of each direction's
  /// channel — links are FIFO per direction, so a later delivery cannot
  /// overtake it under any timing — and every timer ("the replies were
  /// slow"). No two share a descriptor. Written to `out` (cleared first)
  /// in ascending `seq`, i.e. scheduling order.
  void model_enabled_events(std::vector<ModelEvent>& out) const;
  std::vector<ModelEvent> model_enabled_events() const;
  /// Fire the enabled event with sequence number `seq`. Returns false,
  /// changing nothing, if no enabled event has it.
  bool model_step_event(std::uint64_t seq);
  /// Submit one access deterministically (no Poisson arrival, no RNG).
  void model_submit_access(net::SiteId origin, bool is_read);
  /// Apply one fault-plan action immediately as its own transition.
  void model_apply_fault(const fault::Action& action);
  /// Serialize every behaviour-relevant piece of state (liveness, copies,
  /// leases, coordinations, stored assignments, pending-event multiset,
  /// safety-history digest) into `out` — the canonical form two states
  /// compare equal under. Absolute times are excluded by design. The
  /// stream is the concatenation of the state's sections (see
  /// model_fingerprint) and the words between them.
  void model_serialize(std::vector<std::uint64_t>& out) const;
  /// The state's 128-bit fingerprint: the `model_hash`es of its sections
  /// (liveness with the gray cuts, each site's protocol state, each
  /// direction's channel) folded with the rest of the serialization and
  /// then `extra` (the explorer's masks). Each section's hash is cached
  /// and recomputed only after a transition changed the section, so a
  /// call costs what the last transitions changed. Equal serializations
  /// give equal fingerprints (collision caveat: the visited set stores
  /// hashes, not states — see docs/MODEL_CHECKING.md).
  std::array<std::uint64_t, 2> model_fingerprint() const;
  std::array<std::uint64_t, 2> model_fingerprint(
      std::span<const std::uint64_t> extra) const;
  /// Fix internal cross-references after a by-value copy: the component
  /// tracker must observe this cluster's network, not the source's. Must
  /// be called on every snapshot/restore copy before use. (Copying a
  /// cluster with a trace recorder attached is not supported.)
  void model_rebind() noexcept { tracker_.rebind(live_); }

private:
  /// A set of sites, one bit each: insert-and-test, a popcount for the
  /// size and iteration in ascending site order.
  class SiteSet {
    using Word = conn::bits::Word;

  public:
    /// Adds `s`; false if it was already in the set.
    bool insert(net::SiteId s) {
      if (s / conn::bits::kWordBits >= words_.size())
        words_.resize(s / conn::bits::kWordBits + 1, 0);
      const bool added = !conn::bits::test_bit(words_.data(), s);
      conn::bits::set_bit(words_.data(), s);
      return added;
    }
    void clear() noexcept { std::fill(words_.begin(), words_.end(), Word{0}); }
    std::uint64_t size() const noexcept { return conn::bits::count(words_); }
    template <class F>
    void for_each(F f) const {
      conn::bits::for_each_bit(words_, [&f](std::size_t s) {
        f(static_cast<net::SiteId>(s));
      });
    }

  private:
    std::vector<Word> words_;
  };

  struct Pending {  // coordinator-side state
    bool is_read = false;
    int phase = 1;
    double submit_time = 0.0;
    bool oracle_granted = false;
    std::uint32_t attempt = 0;  // retries consumed so far
    quorum::QuorumSpec spec{};  // assignment snapshot for this attempt
    std::uint64_t qr_version = 1;
    net::Vote votes = 0;        // phase-1 votes collected
    net::Vote denied = 0;       // phase-1 votes refused (leased elsewhere)
    net::Vote acked = 0;        // phase-2 votes acked
    SiteSet repliers;
    SiteSet ackers;
    std::uint64_t best_version = 0;
    std::uint64_t best_value = 0;
    std::uint64_t write_value = 0;
    // Observability-only state; absent from a QUORA_OBS=OFF build.
    QUORA_OBS_ONLY(
        double obs_attempt_start = 0.0;   // this attempt's phase 1 began
        double obs_phase2_start = 0.0;    // the commit flood departed
        std::uint64_t obs_prev_request = 0;)  // id this retry superseded
  };

  /// One site's coordinations in ascending request id. Ids come from one
  /// counter, so every insert appends.
  using Coordinations = std::vector<std::pair<std::uint64_t, Pending>>;

  /// One site's flood state (dedup + reverse path), indexed by flood_key
  /// from `base`. An entry is 0 where the site has not visited the flood,
  /// kFloodRoot at the flood's coordinator, and link + 2 where the site
  /// was first reached over `link`. The window begins at the first key the
  /// site visits after a (re)start and is dropped when the site fails.
  struct FloodWindow {
    std::uint64_t base = 0;
    std::vector<std::uint32_t> entries;
  };
  static constexpr std::uint32_t kFloodRoot = 1;

  struct Copy {
    std::uint64_t value = 0;
    std::uint64_t version = 0;
  };

  struct Lease {  // write-vote lease: one in-flight write per site
    std::uint64_t request = 0;
    double expiry = 0.0;
    bool held(double now) const { return request != 0 && now < expiry; }
  };

  // Event plumbing (kinds beyond sim::EventKind: deliveries and timers).
  enum class Kind : std::uint8_t {
    kSiteFail,
    kSiteRecover,
    kLinkFail,
    kLinkRecover,
    kAccess,
    kDelivery,
    kTimer,
    kFault,   // a fault-plan timeline action (index into the timeline)
    kRetry,   // backoff expired: restart phase 1 for a pending request
    /// A correlated-failure victim's or a crash-on-commit coordinator's
    /// down-time ends. Unlike kSiteRecover this draws nothing and
    /// reschedules nothing — the site's own Poisson fail/repair process
    /// continues independently, so a fault never starts a second one, and
    /// legacy plans replay byte-identically whether or not correlations
    /// exist. Either recovery closes only its own hold (down_holds_).
    kFaultRecover,
    /// An adaptive estimation epoch (only scheduled when a controller is
    /// attached; draws nothing — the control loop is RNG-free).
    kAdaptEpoch,
  };
  /// The heap record. What a delivery, timer or retry carries beyond it
  /// lives in slab_, so a heap move copies 32 bytes.
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;
    Kind kind = Kind::kAccess;
    std::uint32_t index = 0;  // site/link/timeline entry
    std::uint32_t slot = 0;   // kDelivery/kTimer/kRetry: payload in slab_
  };
  static_assert(sizeof(Event) <= 32, "the heap record must stay 32 bytes");
  struct Payload {
    Message message{};          // kDelivery
    net::SiteId target = 0;     // kDelivery destination, kTimer/kRetry owner
    std::uint64_t request = 0;  // kTimer/kRetry
    int phase = 0;              // kTimer
  };
  /// Puts `p` in a free slot of slab_ and returns the slot.
  std::uint32_t store(const Payload& p);
  /// Copies slot's payload out and frees the slot: a handler runs on the
  /// copy, so the sends it makes may grow the slab.
  Payload take(std::uint32_t slot);
  void step(const Event& e);
  /// Queues a background, recovery or epoch event `delay` from now.
  void schedule(double delay, Kind kind, std::uint32_t index);
  /// Arms the deadline of `phase` of coordination `request` at `site`.
  void arm_timer(net::SiteId site, std::uint64_t request, int phase);
  /// Index of the direction of `link` that delivers to `to`, into
  /// fifo_clock_, dir_blocked_ and channels_.
  std::size_t direction(net::LinkId link, net::SiteId to) const {
    return 2 * static_cast<std::size_t>(link) +
           (topo_->link(link).b == to ? 0 : 1);
  }
  void send(net::SiteId from, net::LinkId link, const Message& m);
  void flood(net::SiteId from, const Message& m, net::LinkId except_link,
             bool has_except);
  /// Floods `m` from its coordinator `site`, which thereby has visited
  /// the flood with no parent link.
  void start_flood(net::SiteId site, Message m);
  /// Answers flood message `m`, which reached `here` over `link`: a reply
  /// of `kind` carrying here's votes and (version, value) goes back over
  /// `link`, and the flood passes on to here's other links.
  void answer(net::SiteId here, net::LinkId link, const Message& m,
              Message::Kind kind, std::uint64_t version, std::uint64_t value);
  void relay_toward_coordinator(net::SiteId at, const Message& m);
  /// `site`'s entry for flood `key`, its window grown to cover the key.
  std::uint32_t& flood_entry(net::SiteId site, std::uint64_t key);
  void handle_delivery(net::LinkId link, const Payload& delivery);
  void handle_timer(const Payload& timer);
  /// The entry of coordination `request` in `coords`, or end().
  static Coordinations::iterator find_request(Coordinations& coords,
                                              std::uint64_t request);
  /// The coordination `request` led by `site`, if it is still in `phase`.
  Pending* find_coordination(net::SiteId site, std::uint64_t request,
                             int phase);
  /// Leases `site`'s vote to write `request`; false if another write
  /// holds it.
  bool lease_vote(net::SiteId site, std::uint64_t request);
  /// Frees `site`'s vote if write `request` holds its lease.
  void release_lease(net::SiteId site, std::uint64_t request);
  /// Model mode only: drop timers whose request has been decided or whose
  /// phase was superseded — handle_timer would ignore them, so firing one
  /// is a pure no-op transition that only multiplies states.
  void model_purge_dead_timers();
  /// Model mode's state sections, in model_sections_ order: liveness and
  /// gray cuts, then one per site, then one per direction's channel. Each
  /// encoder writes its section's words to `out(word)`.
  template <class Out> void model_encode_liveness(Out& out) const;
  template <class Out> void model_encode_site(net::SiteId s, Out& out) const;
  template <class Out> void model_encode_channel(std::size_t dir, Out& out) const;
  /// The words between the sections: request counter, committed-version
  /// multiset, newest install and in-flight count; then the timers.
  template <class Out> void model_encode_history(Out& out) const;
  template <class Out> void model_encode_timers(Out& out) const;
  /// `model_hash` of section `k`'s words, computed afresh.
  std::array<std::uint64_t, 2> model_section_hash(std::size_t k) const;
  /// Marks a section changed; the next fingerprint rehashes it.
  void model_touch_site(net::SiteId s) { model_sections_[1 + s].dirty = true; }
  void model_touch_channel(std::size_t dir) {
    model_sections_[1 + topo_->site_count() + dir].dirty = true;
  }
  void handle_access(net::SiteId origin);
  /// The RNG-free tail of handle_access: allocate a request id, record
  /// the oracle verdict, and start coordinating. The Poisson driver draws
  /// read/write first; the model checker and scripted `access` fault
  /// actions pass `is_read` explicitly.
  void submit_access(net::SiteId origin, bool is_read);
  void start_coordination(net::SiteId origin, std::uint64_t request);
  /// Phase 2 of write `request` once `site`'s collected votes form a write
  /// quorum: commit locally, flood the commit and arm its deadline unless
  /// `site`'s own votes already are a write quorum, then decide if so.
  void begin_commit(net::SiteId site, std::uint64_t request, Pending& p);
  void retry(net::SiteId coordinator, std::uint64_t old_request);
  void decide(net::SiteId coordinator, std::uint64_t request, bool granted,
              DenyReason reason = DenyReason::kNone);
  /// Every decided access ends here: the outcome, the decided count, the
  /// grant/deny metric and trace, and the latency and region breakdowns.
  void record_outcome(const AccessOutcome& out, std::uint64_t request);
  void abort_flood(net::SiteId coordinator, std::uint64_t request);
  void on_site_failed(net::SiteId s);
  /// Closes one of `s`'s down holds; the last one brings the site back.
  void release_hold(net::SiteId s);
  /// Logs one line at now_, formatted like printf and never cut; does
  /// nothing when no log is attached.
  [[gnu::format(printf, 2, 3)]] void log_event(const char* fmt, ...);
  /// Consult the injector's correlation rules after `failed` went down and
  /// crash the co-domain victims that fire (skipping already-down sites;
  /// the draw sequence happens regardless — see FaultInjector).
  void maybe_cascade(net::SiteId failed);
  void apply_fault(const fault::Action& action);
  void handle_adapt_epoch();
  /// Shared §2.2 install sequence (scripted reassigns and adaptive
  /// installs): try_install + component data sync + InstallRecord.
  /// Returns false when the component lacked a write quorum (or the
  /// assignment was invalid / a no-op).
  bool install_assignment(net::SiteId origin, quorum::QuorumSpec next);
  void sync_component_copies(net::SiteId origin);
  /// True if a crash-on-commit trigger fired and crashed `coordinator`.
  bool maybe_crash_on_commit(net::SiteId coordinator, std::uint64_t request);
  void stamp(Message& m, net::SiteId author) const;
  void maybe_adopt(net::SiteId here, const Message& m);
  std::uint64_t flood_key(std::uint64_t request, int phase) const {
    return request * 4 + static_cast<std::uint64_t>(phase - 1);  // phases 1..3
  }

  const net::Topology* topo_;
  Params params_;
  /// Write-vote lease lifetime. It exceeds one attempt's whole window, so
  /// a vote is never granted twice while still countable.
  double lease_lifetime_ = 0.0;
  /// Per-link hop latency, resolved once at construction: an annotated
  /// link keeps its topology class; an unannotated one becomes
  /// {0, mean_hop_latency}, i.e. pure exponential jitter — the exact
  /// legacy draw, so unannotated runs stay byte-identical.
  std::vector<net::LinkLatency> hop_latency_;
  /// site -> index into region_names_ (kNoRegion when unannotated).
  std::vector<std::uint32_t> site_region_;
  std::vector<std::string> region_names_;
  static constexpr std::uint32_t kNoRegion = 0xFFFFFFFFu;
  // Mutable protocol state owned by the (future) msg shard (L007).
  QUORA_SHARD_LOCAL(msg) conn::LiveNetwork live_;
  QUORA_SHARD_LOCAL(msg) conn::ComponentTracker tracker_;
  QUORA_SHARD_LOCAL(msg) core::QuorumReassignment qr_;
  QUORA_SHARD_LOCAL(msg) rng::Xoshiro256ss gen_;
  /// Per site, the open holds that keep it down: a background failure until
  /// its repair, a crash-on-commit or correlated failure until its
  /// down-time ends. Scripted actions set liveness directly. Empty in
  /// model mode, which schedules no recovery.
  std::vector<std::uint32_t> down_holds_;
  fault::FaultInjector* injector_ = nullptr;
  fault::EventLog* log_ = nullptr;
  adapt::AdaptiveController* adaptive_ = nullptr;
  /// First outcome index of the current estimation epoch — the window the
  /// realized-gain metric is computed over.
  std::size_t adapt_window_start_ = 0;
  /// Availability of the epoch window that preceded the last adaptive
  /// install; the next epoch reports realized gain against it.
  double adapt_pre_install_avail_ = 0.0;
  bool adapt_realized_pending_ = false;

  /// Pending events of the timed run, popped in (time, seq) order. Model
  /// mode leaves it empty.
  QUORA_SHARD_LOCAL(msg) sim::EventQueue<Event> queue_;
  /// Payloads of the pending deliveries, timers and retries, by slot, and
  /// the slots free for reuse.
  QUORA_SHARD_LOCAL(msg) std::vector<Payload> slab_;
  QUORA_SHARD_LOCAL(msg) std::vector<std::uint32_t> free_slots_;
  QUORA_SHARD_LOCAL(msg) double now_ = 0.0;

  /// A pending model-mode delivery or timer, stamped from model_seq_.
  struct ModelEntry {
    std::uint64_t seq = 0;
    Payload payload;
  };
  /// Model mode's pending events: one FIFO channel per direction, indexed
  /// like fifo_clock_, in scheduling order, and the armed timers in
  /// (owner, request, phase) order, the order they are serialized in.
  QUORA_SHARD_LOCAL(msg) std::vector<std::vector<ModelEntry>> channels_;
  QUORA_SHARD_LOCAL(msg) std::vector<ModelEntry> timers_;
  QUORA_SHARD_LOCAL(msg) std::uint64_t model_seq_ = 0;
  /// Model mode's fingerprint cache: one hash per state section, and
  /// whether a transition has changed the section since it was hashed.
  /// A transition marks what it may change: a delivery or timer its
  /// target site and the channel it pops, a send its channel, a submit
  /// its origin and a fault everything (docs/MODEL_CHECKING.md argues
  /// why that is all). Copies carry the cache with the state.
  struct ModelSection {
    std::array<std::uint64_t, 2> hash{};
    bool dirty = true;
  };
  QUORA_SHARD_LOCAL(msg) mutable std::vector<ModelSection> model_sections_;

  QUORA_SHARD_LOCAL(msg) std::vector<Copy> copies_;
  QUORA_SHARD_LOCAL(msg) std::vector<Lease> leases_;
  QUORA_SHARD_LOCAL(msg) std::vector<Coordinations> pending_;   // per site
  QUORA_SHARD_LOCAL(msg) std::vector<FloodWindow> floods_;       // per site
  QUORA_SHARD_LOCAL(msg) std::vector<double> fifo_clock_;  // per directed link
  /// One-way cuts, indexed like fifo_clock_ (2*link + dir). A blocked
  /// direction silently discards at delivery time, mirroring how in-flight
  /// messages die with a downed link — but LiveNetwork (and thus the
  /// oracle's component view) still sees the link as up: a gray failure.
  QUORA_SHARD_LOCAL(msg) std::vector<char> dir_blocked_;
  std::uint64_t next_request_ = 1;

  std::vector<AccessOutcome> outcomes_;
  std::vector<CommitRecord> commits_;
  std::vector<InstallRecord> installs_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_duplicated_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t stale_rejections_ = 0;
  std::uint64_t oneway_losses_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
  obs::Registry* registry_ = nullptr;  // kept to forward to a late injector
  obs::Counter obs_accesses_;
  obs::Counter obs_grants_;
  obs::Counter obs_retries_;
  std::array<obs::Counter, kDenyReasonCount> obs_denies_;  // by DenyReason
  obs::Histogram obs_access_latency_;
  obs::Histogram obs_phase1_latency_;
  obs::Histogram obs_commit_latency_;
  // Per-region (level-1 domain) breakdowns, indexed like region_names_.
  std::vector<obs::Counter> obs_region_grants_;
  std::vector<obs::Counter> obs_region_denies_;
  std::vector<obs::Histogram> obs_region_latency_;
  // Adaptive-loop instrumentation (attach_adaptive).
  obs::Counter obs_adapt_epochs_;
  obs::Counter obs_adapt_installs_;
  obs::Counter obs_adapt_refused_;
  obs::Histogram obs_adapt_predicted_gain_;
  obs::Histogram obs_adapt_realized_gain_;
};

/// The run parameters of a `.chaos` plan, for every runner of one: the
/// plan's quorum (strict majority without a `quorum` line), its seeded
/// mutations and a retry budget of 2. The background failure process is
/// live (sites up 96% of the time, failures 128x slower than accesses)
/// only when the plan ramps `reliability` or `rho` itself; otherwise it
/// is pushed out past any horizon, so every fault in the log is scripted.
Cluster::Params chaos_params(const fault::ChaosSpec& spec);

/// The model checker's 128-bit hash of a canonical word stream, hashed a
/// word at a time. Each 64-bit half runs two multiply-xorshift lanes,
/// over the even and the odd words, and folds them with the stream's
/// length through a full-avalanche finalizer; the halves use different
/// multipliers. This is the one-shot form of the lanes that
/// Cluster::model_fingerprint() streams each state section through.
std::array<std::uint64_t, 2> model_hash(std::span<const std::uint64_t> words);

} // namespace quora::msg
