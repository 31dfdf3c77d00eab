#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/scope.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"

namespace quora::model {

/// One transition along an explored path. Identified by *content* (its
/// descriptor fields), never by sequence number: a recorded trace must
/// replay against a freshly built cluster, and keep replaying as
/// minimization drops earlier steps — both of which renumber every
/// event. No two enabled events share a descriptor, since each direction
/// has one enabled head and each (site, request, phase) at most one timer.
struct Choice {
  enum class Kind : std::uint8_t { kEvent = 0, kSubmit = 1, kFault = 2 };
  Kind kind = Kind::kEvent;
  /// kSubmit / kFault: position in the scope's access / fault alphabet.
  std::uint32_t index = 0;
  /// kEvent: the enabled pending event to fire. Its `seq` is a handle
  /// into the state it was enumerated in only; the other fields are the
  /// descriptor a replay matches.
  msg::Cluster::ModelEvent event{};

  /// One-line human rendering for counterexample listings.
  std::string describe(const Scope& scope) const;
};

/// A model-level property violation (beyond `msg::check_safety`):
/// `qr-monotonicity` (a site's stored assignment version decreased),
/// `quorum-intersection` (an installed assignment fails Gifford's
/// conditions), or `grant-without-quorum` (a granted access backed by
/// fewer votes than its assignment requires).
struct PropertyViolation {
  std::string code;
  std::string message;
};

/// A counterexample: what went wrong, and the schedule that gets there.
struct Violation {
  msg::SafetyReport safety;                   // check_safety findings
  std::vector<PropertyViolation> properties;  // model-level findings
  std::vector<Choice> trace;                  // schedule from the initial state
  /// Sorted, deduplicated violation identity ("which bug"): safety slugs
  /// plus property codes. Minimization preserves this set.
  std::vector<std::string> codes() const;
};

struct Stats {
  std::uint64_t explored = 0;      // states expanded (DFS entries)
  std::uint64_t transitions = 0;   // transitions fired
  std::uint64_t unique_states = 0; // distinct fingerprints seen
  std::uint64_t visited_hits = 0;  // revisits pruned by the visited set
  std::uint64_t sleep_pruned = 0;  // transitions pruned by DPOR sleep sets
  std::uint64_t max_depth_seen = 0;
  bool depth_capped = false;       // some path hit the depth bound
  bool state_capped = false;       // the state budget ran out
};

struct Options {
  /// Sleep-set partial-order reduction. Off = every interleaving (the
  /// cross-validation mode behind `quora_model --no-dpor`).
  bool dpor = true;
};

/// Bounded explicit-state exploration of a `.model` scope against the
/// real `msg::Cluster` protocol code. Depth-first over every admissible
/// schedule (per-direction FIFO is the only delivery-order constraint),
/// snapshotting the cluster by value at each branch point; at every state
/// it runs `msg::check_safety` plus the model-level properties and stops
/// at the first violation.
///
/// Reduction: sleep sets over a conservative independence relation —
/// deliveries/timers at distinct sites commute; submissions and faults
/// are dependent with everything. The visited set stores 128-bit
/// fingerprints (collision caveat: see docs/MODEL_CHECKING.md) and, with
/// DPOR on, applies the covering rule — a revisit is pruned only when a
/// cached exploration already covered at least the transitions the
/// current one would try.
///
/// The scope must outlive the explorer (the cluster borrows its
/// topology).
class Explorer {
public:
  explicit Explorer(const Scope& scope, Options opt = {});

  /// Explores until the first violation, exhaustion, or a budget cap.
  std::optional<Violation> run();
  const Stats& stats() const noexcept { return stats_; }

  /// Replays `trace` on a fresh cluster, checking after every step.
  /// Returns the violation at the first violating state (with `trace`
  /// truncated there), or nullopt if the schedule no longer applies or
  /// never violates.
  std::optional<Violation> replay(const std::vector<Choice>& trace) const;

  /// Greedy counterexample minimization: repeatedly drop any single step
  /// whose removal still replays to a violation covering the original
  /// code set, then truncate at the first violating state.
  std::vector<Choice> minimize(const Violation& seed) const;

private:
  /// An enabled transition; a kEvent names its event by position in the
  /// depth's `events` buffer, and as_choice() copies it out for the path.
  struct Transition {
    Choice::Kind kind = Choice::Kind::kEvent;
    std::uint32_t index = 0;  // kSubmit / kFault: alphabet; kEvent: events
    std::uint64_t key = 0;    // sleep-set / covering identity (content hash)
    net::SiteId site = 0;     // dependence site for kEvent
    bool global = false;      // kSubmit / kFault: dependent with everything
  };

  struct SleepEntry {
    std::uint64_t key = 0;
    net::SiteId site = 0;
    bool global = false;
  };

  /// The state and buffers of one DFS depth. A depth's slot is refilled
  /// by copy-assignment for each of its states, so the cluster's vectors
  /// and the buffers keep their capacity; the state at depth d stays
  /// intact while depth d + 1 is rewritten, until d's last transition:
  /// that child takes d's cluster object itself, and d's slot the child's.
  struct Frame {
    std::unique_ptr<msg::Cluster> cluster;  // null until first filled
    std::uint32_t submitted = 0;            // scope accesses submitted
    std::uint32_t faulted = 0;              // scope fault groups fired
    std::vector<SleepEntry> sleep;          // grows as siblings finish
    std::vector<std::uint64_t> sleep_keys;  // sorted keys of `sleep` on entry
    std::vector<std::uint64_t> qr;          // stored QR version per site
    std::vector<msg::Cluster::ModelEvent> events;  // enabled, in seq order
    std::vector<Transition> todo;           // enabled and awake
  };

  /// Fingerprint -> the sleep-key sets it was explored under (each
  /// sorted). Open addressing with linear probing on the fingerprint's
  /// first word, doubled at half load; the key sets of all fingerprints
  /// share one pool, each fingerprint listing its own newest first.
  class VisitedSet {
  public:
    using Fingerprint = std::array<std::uint64_t, 2>;
    void clear();
    /// The slot holding `fp`, or the free slot where it would go.
    std::size_t find(const Fingerprint& fp) const;
    bool fresh(std::size_t slot) const { return slots_[slot].newest == 0; }
    /// True if a key set cached at `slot` is a subset of `keys`.
    bool covered(std::size_t slot, std::span<const std::uint64_t> keys) const;
    /// Caches `keys` for `fp`, which find() placed at `slot`.
    void add(std::size_t slot, const Fingerprint& fp,
             std::span<const std::uint64_t> keys);

  private:
    struct Slot {
      Fingerprint fp{};
      std::uint32_t newest = 0;  // 1 + its newest entry of sets_; 0 = free
    };
    struct KeySet {
      std::size_t begin = 0;     // into keys_
      std::uint32_t size = 0;
      std::uint32_t older = 0;   // 1 + the fingerprint's next set; 0 = none
    };
    std::vector<Slot> slots_;
    std::size_t used_ = 0;
    std::vector<KeySet> sets_;
    std::vector<std::uint64_t> keys_;
  };

  msg::Cluster make_cluster() const;
  /// Fills `out`, using `events` for the cluster's enabled events.
  void enabled_transitions(const msg::Cluster& c, std::uint32_t submitted,
                           std::uint32_t faulted,
                           std::vector<msg::Cluster::ModelEvent>& events,
                           std::vector<Transition>& out) const;
  /// The recorded form of `t`, whose events buffer is `events`.
  static Choice as_choice(const Transition& t,
                          std::span<const msg::Cluster::ModelEvent> events);
  void apply(msg::Cluster& c, const Choice& choice, std::uint32_t& submitted,
             std::uint32_t& faulted) const;
  std::optional<Violation> check_state(
      const msg::Cluster& c, std::span<const std::uint64_t> prev_qr,
      std::span<const std::uint64_t> cur_qr,
      msg::SafetyScratch& scratch) const;
  void stored_qr_versions(const msg::Cluster& c,
                          std::vector<std::uint64_t>& out) const;

  /// Explores the state in frames_[depth], reached by `path`.
  bool dfs(std::size_t depth, std::vector<Choice>& path);

  const Scope* scope_;
  Options opt_;
  Stats stats_;
  std::optional<Violation> found_;
  VisitedSet visited_;
  /// One per depth reached; a deque, so growing it moves no frame.
  std::deque<Frame> frames_;
  msg::SafetyScratch safety_scratch_;
};

} // namespace quora::model
