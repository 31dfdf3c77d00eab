#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "conn/bitwords.hpp"
#include "conn/live_network.hpp"
#include "core/analysis_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quora::conn {

/// Label given to sites that are currently down. Down sites belong to no
/// component; the paper regards them "as a member of a component of size
/// zero" for availability accounting.
inline constexpr std::int32_t kNoComponent = -1;

/// Partition structure of a `LiveNetwork`: connected components over up
/// sites and operational links, with per-component vote and size totals.
///
/// Maintenance is lazy and incremental. A query that observes the network
/// version moved replays the `LiveNetwork` delta journal:
///
///  - site/link **recovery** deltas only ever merge components, so they
///    are absorbed in place by a union-find over the component labels —
///    no graph traversal, no allocation;
///  - a **link-loss** delta that cannot split a component of the network
///    the replay syncs to is absorbed too: an endpoint is down there, or
///    both are up and share a neighbour that is up over up links (one AND
///    of their dense adjacency rows with `site_up_words`);
///  - any other **failure** (or bulk) delta aborts the replay and triggers
///    one full rebuild into scratch buffers reused across rebuilds.
///
/// The absorbed result is exact because every delta is judged against
/// the network at the version the replay syncs to. An absorbed loss has
/// its endpoints connected there, so the partition before the window
/// refines the final one; unions run only along links up in that network
/// or along a recovered link whose later loss is judged in its turn. So
/// labels, votes, sizes and member lists equal what a rebuild gives.
///
/// Under the paper's symmetric fail/repair model half of all network
/// events are recoveries, and on dense topologies nearly every link loss
/// has a shared neighbour, so a rebuild is left mostly to site failures
/// (and to every link loss on sparse ones such as rings). Steady-state
/// refreshes perform zero heap allocations.
///
/// The rebuild itself comes in two flavors, selected by the network:
///
///  - **dense** (site count within `LiveNetwork::kDenseAdjacencyMaxSites`):
///    a word-parallel frontier scan over the network's masked adjacency
///    rows. Each frontier site contributes one `next |= row & unassigned`
///    pass over packed 64-bit words — 64 neighbor-liveness tests per AND —
///    and component sizes are tallied by popcount over the harvested
///    words (votes collapse to popcount * v under a uniform assignment).
///  - **sparse** (larger topologies): the original O(V+E) BFS over the
///    topology's CSR adjacency.
///
/// Both flavors produce identical labelings: components numbered by
/// lowest member site in ascending order, member lists ascending by site
/// id — the same canonical form `compact()` emits after incremental
/// merges, so member order no longer depends on which path produced the
/// partition.
///
/// Labels are compacted (dense, 0..component_count-1, numbered by lowest
/// member site) on demand: the cheap scalar queries (`component_votes`,
/// `component_size`, `connected`, `max_component_votes`,
/// `component_count`) never force a compaction, while the structural ones
/// (`component_of`, `members`, `votes_by_label`) do, so a label returned
/// by `component_of` always indexes `members`/`votes_by_label`
/// consistently. Spans returned by `members`/`votes_by_label`/
/// `member_words` are invalidated by the next refresh, as before.
class ComponentTracker {
public:
  explicit ComponentTracker(const LiveNetwork& live);

  // The queries below sit on the simulator's per-access hot path, so they
  // carry QUORA_HOT_PATH: L006 proves the whole lazy-refresh machinery
  // they pull in stays off the allocator in steady state (the ctor
  // pre-reserves every buffer; the refresh functions are QUORA_ALLOC_OK).

  /// Component label of `s`, or `kNoComponent` if the site is down.
  QUORA_HOT_PATH std::int32_t component_of(net::SiteId s) const;

  /// Total votes held by sites in s's component; 0 if s is down.
  QUORA_HOT_PATH net::Vote component_votes(net::SiteId s) const;

  /// Number of sites in s's component; 0 if s is down.
  QUORA_HOT_PATH std::uint32_t component_size(net::SiteId s) const;

  /// Number of components among up sites.
  QUORA_HOT_PATH std::uint32_t component_count() const;

  /// Votes held by the component with the most votes (0 if all sites are
  /// down). This is the quantity the SURV metric optimizes over
  /// (paper footnote 3).
  QUORA_HOT_PATH net::Vote max_component_votes() const;

  /// Sites of the component labeled `label` (see class docs for order).
  QUORA_HOT_PATH std::span<const net::SiteId> members(std::int32_t label) const;

  /// The same membership as packed site-indexed bitset words (bit s set
  /// iff site s belongs to `label`) — consumers holding their own
  /// site-bitsets can AND/popcount against this instead of looping the
  /// member list. Built into a scratch buffer on demand; invalidated by
  /// the next refresh or the next member_words call.
  QUORA_HOT_PATH QUORA_ALLOC_OK std::span<const bits::Word> member_words(
      std::int32_t label) const;

  /// True if both sites are up and currently connected.
  QUORA_HOT_PATH bool connected(net::SiteId a, net::SiteId b) const;

  /// Votes of every component, indexed by label.
  QUORA_HOT_PATH std::span<const net::Vote> votes_by_label() const;

  /// Work counters, for the perf harness (tools/quora_bench) and tests:
  /// how often the labeling was recomputed from scratch versus absorbed
  /// incrementally.
  struct Stats {
    std::uint64_t full_rebuilds = 0;        // O(V+E) BFS sweeps
    std::uint64_t incremental_applies = 0;  // delta batches merged in-place
    std::uint64_t compactions = 0;          // label renumber + member rebuild
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Observability (optional, pure recording — queries and labels are
  /// unaffected). The recorder's clock should be the owning simulation's;
  /// rebuilds emit kTrackerRebuild with the network version and the number
  /// of sites relabeled. Metrics mirror the Stats counters under
  /// `tracker.*`. Pass nullptr to detach.
  void set_trace(obs::TraceRecorder* trace) noexcept { trace_ = trace; }
  void set_metrics(obs::Registry* registry);

  /// Re-point the tracker at a different (identically shaped) network.
  /// Needed after the owning simulation is copied by value — e.g. for
  /// model-checker snapshots — where the copied tracker must observe the
  /// copy's network, not the source's. All cached labels carry over; the
  /// next query revalidates against the new network's version counter.
  void rebind(const LiveNetwork& live) noexcept { live_ = &live; }

private:
  /// Hot-path refresh gate: no-op unless the network version moved.
  void sync() const {
    if (cached_version_ != live_->version()) sync_slow();
  }
  // QUORA_ALLOC_OK: these refresh paths append only into capacity the
  // constructor reserved up front, so their direct "growth" calls never
  // reach the allocator in steady state — the claim `quora_bench
  // --alloc-check` verifies at runtime.
  void sync_slow() const;
  QUORA_ALLOC_OK void rebuild() const;
  QUORA_ALLOC_OK void rebuild_dense() const;
  QUORA_ALLOC_OK void rebuild_sparse() const;
  QUORA_ALLOC_OK void build_member_csr() const;
  QUORA_ALLOC_OK void compact() const;
  QUORA_ALLOC_OK void apply_site_up(net::SiteId s) const;
  void apply_link_up(net::LinkId l) const;
  bool loss_splits_nothing(net::LinkId l) const;
  std::int32_t find(std::int32_t label) const;
  void unite(std::int32_t a, std::int32_t b) const;

  const LiveNetwork* live_;
  // Everything below is cache, maintained by sync()/rebuild()/compact().
  mutable std::uint64_t cached_version_;
  mutable bool compact_ = false;  // labels dense + member CSR valid
  mutable std::vector<std::int32_t> label_;
  mutable std::vector<std::int32_t> parent_;     // union-find over labels
  mutable std::vector<net::Vote> comp_votes_;    // valid at union-find roots
  mutable std::vector<std::uint32_t> comp_size_; // valid at union-find roots
  mutable std::uint32_t root_count_ = 0;
  mutable net::Vote max_votes_ = 0;
  mutable std::vector<net::SiteId> member_storage_;  // grouped by component
  mutable std::vector<std::size_t> member_offsets_;  // CSR over member_storage_
  mutable std::vector<net::SiteId> bfs_stack_;
  mutable std::vector<bits::Word> unassigned_words_;   // dense-rebuild scratch
  mutable std::vector<bits::Word> frontier_words_;     // dense-rebuild scratch
  mutable std::vector<bits::Word> member_words_scratch_;
  mutable std::vector<std::int32_t> remap_;          // compaction scratch
  mutable std::vector<net::Vote> votes_scratch_;
  mutable std::vector<std::uint32_t> size_scratch_;
  mutable std::vector<std::size_t> cursor_scratch_;
  mutable Stats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter obs_full_rebuilds_;
  obs::Counter obs_incremental_applies_;
  obs::Counter obs_compactions_;
};

} // namespace quora::conn
