#include "conn/component_tracker.hpp"

#include <algorithm>
#include <bit>

#include "core/contracts.hpp"

namespace quora::conn {

ComponentTracker::ComponentTracker(const LiveNetwork& live) : live_(&live) {
  const auto n = live.topology().site_count();
  // Reserve once so steady-state refreshes never touch the allocator.
  // Incremental site recoveries append fresh labels, at most one per
  // journal slot between rebuilds, hence the extra headroom.
  const std::size_t max_labels = n + LiveNetwork::kJournalCapacity;
  label_.reserve(n);
  parent_.reserve(max_labels);
  comp_votes_.reserve(max_labels);
  comp_size_.reserve(max_labels);
  member_storage_.reserve(n);
  member_offsets_.reserve(n + 1);
  bfs_stack_.reserve(n);
  unassigned_words_.reserve(bits::word_count(n));
  frontier_words_.reserve(bits::word_count(n));
  member_words_scratch_.reserve(bits::word_count(n));
  remap_.reserve(max_labels);
  votes_scratch_.reserve(n);
  size_scratch_.reserve(n);
  cursor_scratch_.reserve(n + 1);
  rebuild();
}

std::int32_t ComponentTracker::find(std::int32_t label) const {
  std::int32_t root = label;
  while (parent_[static_cast<std::size_t>(root)] != root)
    root = parent_[static_cast<std::size_t>(root)];
  while (parent_[static_cast<std::size_t>(label)] != root) {
    const std::int32_t next = parent_[static_cast<std::size_t>(label)];
    parent_[static_cast<std::size_t>(label)] = root;
    label = next;
  }
  return root;
}

void ComponentTracker::unite(std::int32_t a, std::int32_t b) const {
  std::int32_t ra = find(a);
  std::int32_t rb = find(b);
  if (ra == rb) return;
  if (comp_size_[static_cast<std::size_t>(ra)] <
      comp_size_[static_cast<std::size_t>(rb)])
    std::swap(ra, rb);
  parent_[static_cast<std::size_t>(rb)] = ra;
  comp_votes_[static_cast<std::size_t>(ra)] +=
      comp_votes_[static_cast<std::size_t>(rb)];
  comp_size_[static_cast<std::size_t>(ra)] +=
      comp_size_[static_cast<std::size_t>(rb)];
  max_votes_ = std::max(max_votes_, comp_votes_[static_cast<std::size_t>(ra)]);
  --root_count_;
}

void ComponentTracker::apply_site_up(net::SiteId s) const {
  const net::Topology& topo = live_->topology();
  const auto lbl = static_cast<std::int32_t>(parent_.size());
  parent_.push_back(lbl);
  comp_votes_.push_back(topo.votes(s));
  comp_size_.push_back(1);
  label_[s] = lbl;
  ++root_count_;
  max_votes_ = std::max(max_votes_, comp_votes_.back());
  // Neighbor-up is judged by *our* labeling, not the live flags: a
  // neighbor that recovers later in the replay window still carries
  // kNoComponent here, and its own delta performs the union when we reach
  // it. Link state is read from the live network, the one the replay
  // syncs to: a link that comes up later in the window only unites early
  // what its own delta would, and one that has gone down since this delta
  // is skipped here and judged by its own delta (see sync_slow).
  const std::uint8_t* link_up = live_->link_up_flags().data();
  for (const net::Topology::Edge& e : topo.neighbors(s)) {
    if (!link_up[e.link]) continue;
    if (label_[e.neighbor] == kNoComponent) continue;
    unite(lbl, label_[e.neighbor]);
  }
  compact_ = false;
}

void ComponentTracker::apply_link_up(net::LinkId l) const {
  const net::Link& e = live_->topology().link(l);
  const std::int32_t la = label_[e.a];
  const std::int32_t lb = label_[e.b];
  if (la == kNoComponent || lb == kNoComponent) return;
  unite(la, lb);
  compact_ = false;
}

bool ComponentTracker::loss_splits_nothing(net::LinkId l) const {
  const net::Link& e = live_->topology().link(l);
  const std::span<const bits::Word> up = live_->site_up_words();
  const auto is_up = [&up](net::SiteId s) {
    return ((up[s / bits::kWordBits] >> (s % bits::kWordBits)) & 1u) != 0;
  };
  // A down endpoint was down all along (had it gone down in the window,
  // its own delta would force the rebuild), so the link carried nothing.
  if (!is_up(e.a) || !is_up(e.b)) return true;
  if (!live_->has_dense_adjacency()) return false;
  // A shared up neighbour over up links keeps a and b joined.
  const bits::Word* row_a = live_->adjacency_row(e.a);
  const bits::Word* row_b = live_->adjacency_row(e.b);
  for (std::size_t w = 0; w < live_->adjacency_row_words(); ++w) {
    if ((row_a[w] & row_b[w] & up[w]) != 0) return true;
  }
  return false;
}

void ComponentTracker::set_metrics(obs::Registry* registry) {
  obs_full_rebuilds_ = obs::counter(registry, "tracker.full_rebuilds");
  obs_incremental_applies_ =
      obs::counter(registry, "tracker.incremental_applies");
  obs_compactions_ = obs::counter(registry, "tracker.compactions");
}

void ComponentTracker::sync_slow() const {
  const std::uint64_t target = live_->version();
  if (target - cached_version_ > LiveNetwork::kJournalCapacity) {
    // Fell behind the ring journal; the missed deltas are gone.
    rebuild();
    return;
  }
  for (std::uint64_t v = cached_version_ + 1; v <= target; ++v) {
    const LiveNetwork::Delta d = live_->delta(v);
    switch (d.kind) {
      case LiveNetwork::DeltaKind::kSiteUp:
        apply_site_up(d.index);
        break;
      case LiveNetwork::DeltaKind::kLinkUp:
        apply_link_up(d.index);
        break;
      case LiveNetwork::DeltaKind::kLinkDown:
        if (loss_splits_nothing(d.index)) break;
        [[fallthrough]];
      default:
        // Other failures (and bulk resets) can split components; unions
        // cannot express that, so recompute the labeling outright.
        rebuild();
        return;
    }
  }
  cached_version_ = target;
  ++stats_.incremental_applies;
  QUORA_METRIC_ADD(obs_incremental_applies_, 1);
  QUORA_TRACE(trace_, obs::EventKind::kTrackerRebuild, 0, target, 0,
              /*full=*/0);
}

void ComponentTracker::rebuild_dense() const {
  // Word-parallel frontier scan over the network's masked adjacency rows.
  // `unassigned` starts as the up-site bitset; each frontier site ORs its
  // row (link-exists AND link-up) masked by `unassigned` into the next
  // frontier, so one AND tests 64 neighbors at once. Roots are taken in
  // ascending site order (lowest set bit of the lowest non-zero word), so
  // labels come out numbered by lowest member site — the same canonical
  // numbering compact() produces.
  const net::Topology& topo = live_->topology();
  const std::size_t words = live_->adjacency_row_words();
  const std::span<const bits::Word> site_up = live_->site_up_words();

  unassigned_words_.assign(site_up.begin(), site_up.end());
  frontier_words_.assign(words, 0);

  const bool uniform = topo.has_uniform_votes();
  const net::Vote uniform_vote = uniform ? topo.uniform_vote() : 0;

  for (std::size_t w = 0; w < words; ++w) {
    while (unassigned_words_[w] != 0) {
      const auto root = static_cast<net::SiteId>(
          w * bits::kWordBits +
          static_cast<std::uint32_t>(std::countr_zero(unassigned_words_[w])));
      const auto comp = static_cast<std::int32_t>(comp_votes_.size());
      net::Vote votes = uniform ? 0 : topo.votes(root);
      std::uint32_t size = 1;

      label_[root] = comp;
      unassigned_words_[w] &= unassigned_words_[w] - 1;
      bfs_stack_.clear();
      bfs_stack_.push_back(root);
      while (!bfs_stack_.empty()) {
        std::fill(frontier_words_.begin(), frontier_words_.end(),
                  bits::Word{0});
        for (const net::SiteId s : bfs_stack_)
          bits::or_and(frontier_words_.data(), live_->adjacency_row(s),
                       unassigned_words_.data(), words);
        bfs_stack_.clear();
        for (std::size_t i = 0; i < words; ++i) {
          bits::Word m = frontier_words_[i];
          if (m == 0) continue;
          unassigned_words_[i] &= ~m;
          size += static_cast<std::uint32_t>(std::popcount(m));
          while (m != 0) {
            const auto s = static_cast<net::SiteId>(
                i * bits::kWordBits +
                static_cast<std::uint32_t>(std::countr_zero(m)));
            m &= m - 1;
            label_[s] = comp;
            if (!uniform) votes += topo.votes(s);
            bfs_stack_.push_back(s);
          }
        }
      }
      if (uniform) votes = uniform_vote * size;
      comp_votes_.push_back(votes);
      comp_size_.push_back(size);
      max_votes_ = std::max(max_votes_, votes);
    }
  }
}

void ComponentTracker::rebuild_sparse() const {
  // O(V+E) BFS over the topology's CSR adjacency — the fallback for
  // topologies too large for quadratic adjacency rows. Liveness still
  // reads the byte shim: per-element probes gain nothing from packing.
  const net::Topology& topo = live_->topology();
  const std::uint32_t n = topo.site_count();
  const std::uint8_t* site_up = live_->site_up_flags().data();
  const std::uint8_t* link_up = live_->link_up_flags().data();

  for (net::SiteId root = 0; root < n; ++root) {
    if (!site_up[root] || label_[root] != kNoComponent) continue;
    const auto comp = static_cast<std::int32_t>(comp_votes_.size());
    net::Vote votes = 0;
    std::uint32_t size = 0;

    bfs_stack_.clear();
    bfs_stack_.push_back(root);
    label_[root] = comp;
    while (!bfs_stack_.empty()) {
      const net::SiteId s = bfs_stack_.back();
      bfs_stack_.pop_back();
      votes += topo.votes(s);
      ++size;
      for (const net::Topology::Edge& e : topo.neighbors(s)) {
        if (!link_up[e.link]) continue;
        if (!site_up[e.neighbor]) continue;
        if (label_[e.neighbor] != kNoComponent) continue;
        label_[e.neighbor] = comp;
        bfs_stack_.push_back(e.neighbor);
      }
    }
    comp_votes_.push_back(votes);
    comp_size_.push_back(size);
    max_votes_ = std::max(max_votes_, votes);
  }
}

void ComponentTracker::build_member_csr() const {
  // Member CSR via counting sort over the (dense) labels; members come
  // out ascending by site id for every component, regardless of which
  // rebuild flavor — or an earlier compaction — produced the labels.
  const std::uint32_t n = live_->topology().site_count();
  const std::size_t comp_count = comp_votes_.size();
  member_offsets_.assign(comp_count + 1, 0);
  for (net::SiteId s = 0; s < n; ++s) {
    const std::int32_t l = label_[s];
    if (l != kNoComponent) ++member_offsets_[static_cast<std::size_t>(l) + 1];
  }
  for (std::size_t i = 1; i <= comp_count; ++i)
    member_offsets_[i] += member_offsets_[i - 1];
  member_storage_.resize(member_offsets_[comp_count]);
  cursor_scratch_.assign(member_offsets_.begin(), member_offsets_.end() - 1);
  for (net::SiteId s = 0; s < n; ++s) {
    const std::int32_t l = label_[s];
    if (l == kNoComponent) continue;
    member_storage_[cursor_scratch_[static_cast<std::size_t>(l)]++] = s;
  }
}

void ComponentTracker::rebuild() const {
  ++stats_.full_rebuilds;

  const net::Topology& topo = live_->topology();

  label_.assign(topo.site_count(), kNoComponent);
  parent_.clear();
  comp_votes_.clear();
  comp_size_.clear();
  max_votes_ = 0;

  // Flavor by cost model, not just row availability: the dense pass reads
  // ~n^2/64 words (every live site ORs its full row once, plus a frontier
  // scan per BFS level), the CSR pass ~n + 2m edge probes. Dense wins on
  // dense graphs (complete-101: one row AND tests 64 neighbors) and loses
  // badly on deep narrow ones (ring-101: ~n/2 levels of whole-bitset
  // work for 2 real neighbors each), so require m >= n^2/64.
  const std::uint64_t n_sites = live_->topology().site_count();
  const bool dense_pays =
      64ull * live_->topology().link_count() >= n_sites * n_sites;
  if (live_->has_dense_adjacency() && dense_pays)
    rebuild_dense();
  else
    rebuild_sparse();

  for (std::size_t i = 0; i < comp_votes_.size(); ++i)
    parent_.push_back(static_cast<std::int32_t>(i));
  root_count_ = static_cast<std::uint32_t>(comp_votes_.size());
  build_member_csr();
  compact_ = true;
  // Vote and membership conservation under partitioning: components are
  // disjoint, cover exactly the up sites, and their vote totals never
  // exceed the system total T — the property every quorum decision and
  // the paper's availability accounting lean on.
  if constexpr (contracts::kActive) {
    std::uint64_t up_sites = 0;
    net::Vote partition_votes = 0;
    for (const std::uint32_t size : comp_size_) up_sites += size;
    for (const net::Vote v : comp_votes_) partition_votes += v;
    QUORA_INVARIANT(up_sites == live_->up_site_count(),
                    "components must partition exactly the up sites");
    QUORA_INVARIANT(member_storage_.size() == up_sites,
                    "member lists must cover each up site exactly once");
    QUORA_INVARIANT(partition_votes <= topo.total_votes(),
                    "partition components hold more votes than the system");
  }
  cached_version_ = live_->version();
  QUORA_METRIC_ADD(obs_full_rebuilds_, 1);
  QUORA_TRACE(trace_, obs::EventKind::kTrackerRebuild, 0, cached_version_,
              member_storage_.size(), /*full=*/1);
}

void ComponentTracker::compact() const {
  if (compact_) return;
  ++stats_.compactions;
  QUORA_METRIC_ADD(obs_compactions_, 1);

  const std::uint32_t n = live_->topology().site_count();
  remap_.assign(parent_.size(), kNoComponent);
  votes_scratch_.clear();
  size_scratch_.clear();

  // Dense labels, numbered by each component's lowest site id; a full
  // rebuild produces exactly this numbering, so labels do not depend on
  // which path (incremental or BFS) produced the partition.
  for (net::SiteId s = 0; s < n; ++s) {
    const std::int32_t l = label_[s];
    if (l == kNoComponent) continue;
    const auto r = static_cast<std::size_t>(find(l));
    if (remap_[r] == kNoComponent) {
      remap_[r] = static_cast<std::int32_t>(votes_scratch_.size());
      votes_scratch_.push_back(comp_votes_[r]);
      size_scratch_.push_back(comp_size_[r]);
    }
    label_[s] = remap_[r];
  }
  const std::size_t comp_count = votes_scratch_.size();
  comp_votes_.assign(votes_scratch_.begin(), votes_scratch_.end());
  comp_size_.assign(size_scratch_.begin(), size_scratch_.end());
  parent_.resize(comp_count);
  for (std::size_t i = 0; i < comp_count; ++i)
    parent_[i] = static_cast<std::int32_t>(i);

  build_member_csr();
  compact_ = true;

  if constexpr (contracts::kActive) {
    QUORA_INVARIANT(comp_count == root_count_,
                    "compaction must preserve the component count");
    QUORA_INVARIANT(member_storage_.size() == live_->up_site_count(),
                    "member lists must cover each up site exactly once");
  }
}

std::int32_t ComponentTracker::component_of(net::SiteId s) const {
  sync();
  compact();
  return label_.at(s);
}

net::Vote ComponentTracker::component_votes(net::SiteId s) const {
  sync();
  const std::int32_t c = label_.at(s);
  return c == kNoComponent ? 0 : comp_votes_[static_cast<std::size_t>(find(c))];
}

std::uint32_t ComponentTracker::component_size(net::SiteId s) const {
  sync();
  const std::int32_t c = label_.at(s);
  return c == kNoComponent ? 0 : comp_size_[static_cast<std::size_t>(find(c))];
}

std::uint32_t ComponentTracker::component_count() const {
  sync();
  return root_count_;
}

net::Vote ComponentTracker::max_component_votes() const {
  sync();
  return max_votes_;
}

std::span<const net::SiteId> ComponentTracker::members(std::int32_t label) const {
  sync();
  compact();
  const auto i = static_cast<std::size_t>(label);
  return {member_storage_.data() + member_offsets_.at(i),
          member_storage_.data() + member_offsets_.at(i + 1)};
}

std::span<const bits::Word> ComponentTracker::member_words(
    std::int32_t label) const {
  sync();
  compact();
  member_words_scratch_.assign(bits::word_count(live_->topology().site_count()),
                               bits::Word{0});
  for (const net::SiteId s : members(label))
    member_words_scratch_[s / bits::kWordBits] |= bits::Word{1}
                                                  << (s % bits::kWordBits);
  return member_words_scratch_;
}

bool ComponentTracker::connected(net::SiteId a, net::SiteId b) const {
  sync();
  const std::int32_t ca = label_.at(a);
  const std::int32_t cb = label_.at(b);
  return ca != kNoComponent && cb != kNoComponent && find(ca) == find(cb);
}

std::span<const net::Vote> ComponentTracker::votes_by_label() const {
  sync();
  compact();
  return comp_votes_;
}

} // namespace quora::conn
