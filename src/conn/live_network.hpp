#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "conn/bitwords.hpp"
#include "net/topology.hpp"

namespace quora::conn {

/// The dynamic view of a `net::Topology`: which sites and links are
/// currently operational.
///
/// Failure semantics follow the paper's model (§5.1): links fail by failing
/// to transmit (no partial or byzantine failures), processors are
/// fail-stop, and all failures are eventually repaired. Every mutation that
/// actually changes state bumps `version()`, which downstream caches
/// (`ComponentTracker`) key on.
///
/// Site up/down state is stored as packed 64-bit bitset words
/// (`site_up_words`) so consumers can test 64 sites per AND and find the
/// first up site by bit scan. Link state lives in the masked adjacency
/// rows below. One-byte-per-element flag arrays for sites and links are
/// maintained in lockstep and remain available through
/// `site_up_flags`/`link_up_flags` — a shim for consumers that index per
/// element.
///
/// For topologies up to `kDenseAdjacencyMaxSites` sites the network also
/// maintains *masked adjacency rows*: row `a` is a site-indexed bitset
/// whose bit `b` is set iff link {a, b} exists AND that link is up (site
/// liveness is deliberately not baked in; consumers AND rows against
/// `site_up_words` themselves). A link flip updates exactly two bits, and
/// the component tracker's rebuild becomes a word-parallel frontier scan
/// over these rows. Larger topologies skip the rows (quadratic bits) and
/// fall back to the CSR adjacency walk.
///
/// Alongside the version counter, a ring journal records *what* each
/// version bump changed. Consumers that fell at most `kJournalCapacity`
/// versions behind can replay the deltas instead of re-deriving state from
/// scratch — this is what lets the component tracker absorb recoveries,
/// and link losses that split nothing, incrementally and rebuild only on
/// the other failures.
class LiveNetwork {
public:
  /// One effective state change. `kBulk` marks a compound mutation
  /// (`reset_all_up`) that is deliberately not itemized; replayers must
  /// fall back to a full re-derivation when they meet one.
  enum class DeltaKind : std::uint8_t {
    kSiteUp,
    kSiteDown,
    kLinkUp,
    kLinkDown,
    kBulk,
  };
  struct Delta {
    DeltaKind kind = DeltaKind::kBulk;
    std::uint32_t index = 0;  // site or link id; unused for kBulk
  };
  /// Ring capacity of the delta journal, a power of two so a version
  /// masks to its slot. Must comfortably exceed the number of network
  /// events a consumer can fall behind by between queries; the simulator
  /// queries at access frequency, which the paper's rho = 1/128 keeps
  /// within a handful of events. A consumer that falls further behind
  /// re-derives its state from scratch.
  static constexpr std::uint64_t kJournalCapacity = 256;
  static_assert(std::has_single_bit(kJournalCapacity));

  /// Site-count ceiling for the dense masked adjacency rows. At this size
  /// the rows cost 2 * 4096^2 bits = 4 MiB; beyond it the quadratic layout
  /// loses to the CSR walk in both memory and rebuild time.
  static constexpr std::uint32_t kDenseAdjacencyMaxSites = 4096;

  explicit LiveNetwork(const net::Topology& topo);

  const net::Topology& topology() const noexcept { return *topo_; }

  bool is_site_up(net::SiteId s) const { return site_up_.at(s) != 0; }
  bool is_link_up(net::LinkId l) const { return link_up_.at(l) != 0; }

  /// Raw up/down flags (1 = up), for consumers that walk the whole
  /// topology and cannot afford per-element bounds checks.
  std::span<const std::uint8_t> site_up_flags() const noexcept { return site_up_; }
  std::span<const std::uint8_t> link_up_flags() const noexcept { return link_up_; }

  /// Packed site liveness bitset (bit i of word i/64 = site i up). Bits
  /// at and above site_count() are always zero.
  std::span<const bits::Word> site_up_words() const noexcept {
    return site_words_;
  }

  /// True when the dense masked adjacency rows are maintained (site count
  /// within kDenseAdjacencyMaxSites).
  bool has_dense_adjacency() const noexcept { return row_words_ != 0; }

  /// Words per adjacency row (= word_count(site_count())); 0 when dense
  /// rows are disabled.
  std::size_t adjacency_row_words() const noexcept { return row_words_; }

  /// Masked adjacency row of site `a`: bit b set iff link {a, b} exists
  /// and is up. Only valid when has_dense_adjacency().
  const bits::Word* adjacency_row(net::SiteId a) const noexcept {
    return adj_rows_.data() + static_cast<std::size_t>(a) * row_words_;
  }

  /// A link transmits only when it and both endpoints are up.
  bool link_operational(net::LinkId l) const {
    const net::Link& e = topo_->link(l);
    return is_link_up(l) && is_site_up(e.a) && is_site_up(e.b);
  }

  /// Returns true if the call changed state.
  bool set_site_up(net::SiteId s, bool up);
  bool set_link_up(net::LinkId l, bool up);

  /// Restore every component to operational (the paper resets to the
  /// initial state before each batch). Journaled as one `kBulk` delta.
  void reset_all_up();

  std::uint32_t up_site_count() const noexcept { return up_sites_; }
  /// Lowest-numbered operational site, or nullopt when every site is
  /// down: the deterministic install origin of the adaptive loop.
  std::optional<net::SiteId> first_up_site() const noexcept;

  /// Monotone counter, bumped by every effective state change.
  std::uint64_t version() const noexcept { return version_; }

  /// Ring capacity of the delta journal, the same for every network.
  std::uint64_t journal_capacity() const noexcept { return kJournalCapacity; }

  /// The delta that moved `version - 1` to `version`. Only meaningful for
  /// versions in (version() - kJournalCapacity, version()]; older slots
  /// have been overwritten.
  Delta delta(std::uint64_t version) const noexcept {
    return journal_[version & kJournalMask];
  }

private:
  void journal(DeltaKind kind, std::uint32_t index) noexcept {
    ++version_;
    journal_[version_ & kJournalMask] = Delta{kind, index};
  }
  void set_word_bit(std::vector<bits::Word>& words, std::uint32_t i,
                    bool on) noexcept {
    const bits::Word mask = bits::Word{1} << (i % bits::kWordBits);
    if (on)
      words[i / bits::kWordBits] |= mask;
    else
      words[i / bits::kWordBits] &= ~mask;
  }

  const net::Topology* topo_;
  std::vector<std::uint8_t> site_up_;  // byte shim, kept in lockstep
  std::vector<std::uint8_t> link_up_;
  std::vector<bits::Word> site_words_;
  std::size_t row_words_ = 0;          // 0 = dense rows disabled
  std::vector<bits::Word> adj_rows_;   // masked by link liveness
  std::vector<bits::Word> topo_rows_;  // static topology rows, for resets
  std::uint32_t up_sites_ = 0;
  std::uint64_t version_ = 0;
  static constexpr std::uint64_t kJournalMask = kJournalCapacity - 1;
  std::vector<Delta> journal_;
};

} // namespace quora::conn
