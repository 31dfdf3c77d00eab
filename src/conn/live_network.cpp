#include "conn/live_network.hpp"

#include <algorithm>
#include <bit>

namespace quora::conn {

LiveNetwork::LiveNetwork(const net::Topology& topo)
    : topo_(&topo),
      site_up_(topo.site_count(), 1),
      link_up_(topo.link_count(), 1),
      site_words_(bits::word_count(topo.site_count()), 0),
      up_sites_(topo.site_count()),
      journal_(kJournalCapacity) {
  // All-up initial state: set bits [0, count) and leave tail bits zero —
  // consumers popcount whole words and must never see ghost elements.
  for (std::uint32_t s = 0; s < topo.site_count(); ++s)
    set_word_bit(site_words_, s, true);

  if (topo.site_count() > 0 && topo.site_count() <= kDenseAdjacencyMaxSites) {
    row_words_ = bits::word_count(topo.site_count());
    const std::size_t total = row_words_ * topo.site_count();
    topo_rows_.assign(total, 0);
    for (const net::Link& e : topo.links()) {
      topo_rows_[e.a * row_words_ + e.b / bits::kWordBits] |=
          bits::Word{1} << (e.b % bits::kWordBits);
      topo_rows_[e.b * row_words_ + e.a / bits::kWordBits] |=
          bits::Word{1} << (e.a % bits::kWordBits);
    }
    adj_rows_ = topo_rows_;  // every link starts up
  }
}

std::optional<net::SiteId> LiveNetwork::first_up_site() const noexcept {
  for (std::size_t w = 0; w < site_words_.size(); ++w) {
    if (site_words_[w] != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(site_words_[w]));
      return static_cast<net::SiteId>(w * bits::kWordBits + bit);
    }
  }
  return std::nullopt;
}

bool LiveNetwork::set_site_up(net::SiteId s, bool up) {
  std::uint8_t& flag = site_up_.at(s);
  if ((flag != 0) == up) return false;
  flag = up ? 1 : 0;
  set_word_bit(site_words_, s, up);
  up_sites_ += up ? 1u : -1u;
  journal(up ? DeltaKind::kSiteUp : DeltaKind::kSiteDown, s);
  return true;
}

bool LiveNetwork::set_link_up(net::LinkId l, bool up) {
  std::uint8_t& flag = link_up_.at(l);
  if ((flag != 0) == up) return false;
  flag = up ? 1 : 0;
  if (row_words_ != 0) {
    // A link flip touches exactly two row bits; the rows stay an exact
    // mirror of "link exists AND link up" with no rebuild.
    const net::Link& e = topo_->link(l);
    const bits::Word ma = bits::Word{1} << (e.a % bits::kWordBits);
    const bits::Word mb = bits::Word{1} << (e.b % bits::kWordBits);
    bits::Word& row_ab = adj_rows_[e.a * row_words_ + e.b / bits::kWordBits];
    bits::Word& row_ba = adj_rows_[e.b * row_words_ + e.a / bits::kWordBits];
    if (up) {
      row_ab |= mb;
      row_ba |= ma;
    } else {
      row_ab &= ~mb;
      row_ba &= ~ma;
    }
  }
  journal(up ? DeltaKind::kLinkUp : DeltaKind::kLinkDown, l);
  return true;
}

void LiveNetwork::reset_all_up() {
  bool changed = false;
  for (auto& f : site_up_) {
    if (!f) {
      f = 1;
      changed = true;
    }
  }
  for (auto& f : link_up_) {
    if (!f) {
      f = 1;
      changed = true;
    }
  }
  if (changed) {
    // Re-derive the packed state wholesale; cheaper than itemizing and the
    // bulk path is off the per-event hot path anyway.
    std::fill(site_words_.begin(), site_words_.end(), bits::Word{0});
    for (std::uint32_t s = 0; s < topo_->site_count(); ++s)
      set_word_bit(site_words_, s, true);
    if (row_words_ != 0)
      std::copy(topo_rows_.begin(), topo_rows_.end(), adj_rows_.begin());
  }
  up_sites_ = topo_->site_count();
  // One version bump for the whole compound change, exactly as before the
  // journal existed; kBulk tells replayers to re-derive rather than merge.
  if (changed) journal(DeltaKind::kBulk, 0);
}

} // namespace quora::conn
