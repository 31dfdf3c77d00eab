#include "conn/live_network.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace quora::conn {

LiveNetwork::LiveNetwork(const net::Topology& topo)
    : topo_(&topo),
      link_up_(topo.link_count(), 1),
      site_words_(bits::word_count(topo.site_count()), 0),
      journal_(kJournalCapacity) {
  if (topo.site_count() > 0 && topo.site_count() <= kDenseAdjacencyMaxSites) {
    row_words_ = bits::word_count(topo.site_count());
    adj_rows_.resize(row_words_ * topo.site_count());
  }
  fill_all_up();
}

void LiveNetwork::site_out_of_range() {
  throw std::out_of_range("LiveNetwork: site id out of range");
}

void LiveNetwork::fill_all_up() {
  // Set bits [0, count) and leave tail bits zero: consumers popcount
  // whole words and must never see ghost elements.
  std::fill(site_words_.begin(), site_words_.end(), bits::Word{0});
  for (net::SiteId s = 0; s < topo_->site_count(); ++s)
    bits::set_bit(site_words_.data(), s);
  std::fill(adj_rows_.begin(), adj_rows_.end(), bits::Word{0});
  if (row_words_ == 0) return;
  for (const net::Link& e : topo_->links()) {
    bits::set_bit(adj_rows_.data() + e.a * row_words_, e.b);
    bits::set_bit(adj_rows_.data() + e.b * row_words_, e.a);
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
  if (is_site_up(s) == up) return false;
  bits::set_bit(site_words_.data(), s, up);
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
    bits::set_bit(adj_rows_.data() + e.a * row_words_, e.b, up);
    bits::set_bit(adj_rows_.data() + e.b * row_words_, e.a, up);
  }
  journal(up ? DeltaKind::kLinkUp : DeltaKind::kLinkDown, l);
  return true;
}

void LiveNetwork::reset_all_up() {
  bool changed = up_site_count() != topo_->site_count();
  for (auto& f : link_up_) {
    if (!f) {
      f = 1;
      changed = true;
    }
  }
  // One version bump for the whole compound change, and none when nothing
  // changed; kBulk tells replayers to re-derive rather than merge. The
  // packed state is re-derived wholesale: cheaper than itemizing, and the
  // bulk path is off the per-event hot path anyway.
  if (!changed) return;
  fill_all_up();
  journal(DeltaKind::kBulk, 0);
}

} // namespace quora::conn
