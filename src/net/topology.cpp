#include "net/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

namespace quora::net {

Topology::Topology(std::string name, std::uint32_t site_count, std::vector<Link> links,
                   std::vector<Vote> votes)
    : name_(std::move(name)),
      site_count_(site_count),
      links_(std::move(links)),
      votes_(std::move(votes)) {
  if (site_count_ == 0) throw std::invalid_argument("Topology: no sites");
  if (votes_.size() != site_count_) {
    throw std::invalid_argument("Topology: votes size != site count");
  }

  std::set<std::pair<SiteId, SiteId>> seen;
  for (const Link& l : links_) {
    if (l.a >= site_count_ || l.b >= site_count_) {
      throw std::invalid_argument("Topology: link references unknown site");
    }
    if (l.a == l.b) throw std::invalid_argument("Topology: self-loop link");
    const auto key = std::minmax(l.a, l.b);
    if (!seen.insert(key).second) {
      throw std::invalid_argument("Topology: duplicate link");
    }
  }

  const std::uint64_t total =
      std::accumulate(votes_.begin(), votes_.end(), std::uint64_t{0});
  if (total > std::numeric_limits<Vote>::max()) {
    throw std::invalid_argument("Topology: vote total " + std::to_string(total) +
                                " overflows net::Vote");
  }
  total_votes_ = static_cast<Vote>(total);
  uniform_votes_ =
      std::all_of(votes_.begin(), votes_.end(),
                  [this](const Vote v) { return v == votes_.front(); });

  // CSR construction: count degrees, prefix-sum, fill.
  offsets_.assign(site_count_ + 1, 0);
  for (const Link& l : links_) {
    ++offsets_[l.a + 1];
    ++offsets_[l.b + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];

  adjacency_.resize(links_.size() * 2);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (LinkId id = 0; id < links_.size(); ++id) {
    const Link& l = links_[id];
    adjacency_[cursor[l.a]++] = Edge{l.b, id};
    adjacency_[cursor[l.b]++] = Edge{l.a, id};
  }
}

Topology::Topology(std::string name, std::uint32_t site_count, std::vector<Link> links)
    : Topology(std::move(name), site_count, std::move(links),
               std::vector<Vote>(site_count, Vote{1})) {}

bool Topology::has_link(SiteId a, SiteId b) const {
  return find_link(a, b) != link_count();
}

LinkId Topology::find_link(SiteId a, SiteId b) const {
  if (a >= site_count_ || b >= site_count_) return link_count();
  for (const Edge& e : neighbors(a)) {
    if (e.neighbor == b) return e.link;
  }
  return link_count();
}

namespace {

bool valid_domain_path(const std::string& path) {
  if (path.empty() || path.front() == '/' || path.back() == '/') return false;
  bool component_empty = true;
  for (const char c : path) {
    if (c == '/') {
      if (component_empty) return false;  // "a//b"
      component_empty = true;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
    component_empty = false;
  }
  return !component_empty;
}

} // namespace

void Topology::set_domain(SiteId s, std::string path) {
  if (s >= site_count_) {
    throw std::invalid_argument("Topology: domain for unknown site");
  }
  if (!path.empty() && !valid_domain_path(path)) {
    throw std::invalid_argument("Topology: malformed domain path '" + path + "'");
  }
  if (path.empty() && domains_.empty()) return;  // clearing a no-op
  if (domains_.empty()) domains_.resize(site_count_);
  domains_[s] = std::move(path);
}

const std::string& Topology::domain(SiteId s) const {
  static const std::string kEmpty;
  if (s >= site_count_) throw std::out_of_range("Topology: domain of unknown site");
  return domains_.empty() ? kEmpty : domains_[s];
}

bool Topology::domain_contains(const std::string& prefix,
                               const std::string& site_domain) {
  if (site_domain.empty()) return false;
  if (prefix.empty()) return true;
  if (site_domain.size() < prefix.size()) return false;
  if (site_domain.compare(0, prefix.size(), prefix) != 0) return false;
  return site_domain.size() == prefix.size() ||
         site_domain[prefix.size()] == '/';
}

std::vector<SiteId> Topology::sites_in_domain(const std::string& prefix) const {
  std::vector<SiteId> out;
  if (domains_.empty()) return out;
  for (SiteId s = 0; s < site_count_; ++s) {
    if (domain_contains(prefix, domains_[s])) out.push_back(s);
  }
  return out;
}

std::string Topology::domain_prefix(SiteId s, int levels) const {
  const std::string& path = domain(s);
  if (path.empty() || levels <= 0) return {};
  std::size_t pos = 0;
  for (int i = 0; i < levels; ++i) {
    pos = path.find('/', pos);
    if (pos == std::string::npos) return path;  // shallower than requested
    ++pos;
  }
  return path.substr(0, pos - 1);
}

std::vector<std::string> Topology::regions() const {
  std::vector<std::string> out;
  if (domains_.empty()) return out;
  for (SiteId s = 0; s < site_count_; ++s) {
    std::string region = domain_prefix(s, 1);
    if (region.empty()) continue;
    if (std::find(out.begin(), out.end(), region) == out.end()) {
      out.push_back(std::move(region));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Topology::set_link_latency(LinkId l, LinkLatency latency) {
  if (l >= link_count()) {
    throw std::invalid_argument("Topology: latency for unknown link");
  }
  if (latency.base < 0.0 || latency.jitter < 0.0) {
    throw std::invalid_argument("Topology: negative link latency");
  }
  if (link_latencies_.empty()) link_latencies_.resize(link_count());
  link_latencies_[l] = latency;
}

LinkLatency Topology::link_latency(LinkId l) const {
  if (l >= link_count()) throw std::out_of_range("Topology: latency of unknown link");
  return link_latencies_.empty() ? LinkLatency{} : link_latencies_[l];
}

} // namespace quora::net
