#include "metrics/collectors.hpp"

#include <stdexcept>

namespace quora::metrics {

VotesSeenCollector::VotesSeenCollector(const net::Topology& topo, Options options)
    : topo_(&topo),
      options_(options),
      read_(topo.total_votes()),
      write_(topo.total_votes()),
      max_comp_(topo.total_votes()) {
  if (options_.per_site) {
    per_site_.assign(topo.site_count(), stats::IntHistogram(topo.total_votes()));
  }
}

void VotesSeenCollector::on_access(const sim::Simulator& sim,
                                   const sim::AccessEvent& ev) {
  ++accesses_;
  const net::Vote v = sim.tracker().component_votes(ev.site);
  (ev.is_read ? read_ : write_).add(v);
  if (options_.per_site) per_site_[ev.site].add(v);
  if (options_.track_max_component) {
    max_comp_.add(sim.tracker().max_component_votes());
  }
}

const stats::IntHistogram& VotesSeenCollector::site_hist(net::SiteId s) const {
  if (!options_.per_site) {
    throw std::logic_error("VotesSeenCollector: per-site tracking not enabled");
  }
  return per_site_.at(s);
}

core::VotePdf VotesSeenCollector::combined_pdf() const {
  stats::IntHistogram pooled(read_.max_value());
  pooled.merge(read_);
  pooled.merge(write_);
  return pooled.pdf();
}

void VotesSeenCollector::merge(const VotesSeenCollector& other) {
  accesses_ += other.accesses_;
  read_.merge(other.read_);
  write_.merge(other.write_);
  max_comp_.merge(other.max_comp_);
  if (options_.per_site && other.options_.per_site) {
    if (per_site_.size() != other.per_site_.size()) {
      throw std::invalid_argument("VotesSeenCollector::merge: site count mismatch");
    }
    for (std::size_t i = 0; i < per_site_.size(); ++i) {
      per_site_[i].merge(other.per_site_[i]);
    }
  }
}

ProtocolMeter::ProtocolMeter(Decide decide) : decide_(std::move(decide)) {
  if (!decide_) throw std::invalid_argument("ProtocolMeter: empty decider");
}

void ProtocolMeter::on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) {
  const bool granted = decide_(sim, ev);
  if (ev.is_read) {
    ++reads_;
    if (granted) ++reads_granted_;
  } else {
    ++writes_;
    if (granted) ++writes_granted_;
  }
}

double ProtocolMeter::availability() const {
  const std::uint64_t total = reads_ + writes_;
  return total == 0 ? 0.0
                    : static_cast<double>(reads_granted_ + writes_granted_) /
                          static_cast<double>(total);
}

double ProtocolMeter::read_availability() const {
  return reads_ == 0 ? 0.0
                     : static_cast<double>(reads_granted_) / static_cast<double>(reads_);
}

double ProtocolMeter::write_availability() const {
  return writes_ == 0 ? 0.0
                      : static_cast<double>(writes_granted_) /
                            static_cast<double>(writes_);
}

ProtocolMeter::Decide static_decider(const quorum::QuorumConsensus& engine) {
  return [&engine](const sim::Simulator& sim, const sim::AccessEvent& ev) {
    const auto type =
        ev.is_read ? quorum::AccessType::kRead : quorum::AccessType::kWrite;
    return engine.request(sim.tracker(), ev.site, type).granted;
  };
}

ProtocolMeter::Decide qr_decider(const core::QuorumReassignment& qr,
                                 std::uint64_t& stale_grants) {
  return [&qr, &stale_grants](const sim::Simulator& sim, const sim::AccessEvent& ev) {
    const auto type =
        ev.is_read ? quorum::AccessType::kRead : quorum::AccessType::kWrite;
    const bool granted = qr.request(sim.tracker(), ev.site, type).granted;
    if (granted &&
        qr.effective(sim.tracker(), ev.site).version != qr.latest_version()) {
      ++stale_grants;
    }
    return granted;
  };
}

} // namespace quora::metrics
