#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rng/distributions.hpp"

namespace quora::fault {
namespace {

void validate(const FaultPlan& plan) {
  for (const Action& a : plan.actions()) {
    if (!(a.time >= 0.0) || !std::isfinite(a.time)) {
      throw std::invalid_argument("FaultInjector: action scheduled at a "
                                  "negative or non-finite time");
    }
    // duration == 0.0 is the defined "crash with immediate restart": the
    // coordinator's volatile state is lost but the site never leaves the
    // up set. Only negative/non-finite down-times are nonsense.
    if (a.kind == Action::Kind::kArmCrashOnCommit &&
        (!(a.duration >= 0.0) || !std::isfinite(a.duration))) {
      throw std::invalid_argument(
          "FaultInjector: crash-on-commit needs a down-time >= 0");
    }
    if (a.kind == Action::Kind::kPartition && a.groups.size() < 2) {
      throw std::invalid_argument(
          "FaultInjector: a partition needs at least two groups");
    }
    if ((a.kind == Action::Kind::kDomainDown ||
         a.kind == Action::Kind::kDomainUp) &&
        a.domain.empty()) {
      throw std::invalid_argument(
          "FaultInjector: domain action needs a domain path");
    }
    if ((a.kind == Action::Kind::kOneWayDown ||
         a.kind == Action::Kind::kOneWayUp) &&
        a.site == a.site_b) {
      throw std::invalid_argument(
          "FaultInjector: one-way cut needs two distinct endpoints");
    }
  }
  for (const MessageRule& r : plan.rules()) {
    if (!(r.probability >= 0.0 && r.probability <= 1.0)) {
      throw std::invalid_argument(
          "FaultInjector: rule probability outside [0, 1]");
    }
    // [from, until) is half-open; from == until is a legal inert window
    // that can never match. Only truly inverted windows are rejected.
    if (!(r.until >= r.from) || !(r.from >= 0.0)) {
      throw std::invalid_argument("FaultInjector: rule window is inverted "
                                  "or starts before t=0");
    }
    if (r.kind == MessageRule::Kind::kDelay && !(r.mean_extra > 0.0)) {
      throw std::invalid_argument(
          "FaultInjector: delay rule needs a positive mean extra latency");
    }
    if (r.domain_a == "*") {
      throw std::invalid_argument(
          "FaultInjector: the first rule domain cannot be the wildcard");
    }
    if (!r.domain_a.empty() && r.domain_b.empty()) {
      throw std::invalid_argument(
          "FaultInjector: a domain-scoped rule needs both domains");
    }
  }
  for (const CorrelationRule& c : plan.correlations()) {
    if (c.level < 1 || c.level > 3) {
      throw std::invalid_argument(
          "FaultInjector: correlation level must be 1 (region), 2 (dc) or "
          "3 (rack)");
    }
    if (!(c.probability >= 0.0 && c.probability <= 1.0)) {
      throw std::invalid_argument(
          "FaultInjector: correlation probability outside [0, 1]");
    }
    if (!(c.down_for > 0.0) || !std::isfinite(c.down_for)) {
      throw std::invalid_argument(
          "FaultInjector: correlated failures need a positive down-time");
    }
  }
}

} // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : timeline_(plan.actions()),
      rules_(plan.rules()),
      correlations_(plan.correlations()),
      // Stream 1: one jump (2^128 steps) past the cluster's stream 0, so a
      // shared root seed never correlates the two draw sequences.
      gen_(seed, 1) {
  validate(plan);
  rule_link_mask_.assign(rules_.size(), {});
  std::stable_sort(timeline_.begin(), timeline_.end(),
                   [](const Action& a, const Action& b) {
                     return a.time < b.time;
                   });
}

void FaultInjector::set_topology(const net::Topology* topo) {
  topo_ = topo;
  rule_link_mask_.assign(rules_.size(), {});
  if (topo_ == nullptr) return;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const MessageRule& r = rules_[i];
    if (r.domain_a.empty()) continue;  // link-scoped, no mask needed
    std::vector<char> mask(topo_->link_count(), 0);
    for (net::LinkId l = 0; l < topo_->link_count(); ++l) {
      const net::Link& link = topo_->link(l);
      const std::string& da = topo_->domain(link.a);
      const std::string& db = topo_->domain(link.b);
      const auto crosses = [&](const std::string& x, const std::string& y) {
        if (!net::Topology::domain_contains(r.domain_a, x)) return false;
        if (r.domain_b == "*") {
          // "outside domain_a": annotated or not, y must not be inside a.
          return !net::Topology::domain_contains(r.domain_a, y);
        }
        return net::Topology::domain_contains(r.domain_b, y);
      };
      mask[l] = (crosses(da, db) || crosses(db, da)) ? 1 : 0;
    }
    rule_link_mask_[i] = std::move(mask);
  }
}

bool FaultInjector::rule_matches_link(std::size_t rule_index,
                                      net::LinkId link) const {
  const MessageRule& r = rules_[rule_index];
  if (r.domain_a.empty()) {
    return r.link == kAllLinks || r.link == link;
  }
  const std::vector<char>& mask = rule_link_mask_[rule_index];
  return link < mask.size() && mask[link] != 0;
}

void FaultInjector::set_metrics(obs::Registry* registry) {
  obs_drops_ = obs::counter(registry, "fault.msg_drops");
  obs_duplicates_ = obs::counter(registry, "fault.msg_duplicates");
  obs_delays_ = obs::counter(registry, "fault.msg_delays");
}

MessageFault FaultInjector::on_send(net::LinkId link, double now,
                                    double mean_hop_latency) {
  MessageFault fault;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const MessageRule& r = rules_[i];
    if (now < r.from || now >= r.until) continue;
    if (!rule_matches_link(i, link)) continue;
    switch (r.kind) {
      case MessageRule::Kind::kDrop:
        if (rng::bernoulli(gen_, r.probability)) fault.drop = true;
        break;
      case MessageRule::Kind::kDelay:
        if (rng::bernoulli(gen_, r.probability)) {
          fault.extra_delay += rng::exponential(gen_, r.mean_extra);
          QUORA_METRIC_ADD(obs_delays_, 1);
        }
        break;
      case MessageRule::Kind::kDuplicate:
        if (!fault.duplicate && rng::bernoulli(gen_, r.probability)) {
          fault.duplicate = true;
          fault.dup_extra = rng::exponential(gen_, mean_hop_latency);
          QUORA_METRIC_ADD(obs_duplicates_, 1);
        }
        break;
    }
  }
  if (fault.drop) QUORA_METRIC_ADD(obs_drops_, 1);
  return fault;
}

std::vector<std::pair<net::SiteId, double>> FaultInjector::correlated_failures(
    net::SiteId failed) {
  std::vector<std::pair<net::SiteId, double>> fired;
  if (correlations_.empty() || topo_ == nullptr ||
      failed >= topo_->site_count()) {
    return fired;
  }
  for (const CorrelationRule& rule : correlations_) {
    const std::string shared = topo_->domain_prefix(failed, rule.level);
    if (shared.empty()) continue;  // unannotated sites never correlate
    for (net::SiteId s = 0; s < topo_->site_count(); ++s) {
      if (s == failed) continue;
      if (!net::Topology::domain_contains(shared, topo_->domain(s))) continue;
      // Draw unconditionally — the sequence must depend only on the
      // (failed site) query order, not on who happens to be up.
      if (!rng::bernoulli(gen_, rule.probability)) continue;
      const auto already = std::find_if(
          fired.begin(), fired.end(),
          [s](const std::pair<net::SiteId, double>& f) { return f.first == s; });
      if (already == fired.end()) fired.emplace_back(s, rule.down_for);
    }
  }
  return fired;
}

void FaultInjector::arm_crash_on_commit(net::SiteId filter, double down_for) {
  armed_.push_back(Armed{filter, down_for});
}

std::optional<double> FaultInjector::take_crash_on_commit(
    net::SiteId coordinator) {
  for (std::size_t i = 0; i < armed_.size(); ++i) {
    if (armed_[i].filter == kAnySite || armed_[i].filter == coordinator) {
      const double down_for = armed_[i].down_for;
      armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
      return down_for;
    }
  }
  return std::nullopt;
}

} // namespace quora::fault
