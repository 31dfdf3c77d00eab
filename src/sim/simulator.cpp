#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "rng/distributions.hpp"

namespace quora::sim {

Simulator::Simulator(const net::Topology& topo, SimConfig config, AccessSpec spec,
                     std::uint64_t seed, std::uint64_t stream)
    : Simulator(topo, config, std::move(spec), FailureProfile{}, seed, stream) {}

Simulator::Simulator(const net::Topology& topo, SimConfig config, AccessSpec spec,
                     FailureProfile profile, std::uint64_t seed, std::uint64_t stream)
    : topo_(&topo),
      processes_(config, std::move(profile), topo.site_count(), topo.link_count()),
      spec_(std::move(spec)),
      live_(topo),
      tracker_(live_),
      gen_(seed, stream) {
  spec_.validate(topo.site_count());
  if (!spec_.read_weights.empty()) read_sites_.emplace(spec_.read_weights);
  if (!spec_.write_weights.empty()) write_sites_.emplace(spec_.write_weights);
  processes_.start(gen_, [this](EventKind kind, std::uint32_t index, double delay) {
    queue_.push({now_ + delay, 0, kind, index});
  });
}

void Simulator::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  if (trace != nullptr) trace->set_clock(&now_);
  tracker_.set_trace(trace);
}

void Simulator::set_metrics(obs::Registry* registry) {
  obs_accesses_ = obs::counter(registry, "sim.accesses");
  obs_site_failures_ = obs::counter(registry, "sim.site_failures");
  obs_site_recoveries_ = obs::counter(registry, "sim.site_recoveries");
  obs_link_failures_ = obs::counter(registry, "sim.link_failures");
  obs_link_recoveries_ = obs::counter(registry, "sim.link_recoveries");
  tracker_.set_metrics(registry);
}

void Simulator::set_access_alpha(double alpha) {
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("set_access_alpha: alpha must be in [0,1]");
  }
  spec_.alpha = alpha;
}

Event Simulator::step_one() {
  const Event e = queue_.pop();
  now_ = e.time;
  handle(e);
  return e;
}

void Simulator::run_accesses(std::uint64_t count) {
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const Event e = queue_.pop();
    now_ = e.time;
    if (e.kind == EventKind::kAccess) --remaining;
    handle(e);
  }
}

void Simulator::handle(const Event& e) {
  switch (e.kind) {
    case EventKind::kSiteFail: {
      live_.set_site_up(e.index, false);
      ++counters_.site_failures;
      QUORA_METRIC_ADD(obs_site_failures_, 1);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, e.index, 0, 0,
                  obs::kFaultSite);
      schedule_next(EventKind::kSiteFail, e.index);
      notify_network(e.kind, e.index);
      break;
    }
    case EventKind::kSiteRecover: {
      live_.set_site_up(e.index, true);
      ++counters_.site_recoveries;
      QUORA_METRIC_ADD(obs_site_recoveries_, 1);
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, e.index, 0, 0,
                  obs::kFaultSite);
      schedule_next(EventKind::kSiteRecover, e.index);
      notify_network(e.kind, e.index);
      break;
    }
    case EventKind::kLinkFail: {
      live_.set_link_up(e.index, false);
      ++counters_.link_failures;
      QUORA_METRIC_ADD(obs_link_failures_, 1);
      QUORA_TRACE(trace_, obs::EventKind::kFaultInject, e.index, 0, 0,
                  obs::kFaultLink);
      schedule_next(EventKind::kLinkFail, e.index);
      notify_network(e.kind, e.index);
      break;
    }
    case EventKind::kLinkRecover: {
      live_.set_link_up(e.index, true);
      ++counters_.link_recoveries;
      QUORA_METRIC_ADD(obs_link_recoveries_, 1);
      QUORA_TRACE(trace_, obs::EventKind::kFaultHeal, e.index, 0, 0,
                  obs::kFaultLink);
      schedule_next(EventKind::kLinkRecover, e.index);
      notify_network(e.kind, e.index);
      break;
    }
    case EventKind::kAccess: {
      ++counters_.accesses;
      AccessEvent ev;
      ev.time = now_;
      ev.is_read = rng::bernoulli(gen_, spec_.alpha);
      if (ev.is_read) {
        ev.site = read_sites_ ? static_cast<net::SiteId>(read_sites_->sample(gen_))
                              : static_cast<net::SiteId>(rng::uniform_index(
                                    gen_, topo_->site_count()));
      } else {
        ev.site = write_sites_ ? static_cast<net::SiteId>(write_sites_->sample(gen_))
                               : static_cast<net::SiteId>(rng::uniform_index(
                                     gen_, topo_->site_count()));
      }
      QUORA_METRIC_ADD(obs_accesses_, 1);
      QUORA_TRACE(trace_, obs::EventKind::kAccessSubmit, ev.site,
                  counters_.accesses, 0, ev.is_read ? 1 : 0);
      notify_access(ev);
      schedule_next(EventKind::kAccess, 0);
      break;
    }
  }
}

} // namespace quora::sim
