#include "adapt/access_loop.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

namespace quora::adapt {

AccessLoop::AccessLoop(const net::Topology& topo, AdaptiveController& controller,
                       core::QuorumReassignment& qr)
    : controller_(&controller), qr_(&qr) {
  if (controller.histogram().site_count() != topo.site_count() ||
      controller.histogram().total_votes() != topo.total_votes()) {
    throw std::invalid_argument(
        "AccessLoop: controller sized for a different system");
  }
}

double AccessLoop::estimated_alpha() const {
  const double total = reads_ + writes_;
  return total > 0.0 ? reads_ / total : 0.5;
}

void AccessLoop::on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) {
  const double epoch_length = controller_->options().epoch_length;
  if (!started_) {
    started_ = true;
    next_epoch_ = ev.time + epoch_length;
  }
  if (ev.time >= next_epoch_) {
    run_epoch(sim);
    // Boundaries passed with no access between them merge into this epoch.
    next_epoch_ +=
        epoch_length * (std::floor((ev.time - next_epoch_) / epoch_length) + 1.0);
  }
  // The same discipline as Cluster::submit_access: a down origin observes
  // nothing, which is the censoring the footnote-4 read-out undoes.
  if (sim.network().is_site_up(ev.site)) {
    controller_->histogram().record(ev.site, sim.tracker().component_votes(ev.site));
  }
  (ev.is_read ? reads_ : writes_) += 1.0;
}

void AccessLoop::run_epoch(const sim::Simulator& sim) {
  const std::optional<net::SiteId> origin = sim.network().first_up_site();
  if (!origin) return;
  const conn::ComponentTracker& tracker = sim.tracker();
  const AdaptiveController::Decision d =
      controller_->epoch(estimated_alpha(), qr_->effective(tracker, *origin).spec);
  if (d.install && qr_->try_install(tracker, *origin, d.spec)) ++installs_;
  const double forget = controller_->options().forget;
  reads_ *= forget;
  writes_ *= forget;
}

} // namespace quora::adapt
