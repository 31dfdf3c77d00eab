#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/event.hpp"

namespace quora::sim {

/// Stochastic parameters of the paper's simulation study (§5.2).
///
/// Defaults reproduce the paper exactly:
///  - per-site access submission is Poisson with mean inter-access time
///    mu_access = 1;
///  - rho = mu_access / mu_fail = 1/128 relates access and failure time
///    scales, so mu_fail = 128;
///  - every component (site or link alike) is 96% reliable:
///    mu_fail / (mu_fail + mu_repair) = 0.96, so mu_repair = mu_fail / 24;
///  - 100,000 warm-up accesses precede measurement, batches are 1,000,000
///    accesses.
struct SimConfig {
  double mu_access = 1.0;
  double rho = 1.0 / 128.0;
  double reliability = 0.96;
  std::uint64_t warmup_accesses = 100'000;
  std::uint64_t accesses_per_batch = 1'000'000;

  /// Mean up-time of a site or link: mu_access / rho.
  double mu_fail() const { return mu_access / rho; }

  /// Mean down-time, from reliability = mu_fail / (mu_fail + mu_repair).
  double mu_repair() const { return mu_fail() * (1.0 - reliability) / reliability; }

  /// Throws std::invalid_argument when parameters are out of range.
  void validate() const;
};

/// Optional per-component overrides of the uniform failure model —
/// heterogeneous reliabilities (e.g. the §4.2 bus network: a fallible bus
/// hub, perfectly reliable taps). Empty vectors mean "uniform from
/// SimConfig"; an infinite mu_fail entry means the component never fails.
struct FailureProfile {
  std::vector<double> site_mu_fail;
  std::vector<double> site_mu_repair;
  std::vector<double> link_mu_fail;
  std::vector<double> link_mu_repair;

  /// Throws std::invalid_argument on inconsistent sizes or non-positive
  /// rates. Each vector must be empty or match its component count, and
  /// fail/repair vectors must be provided together.
  void validate(std::uint32_t site_count, std::uint32_t link_count) const;

  /// Convenience: a profile where the given reliability fractions are met
  /// with the same repair time scale as `config`.
  static FailureProfile from_reliabilities(const SimConfig& config,
                                           const std::vector<double>& site_rel,
                                           const std::vector<double>& link_rel);
};

/// The §5.1–5.2 processes, defined once for `sim::Simulator` and
/// `msg::Cluster`'s timed run: every site and link alternates exponential
/// up-times (mean mu_fail) and down-times (mean mu_repair), and accesses
/// arrive as one merged Poisson stream of mean mu_access / n. What an
/// event does, and how an access picks its site and read/write label,
/// stay with each simulator (DESIGN.md §6).
class PoissonProcesses {
public:
  /// Means come from `profile` where it has them, from `config` otherwise.
  /// Throws std::invalid_argument on an invalid config or profile.
  PoissonProcesses(const SimConfig& config, FailureProfile profile,
                   std::uint32_t site_count, std::uint32_t link_count);

  struct Next {
    EventKind kind = EventKind::kAccess;
    double delay = 0.0;
  };

  /// Draws each process's first event into `push(kind, index, delay)`:
  /// every site's first failure, then every link's, then the first access
  /// (index 0), the order both simulators' goldens pin. A component whose
  /// mean up-time is infinite never fails and draws nothing.
  template <class Push>
  void start(rng::Xoshiro256ss& gen, Push&& push) const {
    for (std::uint32_t s = 0; s < site_count_; ++s) {
      const double mu = mean(profile_.site_mu_fail, mu_fail_, s);
      if (std::isfinite(mu)) push(EventKind::kSiteFail, s, rng::exponential(gen, mu));
    }
    for (std::uint32_t l = 0; l < link_count_; ++l) {
      const double mu = mean(profile_.link_mu_fail, mu_fail_, l);
      if (std::isfinite(mu)) push(EventKind::kLinkFail, l, rng::exponential(gen, mu));
    }
    push(EventKind::kAccess, 0u, rng::exponential(gen, access_mean_));
  }

  /// The event that follows a `kind` event of component `index` in its
  /// process: a failure's repair, a repair's next failure, an access's
  /// successor. Inline, so a caller passing a constant `kind` dispatches
  /// once.
  Next next(EventKind kind, std::uint32_t index, rng::Xoshiro256ss& gen) const {
    switch (kind) {
      case EventKind::kSiteFail:
        return {EventKind::kSiteRecover,
                rng::exponential(gen, mean(profile_.site_mu_repair, mu_repair_, index))};
      case EventKind::kSiteRecover:
        return {EventKind::kSiteFail,
                rng::exponential(gen, mean(profile_.site_mu_fail, mu_fail_, index))};
      case EventKind::kLinkFail:
        return {EventKind::kLinkRecover,
                rng::exponential(gen, mean(profile_.link_mu_repair, mu_repair_, index))};
      case EventKind::kLinkRecover:
        return {EventKind::kLinkFail,
                rng::exponential(gen, mean(profile_.link_mu_fail, mu_fail_, index))};
      case EventKind::kAccess:
        break;
    }
    return {EventKind::kAccess, rng::exponential(gen, access_mean_)};
  }

  /// The `reliability` and `rho` fault actions: later draws use the new
  /// uniform means; a profile's means stay.
  void set_reliability(double reliability) {
    config_.reliability = reliability;
    cache_means();
  }
  void set_rho(double rho) {
    config_.rho = rho;
    cache_means();
  }

private:
  static double mean(const std::vector<double>& per_component, double uniform,
                     std::uint32_t index) {
    return per_component.empty() ? uniform : per_component[index];
  }
  void cache_means();

  SimConfig config_;
  FailureProfile profile_;
  std::uint32_t site_count_;
  std::uint32_t link_count_;
  double mu_fail_ = 0.0;  // config_'s means, cached by cache_means
  double mu_repair_ = 0.0;
  double access_mean_ = 0.0;
};

/// Who submits accesses, and how reads mix with writes (§4 step 1).
///
/// `alpha` is the fraction of accesses that are reads. `read_weights` /
/// `write_weights` are the paper's r_i / w_i: the distribution of read
/// (write) submissions over sites. Empty weight vectors mean uniform —
/// the paper's experimental setting, where r(v) = w(v).
struct AccessSpec {
  double alpha = 0.5;
  std::vector<double> read_weights;   // empty => uniform
  std::vector<double> write_weights;  // empty => uniform

  /// Throws std::invalid_argument on bad alpha or mismatched weight sizes.
  void validate(std::uint32_t site_count) const;
};

} // namespace quora::sim
