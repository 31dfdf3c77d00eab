#include "sim/config.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace quora::sim {

void SimConfig::validate() const {
  if (!(mu_access > 0.0)) throw std::invalid_argument("SimConfig: mu_access <= 0");
  if (!(rho > 0.0)) throw std::invalid_argument("SimConfig: rho <= 0");
  if (!(reliability > 0.0 && reliability < 1.0)) {
    throw std::invalid_argument("SimConfig: reliability must be in (0,1)");
  }
}

void FailureProfile::validate(std::uint32_t site_count, std::uint32_t link_count) const {
  const auto check = [](const std::vector<double>& fail,
                        const std::vector<double>& repair, std::size_t count,
                        const char* what) {
    if (fail.empty() != repair.empty()) {
      throw std::invalid_argument(std::string("FailureProfile: ") + what +
                                  " fail/repair must be provided together");
    }
    if (!fail.empty() && (fail.size() != count || repair.size() != count)) {
      throw std::invalid_argument(std::string("FailureProfile: ") + what +
                                  " size mismatch");
    }
    for (const double x : fail) {
      if (!(x > 0.0)) {
        throw std::invalid_argument(std::string("FailureProfile: ") + what +
                                    " mu_fail must be positive");
      }
    }
    for (const double x : repair) {
      if (!(x > 0.0) || std::isinf(x)) {
        throw std::invalid_argument(std::string("FailureProfile: ") + what +
                                    " mu_repair must be positive and finite");
      }
    }
  };
  check(site_mu_fail, site_mu_repair, site_count, "site");
  check(link_mu_fail, link_mu_repair, link_count, "link");
}

FailureProfile FailureProfile::from_reliabilities(const SimConfig& config,
                                                  const std::vector<double>& site_rel,
                                                  const std::vector<double>& link_rel) {
  const double repair = config.mu_repair();
  const auto convert = [repair](double rel) {
    if (!(rel > 0.0 && rel <= 1.0)) {
      throw std::invalid_argument(
          "FailureProfile::from_reliabilities: reliability outside (0,1]");
    }
    // reliability = mu_fail / (mu_fail + mu_repair); rel == 1 never fails.
    return rel == 1.0 ? std::numeric_limits<double>::infinity()
                      : repair * rel / (1.0 - rel);
  };
  FailureProfile profile;
  profile.site_mu_fail.reserve(site_rel.size());
  for (const double rel : site_rel) profile.site_mu_fail.push_back(convert(rel));
  profile.site_mu_repair.assign(site_rel.size(), repair);
  profile.link_mu_fail.reserve(link_rel.size());
  for (const double rel : link_rel) profile.link_mu_fail.push_back(convert(rel));
  profile.link_mu_repair.assign(link_rel.size(), repair);
  return profile;
}

PoissonProcesses::PoissonProcesses(const SimConfig& config, FailureProfile profile,
                                   std::uint32_t site_count, std::uint32_t link_count)
    : config_(config),
      profile_(std::move(profile)),
      site_count_(site_count),
      link_count_(link_count) {
  config_.validate();
  profile_.validate(site_count, link_count);
  cache_means();
}

void PoissonProcesses::cache_means() {
  mu_fail_ = config_.mu_fail();
  mu_repair_ = config_.mu_repair();
  access_mean_ = config_.mu_access / static_cast<double>(site_count_);
}

void AccessSpec::validate(std::uint32_t site_count) const {
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("AccessSpec: alpha must be in [0,1]");
  }
  if (!read_weights.empty() && read_weights.size() != site_count) {
    throw std::invalid_argument("AccessSpec: read_weights size != site count");
  }
  if (!write_weights.empty() && write_weights.size() != site_count) {
    throw std::invalid_argument("AccessSpec: write_weights size != site count");
  }
}

} // namespace quora::sim
