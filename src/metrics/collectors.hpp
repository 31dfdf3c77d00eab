#pragma once

#include <cstdint>
#include <functional>

#include "core/component_dist.hpp"
#include "core/reassign.hpp"
#include "quorum/protocols.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"

namespace quora::metrics {

/// The on-line estimator of §4.2, piggy-backed on access processing: at
/// every access it records how many votes the submitting site can reach.
///
/// Three views of those samples are kept:
///  - read / write histograms, converging to the mixtures r(v) and w(v);
///  - optionally a per-site histogram, converging to f_i(v);
///  - the votes of the *largest* component, converging to the distribution
///    the SURV metric needs (footnote 3). Access epochs are Poisson, so by
///    PASTA these samples are unbiased time averages.
class VotesSeenCollector : public sim::AccessObserver {
public:
  struct Options {
    bool per_site = false;
    bool track_max_component = true;
  };

  explicit VotesSeenCollector(const net::Topology& topo)
      : VotesSeenCollector(topo, Options{}) {}
  VotesSeenCollector(const net::Topology& topo, Options options);

  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override;

  std::uint64_t accesses() const noexcept { return accesses_; }

  const stats::IntHistogram& read_hist() const noexcept { return read_; }
  const stats::IntHistogram& write_hist() const noexcept { return write_; }
  const stats::IntHistogram& max_component_hist() const noexcept { return max_comp_; }
  const stats::IntHistogram& site_hist(net::SiteId s) const;

  /// Estimated r(v) / w(v) mixtures (paper step 2).
  core::VotePdf read_pdf() const { return read_.pdf(); }
  core::VotePdf write_pdf() const { return write_.pdf(); }
  /// Reads and writes pooled — the right estimator when r_i = w_i (the
  /// paper's uniform experiments, where r(v) = w(v)).
  core::VotePdf combined_pdf() const;
  /// Estimated f_i(v) for one site (requires Options::per_site).
  core::VotePdf site_pdf(net::SiteId s) const { return site_hist(s).pdf(); }
  /// Distribution of votes in the largest component (SURV).
  core::VotePdf max_component_pdf() const { return max_comp_.pdf(); }

  /// Pool another collector's counts (domains must match).
  void merge(const VotesSeenCollector& other);

private:
  const net::Topology* topo_;
  Options options_;
  std::uint64_t accesses_ = 0;
  stats::IntHistogram read_;
  stats::IntHistogram write_;
  stats::IntHistogram max_comp_;
  std::vector<stats::IntHistogram> per_site_;
};

/// Measures ACC for one concrete protocol configuration by counting
/// grants. `decide` returns whether the access is granted; adapters for
/// the static engine, QR and dynamic voting are one-line lambdas.
class ProtocolMeter : public sim::AccessObserver {
public:
  using Decide = std::function<bool(const sim::Simulator&, const sim::AccessEvent&)>;

  explicit ProtocolMeter(Decide decide);

  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override;

  std::uint64_t reads() const noexcept { return reads_; }
  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t reads_granted() const noexcept { return reads_granted_; }
  std::uint64_t writes_granted() const noexcept { return writes_granted_; }

  /// Fraction of all accesses granted (the paper's ACC).
  double availability() const;
  double read_availability() const;
  double write_availability() const;

private:
  Decide decide_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t reads_granted_ = 0;
  std::uint64_t writes_granted_ = 0;
};

/// Adapter: meter a static quorum consensus engine.
ProtocolMeter::Decide static_decider(const quorum::QuorumConsensus& engine);

/// Adapter: meter accesses decided under the QR protocol, adding to
/// `stale_grants` each grant made under a superseded assignment (§2.2's
/// safety argument says there are none). Both referents must outlive the
/// meter.
ProtocolMeter::Decide qr_decider(const core::QuorumReassignment& qr,
                                 std::uint64_t& stale_grants);

} // namespace quora::metrics
