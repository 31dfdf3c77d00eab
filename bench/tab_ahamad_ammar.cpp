// The Ahamad & Ammar baseline (paper reference [1]): non-partitionable
// networks (perfect links, fail-stop sites). Their analytic results —
// optima at the extreme quorum values; majority optimal over wide
// parameter ranges — are exactly what the paper's simulation extends to
// fallible links. This bench reproduces those results with our analytic
// machinery, then quantifies how fallible links (the paper's setting)
// change the picture for the same site reliability.

#include <iostream>

#include "common.hpp"
#include "core/component_dist.hpp"
#include "core/optimize.hpp"
#include "core/vote_opt.hpp"
#include "report/table.hpp"

int main(int argc, char** argv) {
  using quora::core::AvailabilityCurve;
  using quora::report::TextTable;

  quora::bench::parse_no_args(argc, argv);
  std::cout << "== Ahamad-Ammar model: optimal quorums without partitions ==\n\n";

  TextTable table({"n", "p", "alpha", "opt q_r (AA)", "A (AA)",
                   "opt q_r (links .96)", "A (links .96)"});
  int aa_endpoint = 0;
  int aa_cells = 0;
  for (const std::uint32_t n : {9u, 25u, 101u}) {
    for (const double p : {0.80, 0.96}) {
      const AvailabilityCurve aa(quora::core::ahamad_ammar_site_pdf(n, p));
      const AvailabilityCurve faulty(
          quora::core::fully_connected_site_pdf(n, p, 0.96));
      for (const double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        const auto best_aa = quora::core::optimize_exhaustive(aa, alpha);
        const auto best_f = quora::core::optimize_exhaustive(faulty, alpha);
        const bool endpoint =
            best_aa.q_r() == 1 || best_aa.q_r() == aa.max_read_quorum() ||
            best_aa.value <= std::max(aa.availability(alpha, 1),
                                      aa.availability(alpha, aa.max_read_quorum())) +
                                 1e-12;
        aa_endpoint += endpoint;
        ++aa_cells;
        table.add_row({std::to_string(n), TextTable::fmt(p, 2),
                       TextTable::fmt(alpha, 2), std::to_string(best_aa.q_r()),
                       TextTable::fmt(best_aa.value, 4),
                       std::to_string(best_f.q_r()),
                       TextTable::fmt(best_f.value, 4)});
      }
      table.add_separator();
    }
  }
  table.print(std::cout);
  std::cout << "\nAhamad-Ammar endpoint-maximum cells: " << aa_endpoint << "/"
            << aa_cells
            << " (their theorem: the extremum is always at an endpoint)\n";

  // Their nine-copy exhaustive setting, reproduced exactly: uniform votes
  // are in fact optimal for uniform reliabilities (checked by searching
  // all vote vectors), and majority is the optimal quorum at alpha = .5.
  std::cout << "\nExhaustive vote+quorum search (their computational limit "
               "was ~9 copies):\n";
  TextTable votes_table({"n", "alpha", "best votes", "q_r/q_w", "availability",
                         "configs"});
  for (const std::uint32_t n : {3u, 5u, 7u}) {
    const std::vector<double> rel(n, 0.9);
    for (const double alpha : {0.25, 0.5, 0.9}) {
      const auto best = quora::core::optimize_vote_assignment(rel, alpha, 2);
      std::string votes;
      for (const auto v : best.votes) votes += std::to_string(v);
      votes_table.add_row({std::to_string(n), TextTable::fmt(alpha, 2), votes,
                           std::to_string(best.spec.q_r) + "/" +
                               std::to_string(best.spec.q_w),
                           TextTable::fmt(best.availability, 4),
                           std::to_string(best.configurations_evaluated)});
    }
  }
  votes_table.print(std::cout);
  return 0;
}
