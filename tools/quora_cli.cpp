// quora_cli — drive the library from a shell.
//
//   quora_cli generate <kind> [args...] > topo.txt    emit a topology file
//   quora_cli info topo.txt                           structure summary
//   quora_cli measure topo.txt [options]              availability curves
//   quora_cli optimize topo.txt --alpha A [options]   optimal assignment
//
// `generate` kinds: ring N | topology N K | complete N | star N | grid W H |
//                   tree N
// `measure`/`optimize` options: --alpha A (repeatable for measure),
//   --batch N, --warmup N, --min-batches N, --max-batches N, --seed N,
//   --write-floor X (optimize), --surv (optimize on the SURV metric),
//   --stride N, --csv PATH, --svg PATH (measure),
//   --trace PATH, --metrics PATH (observability, docs/OBSERVABILITY.md)

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/optimize.hpp"
#include "io/cli_args.hpp"
#include "io/topology_io.hpp"
#include "metrics/experiment.hpp"
#include "net/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/curve_report.hpp"
#include "report/svg_plot.hpp"
#include "report/table.hpp"

namespace {

using quora::report::TextTable;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "quora_cli: " << message << '\n';
  std::exit(2);
}

[[noreturn]] void usage() {
  std::cerr <<
      "usage:\n"
      "  quora_cli generate <ring N | topology N K | complete N | star N |\n"
      "                      grid W H | tree N>\n"
      "  quora_cli info <topology-file>\n"
      "  quora_cli measure <topology-file> [--alpha A]... [--batch N]\n"
      "            [--warmup N] [--min-batches N] [--max-batches N]\n"
      "            [--seed N] [--stride N] [--csv PATH] [--svg PATH]\n"
      "            [--trace PATH] [--metrics PATH]\n"
      "  quora_cli optimize <topology-file> --alpha A [--write-floor X]\n"
      "            [--omega W] [--surv] [--batch N] [--warmup N] [--seed N]\n"
      "            [--trace PATH] [--metrics PATH]\n";
  std::exit(2);
}

struct Options {
  std::vector<double> alphas;
  std::uint64_t batch = 150'000;
  std::uint64_t warmup = 20'000;
  std::uint32_t min_batches = 5;
  std::uint32_t max_batches = 8;
  std::uint64_t seed = 0xC0FFEE;
  unsigned stride = 7;
  double write_floor = -1.0;
  double omega = -1.0;
  bool surv = false;
  std::string csv;
  std::string svg;
  std::string trace;
  std::string metrics;
};

/// Runs one of the io:: strict parsers on a flag's value, failing with
/// the flag named on a bad token.
template <typename Parse>
auto parse_flag(const std::string& flag, Parse parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    fail(flag + " " + e.what());
  }
}

Options parse_options(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value for " + arg);
      return argv[++i];
    };
    const auto count = [&](std::uint64_t min, std::uint64_t max, int base = 10) {
      return parse_flag(arg, [&] {
        return quora::io::parse_uint(value(), min, max, base);
      });
    };
    const auto number = [&](double min, double max) {
      return parse_flag(arg,
                        [&] { return quora::io::parse_double(value(), min, max); });
    };
    if (arg == "--alpha") {
      opt.alphas.push_back(number(0.0, 1.0));
    } else if (arg == "--batch") {
      opt.batch = count(1, 1'000'000'000);
    } else if (arg == "--warmup") {
      opt.warmup = count(0, 1'000'000'000);
    } else if (arg == "--min-batches") {
      opt.min_batches = static_cast<std::uint32_t>(count(1, 100'000));
    } else if (arg == "--max-batches") {
      opt.max_batches = static_cast<std::uint32_t>(count(1, 100'000));
    } else if (arg == "--seed") {
      opt.seed = count(0, ~std::uint64_t{0}, 0);
    } else if (arg == "--stride") {
      opt.stride = static_cast<unsigned>(count(1, 1000));
    } else if (arg == "--write-floor") {
      opt.write_floor = number(0.0, 1.0);
    } else if (arg == "--omega") {
      opt.omega = number(0.0, 1e6);
    } else if (arg == "--surv") {
      opt.surv = true;
    } else if (arg == "--csv") {
      opt.csv = value();
    } else if (arg == "--svg") {
      opt.svg = value();
    } else if (arg == "--trace") {
      opt.trace = value();
    } else if (arg == "--metrics") {
      opt.metrics = value();
    } else {
      fail("unknown option " + arg);
    }
  }
  return opt;
}

quora::metrics::CurveResult run_measurement(const quora::io::SystemSpec& spec,
                                            const Options& opt) {
  quora::sim::SimConfig config;
  config.warmup_accesses = opt.warmup;
  config.accesses_per_batch = opt.batch;
  quora::metrics::MeasurePolicy policy;
  if (!opt.alphas.empty()) policy.alphas = opt.alphas;
  policy.seed = opt.seed;
  policy.batch.min_batches = opt.min_batches;
  policy.batch.max_batches = opt.max_batches;
  if (spec.has_reliabilities()) {
    policy.profile = quora::sim::FailureProfile::from_reliabilities(
        config, spec.site_reliability, spec.link_reliability);
  }

  if ((!opt.trace.empty() || !opt.metrics.empty()) && !quora::obs::kEnabled) {
    std::cerr << "quora_cli: note: built with QUORA_OBS=OFF; --trace/--metrics "
                 "output will be empty\n";
  }
  std::optional<quora::obs::Registry> registry;
  std::optional<quora::obs::TraceRecorder> trace;
  if (!opt.metrics.empty()) policy.metrics = &registry.emplace();
  if (!opt.trace.empty()) policy.trace = &trace.emplace();

  auto result = quora::metrics::measure_curves(spec.topology, config, policy);
  if (!opt.metrics.empty()) {
    quora::obs::write_metrics_file(*registry, opt.metrics);
    std::cout << "metrics written to " << opt.metrics << '\n';
  }
  if (!opt.trace.empty()) {
    quora::obs::write_trace_file(*trace, opt.trace);
    std::cout << "trace written to " << opt.trace << '\n';
  }
  return result;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string kind = argv[2];
  // Size caps keep every kind within memory: a million sites on a ring,
  // star or tree, a 1000x1000 grid, 4096 sites fully connected.
  const auto arg = [&](int i, std::uint64_t max) {
    if (2 + i >= argc) fail("generate " + kind + ": missing argument");
    return static_cast<std::uint32_t>(parse_flag("generate " + kind, [&] {
      return quora::io::parse_uint(argv[2 + i], 0, max);
    }));
  };
  constexpr std::uint64_t kMaxSites = 1'000'000;
  quora::net::Topology topo = [&] {
    if (kind == "ring") return quora::net::make_ring(arg(1, kMaxSites));
    if (kind == "topology") {
      return quora::net::make_ring_with_chords(arg(1, kMaxSites), arg(2, kMaxSites));
    }
    if (kind == "complete") return quora::net::make_fully_connected(arg(1, 4096));
    if (kind == "star") return quora::net::make_star(arg(1, kMaxSites));
    if (kind == "grid") return quora::net::make_grid(arg(1, 1000), arg(2, 1000));
    if (kind == "tree") return quora::net::make_binary_tree(arg(1, kMaxSites));
    fail("unknown generate kind '" + kind + "'");
  }();
  quora::io::save_topology(std::cout, topo);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) usage();
  const quora::net::Topology topo = quora::io::load_topology_file(argv[2]);
  std::uint32_t min_degree = topo.site_count();
  std::uint32_t max_degree = 0;
  for (quora::net::SiteId s = 0; s < topo.site_count(); ++s) {
    min_degree = std::min(min_degree, topo.degree(s));
    max_degree = std::max(max_degree, topo.degree(s));
  }
  TextTable table({"property", "value"});
  table.add_row({"name", topo.name()});
  table.add_row({"sites", std::to_string(topo.site_count())});
  table.add_row({"links", std::to_string(topo.link_count())});
  table.add_row({"total votes (T)", std::to_string(topo.total_votes())});
  table.add_row({"max read quorum", std::to_string(topo.total_votes() / 2)});
  table.add_row({"degree min/max",
                 std::to_string(min_degree) + "/" + std::to_string(max_degree)});
  table.print(std::cout);
  return 0;
}

int cmd_measure(int argc, char** argv) {
  if (argc < 3) usage();
  const quora::io::SystemSpec spec = quora::io::load_system_file(argv[2]);
  const Options opt = parse_options(argc, argv, 3);
  const auto result = run_measurement(spec, opt);
  quora::report::print_curve_table(std::cout, result, opt.stride);
  if (!opt.csv.empty()) {
    std::ofstream out(opt.csv);
    quora::report::write_curve_csv(out, result);
    std::cout << "csv written to " << opt.csv << '\n';
  }
  if (!opt.svg.empty()) {
    quora::report::write_curve_svg_file(opt.svg, result);
    std::cout << "svg written to " << opt.svg << '\n';
  }
  return 0;
}

int cmd_optimize(int argc, char** argv) {
  if (argc < 3) usage();
  const quora::io::SystemSpec spec = quora::io::load_system_file(argv[2]);
  Options opt = parse_options(argc, argv, 3);
  if (opt.alphas.size() != 1) fail("optimize needs exactly one --alpha");
  const double alpha = opt.alphas[0];

  const auto result = run_measurement(spec, opt);
  const quora::core::AvailabilityCurve curve =
      opt.surv ? result.surv_curve() : result.pooled_curve();

  std::cout << "metric: " << (opt.surv ? "SURV" : "ACC") << ", alpha = "
            << TextTable::fmt(alpha, 2) << ", batches = " << result.batches
            << ", max CI half-width = "
            << TextTable::fmt(result.max_half_width, 4) << "\n\n";

  const auto unconstrained = quora::core::optimize_exhaustive(curve, alpha);
  TextTable table({"constraint", "q_r", "q_w", "availability", "write avail"});
  table.add_row({"none", std::to_string(unconstrained.q_r()),
                 std::to_string(unconstrained.q_w()),
                 TextTable::fmt(unconstrained.value, 4),
                 TextTable::fmt(curve.write_availability(unconstrained.q_r()), 4)});
  if (opt.write_floor >= 0.0) {
    const auto constrained =
        quora::core::optimize_write_constrained(curve, alpha, opt.write_floor);
    if (constrained) {
      table.add_row({"A_w >= " + TextTable::pct(opt.write_floor, 0),
                     std::to_string(constrained->q_r()),
                     std::to_string(constrained->q_w()),
                     TextTable::fmt(constrained->value, 4),
                     TextTable::fmt(
                         curve.write_availability(constrained->q_r()), 4)});
    } else {
      table.add_row({"A_w >= " + TextTable::pct(opt.write_floor, 0), "-", "-",
                     "infeasible", "-"});
    }
  }
  if (opt.omega >= 0.0) {
    // §5 weighted objective A(omega, alpha, q): write successes count
    // omega times a read success. The table's "availability" column shows
    // the weighted value, which is why it can exceed 1 for omega > 1.
    const auto weighted =
        quora::core::optimize_weighted(curve, alpha, opt.omega);
    table.add_row({"omega = " + TextTable::fmt(opt.omega, 2),
                   std::to_string(weighted.q_r()),
                   std::to_string(weighted.q_w()),
                   TextTable::fmt(weighted.value, 4),
                   TextTable::fmt(
                       curve.write_availability(weighted.q_r()), 4)});
  }
  table.print(std::cout);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "info") return cmd_info(argc, argv);
    if (command == "measure") return cmd_measure(argc, argv);
    if (command == "optimize") return cmd_optimize(argc, argv);
  } catch (const std::exception& e) {
    fail(e.what());
  }
  usage();
}
