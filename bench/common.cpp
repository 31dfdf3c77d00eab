#include "common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "io/cli_args.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/curve_report.hpp"
#include "report/svg_plot.hpp"

namespace quora::bench {
namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::cout
      << "usage: " << prog << " [options]\n"
      << "  --paper            full paper protocol (100k warmup, 1M batches, 5-18 to +-0.5% CI)\n"
      << "  --warmup N         warm-up accesses per batch (default 20000)\n"
      << "  --batch N          measured accesses per batch (default 150000)\n"
      << "  --min-batches N    minimum batches (default 5)\n"
      << "  --max-batches N    maximum batches (default 8)\n"
      << "  --ci X             target CI half-width (default 0.005)\n"
      << "  --seed N           root RNG seed (default 0xC0FFEE)\n"
      << "  --threads N        worker threads (default: hardware)\n"
      << "  --stride N         q_r row stride in printed tables (default 7)\n"
      << "  --csv PATH         also write the full series as CSV\n"
      << "  --svg PATH         also render the figure as an SVG plot\n"
      << "  --trace PATH       record a structured event trace of the stream-0 batch\n"
      << "                     (.json => Chrome trace_event, else compact text)\n"
      << "  --metrics PATH     dump the metrics registry (all batches, all figures)\n"
      << "  --help             this text\n";
  std::exit(code);
}

[[noreturn]] void bad_value(const char* prog, std::string_view flag,
                            std::string_view value, const char* expected) {
  std::cerr << prog << ": " << flag << " expects " << expected << ", got \""
            << value << "\"\n";
  std::exit(2);
}

/// io::parse_uint, exiting 2 with `expected` in the message on a bad token.
std::uint64_t parse_uint(const char* prog, std::string_view flag,
                         std::string_view value, std::uint64_t min,
                         std::uint64_t max, const char* expected,
                         int base = 10) {
  try {
    return io::parse_uint(value, min, max, base);
  } catch (const std::invalid_argument&) {
    bad_value(prog, flag, value, expected);
  }
}

/// io::parse_double over (0, 1], exiting 2 like parse_uint.
double parse_fraction(const char* prog, std::string_view flag,
                      std::string_view value, const char* expected) {
  try {
    const double parsed = io::parse_double(value, 0.0, 1.0);
    if (parsed > 0.0) return parsed;
  } catch (const std::invalid_argument&) {
    // Reported below, in the flag's own words.
  }
  bad_value(prog, flag, value, expected);
}

// Observability sinks shared across every figure a binary runs: the
// registry accumulates, the trace ring keeps the most recent window.
// Created on first use so unflagged runs pay nothing.
std::optional<obs::Registry> g_obs_registry;
std::optional<obs::TraceRecorder> g_obs_trace;

} // namespace

RunScale parse_args(int argc, char** argv) {
  RunScale scale;
  bool min_batches_set = false;
  const auto need_value = [&](int& i) -> std::string_view {
    if (i + 1 >= argc) {
      std::cerr << argv[0] << ": missing value for " << argv[i] << '\n';
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--paper") {
      scale.paper_scale = true;
      scale.warmup = 100'000;
      scale.batch = 1'000'000;
      scale.min_batches = 5;
      scale.max_batches = 18;
      scale.ci_target = 0.005;
    } else if (arg == "--warmup") {
      scale.warmup = parse_uint(argv[0], arg, need_value(i), 0, 1'000'000'000,
                                "an access count in [0, 1e9]");
    } else if (arg == "--batch") {
      scale.batch = parse_uint(argv[0], arg, need_value(i), 1, 1'000'000'000,
                               "an access count in [1, 1e9]");
    } else if (arg == "--min-batches") {
      scale.min_batches = static_cast<std::uint32_t>(parse_uint(
          argv[0], arg, need_value(i), 1, 100'000, "a batch count in [1, 1e5]"));
      min_batches_set = true;
    } else if (arg == "--max-batches") {
      scale.max_batches = static_cast<std::uint32_t>(parse_uint(
          argv[0], arg, need_value(i), 1, 100'000, "a batch count in [1, 1e5]"));
    } else if (arg == "--ci") {
      scale.ci_target = parse_fraction(argv[0], arg, need_value(i),
                                       "a half-width in (0, 1]");
    } else if (arg == "--seed") {
      scale.seed = parse_uint(argv[0], arg, need_value(i), 0,
                              ~std::uint64_t{0}, "a 64-bit seed", 0);
    } else if (arg == "--threads") {
      // 0 means "use the hardware count"; cap guards absurd fan-out from
      // a typo'd value reaching std::thread.
      scale.threads = static_cast<unsigned>(parse_uint(
          argv[0], arg, need_value(i), 0, 4096, "a thread count in [0, 4096]"));
    } else if (arg == "--stride") {
      scale.stride = static_cast<unsigned>(parse_uint(
          argv[0], arg, need_value(i), 1, 1000, "a row stride in [1, 1000]"));
    } else if (arg == "--csv") {
      scale.csv_path = std::string(need_value(i));
    } else if (arg == "--svg") {
      scale.svg_path = std::string(need_value(i));
    } else if (arg == "--trace") {
      scale.trace_path = std::string(need_value(i));
    } else if (arg == "--metrics") {
      scale.metrics_path = std::string(need_value(i));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::cerr << argv[0] << ": unknown option " << arg << '\n';
      usage(argv[0], 2);
    }
  }
  if (scale.max_batches < scale.min_batches) {
    if (min_batches_set) {
      std::cerr << argv[0] << ": --max-batches (" << scale.max_batches
                << ") must be >= --min-batches (" << scale.min_batches << ")\n";
      std::exit(2);
    }
    // Only the cap was given: shrink the default floor to meet it, as the
    // pre-validation parser effectively did.
    scale.min_batches = scale.max_batches;
  }
  return scale;
}

void parse_no_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " (takes no options)\n";
      std::exit(0);
    }
    std::cerr << argv[0] << ": unknown option " << arg << '\n'
              << "usage: " << argv[0] << " (takes no options)\n";
    std::exit(2);
  }
}

sim::SimConfig to_config(const RunScale& scale) {
  sim::SimConfig config;
  config.warmup_accesses = scale.warmup;
  config.accesses_per_batch = scale.batch;
  return config;  // stochastic parameters stay at the paper's values
}

metrics::MeasurePolicy to_policy(const RunScale& scale) {
  metrics::MeasurePolicy policy;
  policy.seed = scale.seed;
  policy.threads = scale.threads;
  policy.batch.min_batches = scale.min_batches;
  policy.batch.max_batches = scale.max_batches;
  policy.batch.target_half_width = scale.ci_target;
  return policy;
}

metrics::CurveResult run_figure(const net::Topology& topo, const std::string& title,
                                const RunScale& scale) {
  std::cout << "== " << title << " ==\n";
  metrics::MeasurePolicy policy = to_policy(scale);
  if ((scale.trace_path || scale.metrics_path) && !obs::kEnabled) {
    std::cerr << "note: built with QUORA_OBS=OFF; --trace/--metrics output "
                 "will be empty\n";
  }
  if (scale.metrics_path) {
    if (!g_obs_registry) g_obs_registry.emplace();
    policy.metrics = &*g_obs_registry;
  }
  if (scale.trace_path) {
    if (!g_obs_trace) g_obs_trace.emplace();
    policy.trace = &*g_obs_trace;
  }
  const metrics::CurveResult result =
      metrics::measure_curves(topo, to_config(scale), policy);
  report::print_curve_table(std::cout, result, scale.stride);
  if (scale.csv_path) {
    std::ofstream out(*scale.csv_path);
    report::write_curve_csv(out, result);
    std::cout << "csv written to " << *scale.csv_path << '\n';
  }
  if (scale.svg_path) {
    report::SvgOptions svg;
    svg.title = title;
    report::write_curve_svg_file(*scale.svg_path, result, svg);
    std::cout << "svg written to " << *scale.svg_path << '\n';
  }
  // Rewritten after every figure, so an interrupted multi-figure run
  // still leaves valid files behind.
  if (scale.metrics_path) {
    obs::write_metrics_file(*g_obs_registry, *scale.metrics_path);
    std::cout << "metrics written to " << *scale.metrics_path << '\n';
  }
  if (scale.trace_path) {
    obs::write_trace_file(*g_obs_trace, *scale.trace_path);
    std::cout << "trace written to " << *scale.trace_path << '\n';
  }
  std::cout << '\n';
  return result;
}

adapt::AdaptiveController::Options access_loop_options(const sim::SimConfig& config,
                                                       double min_write) {
  adapt::AdaptiveController::Options opts;
  opts.epoch_length = 20.0;
  opts.threshold = 0.01;
  opts.dwell = 1;
  opts.forget = 0.5;
  opts.site_reliability = config.reliability;
  if (min_write > 0.0) {
    opts.objective = adapt::AdaptiveController::Objective::kWriteConstrained;
    opts.min_write_availability = min_write;
  }
  return opts;
}

} // namespace quora::bench
