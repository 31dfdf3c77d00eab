// perfbench: the end-to-end benchmark binary. One workload per run:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--root DIR] [--spans-dir DIR]
//
// Prints one `metric NAME VALUE UNIT [note]` line per metric, the
// correctness failures, the chaos transcripts to cross-check against
// quora_chaos, and as its last line a JSON object with the end-to-end
// (and, traced, per-layer) metrics. perfbench/run.py builds this binary,
// runs the cross-checks and prints the benchmark's result line.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::sum() const {
  double s = 0.0;
  for (const double x : values_) s += x;
  return s;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void ChunkTimes::add(const Lap& lap) {
  if (reps_.empty()) reps_.emplace_back();
  reps_.back().push_back(lap);
}

std::size_t ChunkTimes::chunks() const noexcept {
  std::size_t n = 0;
  for (const std::vector<Lap>& r : reps_) n = std::max(n, r.size());
  return n;
}

template <typename ChunkTime>
double ChunkTimes::best_total(ChunkTime time) const {
  double total = 0.0;
  for (std::size_t c = 0; c < chunks(); ++c) {
    double best = 0.0;
    bool seen = false;
    for (const std::vector<Lap>& r : reps_) {
      if (c >= r.size()) continue;
      const double t = time(r[c]);
      if (!seen || t < best) best = t;
      seen = true;
    }
    total += best;
  }
  return total;
}

double ChunkTimes::best_wall() const {
  return best_total([](const Lap& l) { return l.wall_s; });
}

double ChunkTimes::best_cpu() const {
  return best_total([](const Lap& l) { return l.cpu_s; });
}

void Report::check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++check_failures;
  if (failure_notes.size() < 20) failure_notes.push_back(what);
}

void Report::digest(std::uint64_t v) {
  input_digest = (input_digest ^ v) * 0x100000001b3ULL;
}

bool Report::has_layer(const std::string& name) const {
  return std::any_of(layers.begin(), layers.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  if (!has_layer(name)) layers.push_back(Metric{name, value, unit, ""});
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void end_untraced_rep(Report& report, double wall_s) {
  report.rep_wall_s.add(wall_s);
  if (report.peak_rss_mb == 0.0) report.peak_rss_mb = peak_rss_mb();
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus_) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_++ % cpus_.size()], &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

bool another_rep(std::size_t reps_done, std::size_t min_reps,
                 Clock::time_point start, double budget_s,
                 const Samples& rep_walls) {
  if (reps_done < min_reps) return true;
  return seconds_since(start) + rep_walls.median() <= budget_s;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// Every per-layer metric a traced run must report (units in the doc).
const char* const kLayerMetrics[] = {
    "sim.step_ns", "sim.events_per_access", "conn.refresh_ns.ring101",
    "conn.refresh_ns.complete101", "conn.refresh_ns.ring25",
    "conn.rebuild_frac", "rng.draw_ns", "core.optimize_ns", "metrics.reduce_s",
    "msg.access_ns", "msg.msgs_per_access", "msg.retries_per_access",
    "msg.drop_frac", "msg.grant_vs_oracle", "fault.load_s", "fault.actions",
    "adapt.epoch_ns", "adapt.epochs", "adapt.installs",
    "obs.attached_overhead_frac", "msg.model_copy_ns",
    "msg.model_fingerprint_ns", "msg.model_step_ns", "model.check_ns",
    "model.sleep_pruned_frac", "model.visited_hit_frac", "model.unique_states",
    "residual_frac", "trace.overhead_s"};

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload paper_curves|cluster_steady|"
               "cluster_chaos|model_explore\n"
               "                 --seed N --seconds S --trace 0|1 [--tiny]\n"
               "                 [--root DIR] [--spans-dir DIR]\n";
  std::exit(2);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void json_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": " << num(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << '}';
}

void print_metric(const Metric& m) {
  std::cout << "metric " << m.name << ' ' << num(m.value) << ' ' << m.unit;
  if (!m.note.empty()) std::cout << ' ' << m.note;
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage();
        opt.trace = t == "1";
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--root") {
        opt.root = value();
      } else if (arg == "--spans-dir") {
        opt.spans_dir = value();
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0.0)) usage();

  Report report;
  try {
    if (opt.workload == "paper_curves") {
      report = run_paper_curves(opt);
    } else if (opt.workload == "cluster_steady") {
      report = run_cluster_steady(opt);
    } else if (opt.workload == "cluster_chaos") {
      report = run_cluster_chaos(opt);
    } else if (opt.workload == "model_explore") {
      report = run_model_explore(opt);
    } else {
      usage();
    }
    if (opt.trace) {
      report.layer("trace.overhead_s",
                   report.traced_wall_s.median() - report.rep_wall_s.median(),
                   "s");
      add_reference_layers(report, opt);
      for (const char* name : kLayerMetrics) {
        if (!report.has_layer(name)) {
          std::cerr << "perfbench: per-layer metric " << name << " missing\n";
          return 2;
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  // The JSON carries CPU time: on a shared machine wall time also counts
  // the time the process waits for a CPU. Wall time is printed beside it.
  const double cpu = report.chunks.best_cpu();
  const double wall = report.chunks.best_wall();
  const std::string setup_note = "(fastest chunks of " +
                                 std::to_string(report.setup.reps()) + " set-ups, " +
                                 std::to_string(report.setup.chunks()) + " chunks each)";
  const std::string chunk_note = "(fastest chunks of " +
                                 std::to_string(report.chunks.reps()) + " repetitions, " +
                                 std::to_string(report.chunks.chunks()) + " chunks each)";
  const std::string work_note = "(" + num(report.work_per_rep) + " " +
                                report.work_unit + " per repetition)";
  std::vector<Metric> e2e{
      {"setup_s", report.setup.best_cpu(), "s", "CPU time " + setup_note},
      {"cpu_s", cpu, "s", chunk_note},
      {"work_per_cpu_s", cpu > 0.0 ? report.work_per_rep / cpu : 0.0, "1/s", work_note},
      {"peak_rss_mb", report.peak_rss_mb, "MB", "(after the first repetition)"},
  };
  report.end_to_end.insert(
      report.end_to_end.begin(),
      {{"setup_wall_s", report.setup.best_wall(), "s", setup_note},
       {"wall_s", wall, "s", chunk_note},
       {"work_per_s", wall > 0.0 ? report.work_per_rep / wall : 0.0, "1/s", work_note}});
  std::cerr << "perfbench: repetition wall times (s):";
  for (const double w : report.rep_wall_s.values()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << (opt.trace ? " traced" : "") << '\n';
  for (const Metric& m : e2e) print_metric(m);
  for (const Metric& m : report.end_to_end) print_metric(m);
  for (const Metric& m : report.layers) print_metric(m);
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(report.input_digest));
  std::cout << "inputs " << digest << '\n';
  for (const std::string& c : report.cross_checks) {
    std::cout << "crosscheck " << c << '\n';
  }
  for (const std::string& f : report.failure_notes) {
    std::cout << "check-failed " << f << '\n';
  }
  for (const Metric& m : e2e) {
    if (!std::isfinite(m.value) || m.value <= 0.0) {
      std::cout << "check-failed end-to-end metric " << m.name
                << " is not a positive number\n";
      ++report.checks;
      ++report.check_failures;
    }
  }

  std::ostringstream json;
  json << "{\"workload\": \"" << opt.workload << "\", \"checks\": "
       << report.checks << ", \"check_failures\": " << report.check_failures
       << ", \"end_to_end\": ";
  json_metrics(json, e2e);
  json << ", \"per_layer\": ";
  json_metrics(json, report.layers);
  json << '}';
  std::cout << json.str() << std::endl;
  return 0;
}
