// quora-chaos — deterministic chaos soak harness for the message-level
// protocol.
//
//   quora_chaos [--seed N] [--horizon T] [--max-retries K] [--log FILE]
//               [--trace FILE] [--metrics FILE] [--adapt ...]
//               [--verify-determinism] [--quiet] PLAN.chaos...
//   quora_chaos --sweep [--seeds N] [--report FILE.json] PLAN.chaos...
//   quora_chaos --race [--seeds N] [--report FILE.json] PLAN.chaos...
//
// Each plan file (grammar: docs/FAULT_INJECTION.md) carries its own
// topology, initial quorum assignment, seed, and horizon; the flags
// override the file. The harness audits the plan statically (quora_check's
// chaos rules), replays it against a `msg::Cluster` with the fault
// injector attached, and then audits the run against the protocol's
// safety invariants (msg/invariants.hpp):
//
//   1. granted reads observe every previously decided write;
//   2. no two writes commit the same version;
//   3. nothing is granted under a superseded QR assignment;
//   4. decision times are causal.
//
// Fault plans may tank availability — they must never produce a safety
// violation. With --verify-determinism every plan is replayed twice and
// the two event logs compared byte for byte.
//
// --sweep runs the scenario matrix instead: every plan under --seeds
// consecutive seeds (starting at the plan's own seed, or --seed), and
// reports a Table-1-style per-failure-domain breakdown — availability
// and mean decided-access latency per region (level-1 domain) of an
// annotated topology, "-" for unannotated sites. --report additionally
// writes the aggregate as a JSON artifact for CI trending.
//
// --adapt attaches the closed-loop controller (src/adapt) to every run:
// the cluster estimates f_i(v) on-line, re-runs the Figure-1 optimizer
// each --adapt-epoch seconds, and installs via §2.2 when the predicted
// gain clears --adapt-threshold for --adapt-dwell consecutive epochs.
// --adapt-min-write switches the optimizer to the §5.4 write-constrained
// objective; --adapt-omega to the weighted objective.
//
// --race is the acceptance experiment: each plan runs twice per seed with
// identical seeds — once frozen (the plan's initial assignment, loop
// detached) and once adaptive — and the report compares availability over
// the tail half of the horizon, where a drifting workload or failure ramp
// has settled into the new regime. Plans containing `alpha`/`reliability`
// /`rho` regime shifts run with the live background failure process
// (reliability 0.96, rho 1/128) instead of the usual scripted-faults-only
// suppression, so `at T rho X` ramps actually bite.
//
// Exit status: 0 all plans safe (and deterministic, if requested);
// 1 a safety-invariant violation or determinism mismatch; 2 usage,
// I/O, or plan-audit errors.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/controller.hpp"
#include "fault/chaos_audit.hpp"
#include "fault/event_log.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "io/cli_args.hpp"
#include "io/config_audit.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace quora;

[[noreturn]] void usage() {
  std::cerr
      << "usage: quora_chaos [options] PLAN.chaos...\n"
         "  --seed N              override the plan's seed\n"
         "  --horizon T           override the plan's horizon (simulated time)\n"
         "  --max-retries K       coordinator retry budget, 0-64 (default 2)\n"
         "  --log FILE            append every run's event log to FILE\n"
         "  --trace FILE          record a structured event trace of each plan's\n"
         "                        primary run (.json => Chrome trace_event)\n"
         "  --metrics FILE        dump the metrics registry (all plans pooled)\n"
         "  --verify-determinism  run each plan twice, diff the event logs\n"
         "  --quiet               only print per-plan verdict lines\n"
         "  --sweep               scenario-sweep mode: run every plan under\n"
         "                        --seeds consecutive seeds and report a\n"
         "                        per-region availability/latency table\n"
         "  --seeds N             seeds per plan in --sweep/--race, 1-100000\n"
         "                        (default 3)\n"
         "  --report FILE         write the sweep/race aggregate as JSON\n"
         "  --adapt               attach the closed-loop quorum optimizer\n"
         "  --adapt-epoch T       controller epoch length (default 50)\n"
         "  --adapt-threshold X   hysteresis gain threshold (default 0.02)\n"
         "  --adapt-dwell N       epochs the gain must persist (default 2)\n"
         "  --adapt-min-write X   switch to the write-constrained objective\n"
         "                        with floor A(0, q_r) >= X\n"
         "  --adapt-omega W       switch to the weighted objective with\n"
         "                        write weight W\n"
         "  --race                adaptive-vs-frozen race: each plan runs\n"
         "                        both ways per seed; report compares\n"
         "                        tail-half availability\n";
  std::exit(2);
}

/// Cap on --seeds: a typo'd count must fail, not start a days-long sweep.
constexpr std::uint64_t kMaxSeeds = 100'000;
/// Cap on the unbounded real-valued flags (--horizon, --adapt-epoch,
/// --adapt-omega), for the same reason.
constexpr double kMaxMagnitude = 1e9;

/// io::parse_double over (0, max]: a zero horizon, epoch or weight is as
/// malformed as a negative one.
double parse_positive(std::string_view token, double max) {
  const double parsed = io::parse_double(token, 0.0, max);
  if (parsed == 0.0) {
    throw std::invalid_argument("expects a positive number, got \"" +
                                std::string(token) + "\"");
  }
  return parsed;
}

struct Options {
  std::optional<std::uint64_t> seed;
  std::optional<double> horizon;
  std::uint32_t max_retries = 2;
  std::string log_path;
  std::string trace_path;
  std::string metrics_path;
  bool verify_determinism = false;
  bool quiet = false;
  bool sweep = false;
  std::uint32_t sweep_seeds = 3;
  std::string report_path;
  bool adapt = false;
  bool race = false;
  adapt::AdaptiveController::Options adapt_opts;
  std::vector<std::string> plans;
};

/// Per-failure-domain (region) slice of one run or sweep: decided
/// accesses whose *origin* lies in that region.
struct RegionStats {
  std::string region;  // level-1 domain prefix; "-" for unannotated sites
  std::uint64_t accesses = 0;
  std::uint64_t granted = 0;
  double latency_sum = 0.0;  // decide - submit, over decided accesses
};

RegionStats& region_slot(std::vector<RegionStats>& regions,
                         const std::string& name) {
  for (RegionStats& r : regions) {
    if (r.region == name) return r;
  }
  regions.push_back(RegionStats{name, 0, 0, 0.0});
  return regions.back();
}

struct RunResult {
  fault::EventLog log;
  msg::SafetyReport safety;
  std::uint64_t decided = 0;
  std::uint64_t granted = 0;
  std::uint64_t denied_by[msg::kDenyReasonCount] = {};
  std::uint64_t retries = 0;
  std::uint64_t stale_rejections = 0;
  std::uint64_t installs = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t tail_decided = 0;   // accesses submitted in [horizon/2, horizon)
  std::uint64_t tail_granted = 0;
  std::uint64_t adapt_epochs = 0;
  std::uint64_t adapt_installs = 0;
  std::vector<RegionStats> regions;  // sorted by first appearance
};

/// A plan that passed its static audit, with the seed and horizon it runs
/// under (the command line's, else the plan's own).
struct LoadedPlan {
  fault::ChaosSpec spec;
  std::uint64_t seed = 0;
  double horizon = 0.0;
};

/// Audits and parses `path`. A plan that fails its own sanity checks, or
/// has no horizon from either the file or the command line, is a usage
/// error rather than a chaos finding: reported here, and the caller exits 2.
std::optional<LoadedPlan> load_plan(const std::string& path,
                                    const Options& opt) {
  io::AuditReport audit;
  LoadedPlan loaded;
  try {
    audit = fault::audit_chaos_file(path);
    if (audit.ok()) loaded.spec = fault::load_chaos_file(path);
  } catch (const std::exception& e) {
    std::cerr << "quora_chaos: " << path << ": " << e.what() << '\n';
    return std::nullopt;
  }
  if (!audit.ok()) {
    std::cerr << "quora_chaos: " << path << " fails static audit:\n";
    io::write_report(std::cerr, audit);
    return std::nullopt;
  }
  loaded.seed = opt.seed.value_or(loaded.spec.seed);
  loaded.horizon = opt.horizon.value_or(loaded.spec.horizon);
  if (!(loaded.horizon > 0.0)) {
    std::cerr << "quora_chaos: " << path
              << ": no horizon in the plan and none on the command line\n";
    return std::nullopt;
  }
  return loaded;
}

RunResult run_plan(const fault::ChaosSpec& spec, std::uint64_t seed,
                   double horizon, std::uint32_t max_retries,
                   obs::Registry* registry = nullptr,
                   obs::TraceRecorder* trace = nullptr,
                   const adapt::AdaptiveController::Options* adapt_opts =
                       nullptr) {
  const net::Topology& topo = spec.system->topology;
  msg::Cluster::Params params = msg::chaos_params(spec);
  params.max_retries = max_retries;

  msg::Cluster cluster(topo, params, seed);
  fault::FaultInjector injector(spec.plan, seed);
  std::optional<adapt::AdaptiveController> controller;
  RunResult result;
  cluster.attach_injector(&injector);
  cluster.attach_log(&result.log);
  if (registry != nullptr) cluster.set_metrics(registry);
  if (trace != nullptr) cluster.set_trace(trace);
  if (adapt_opts != nullptr) {
    controller.emplace(topo.site_count(), topo.total_votes(), *adapt_opts);
    cluster.attach_adaptive(&*controller);
  }
  cluster.run_until(horizon);

  result.safety = msg::check_safety(cluster);
  for (const msg::AccessOutcome& o : cluster.outcomes()) {
    ++result.decided;
    if (o.granted) {
      ++result.granted;
    } else {
      ++result.denied_by[static_cast<std::size_t>(o.deny_reason)];
    }
    if (o.submit_time >= horizon * 0.5) {
      ++result.tail_decided;
      if (o.granted) ++result.tail_granted;
    }
    std::string region =
        topo.has_domains() ? topo.domain_prefix(o.origin, 1) : std::string();
    if (region.empty()) region = "-";
    RegionStats& slot = region_slot(result.regions, region);
    ++slot.accesses;
    if (o.granted) ++slot.granted;
    slot.latency_sum += o.decide_time - o.submit_time;
  }
  if (controller) {
    result.adapt_epochs = controller->epochs();
    result.adapt_installs = controller->installs_recommended();
  }
  result.retries = cluster.retries();
  result.stale_rejections = cluster.stale_rejections();
  result.installs = cluster.installs().size();
  result.messages_sent = cluster.messages_sent();
  result.messages_dropped = cluster.messages_dropped();
  result.messages_duplicated = cluster.messages_duplicated();
  return result;
}

/// One plan's sweep aggregate: per-region stats pooled across seeds.
struct PlanSweep {
  std::string name;
  std::string path;
  std::uint64_t first_seed = 0;
  std::uint32_t seeds = 0;
  bool safe = true;
  std::uint64_t decided = 0;
  std::uint64_t granted = 0;
  std::vector<RegionStats> regions;
};

void write_sweep_row(std::ostream& out, const RegionStats& r) {
  const double avail =
      r.accesses == 0 ? 0.0
                      : static_cast<double>(r.granted) /
                            static_cast<double>(r.accesses);
  const double mean_latency =
      r.accesses == 0 ? 0.0 : r.latency_sum / static_cast<double>(r.accesses);
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-14s %9llu %9llu   %7.4f   %9.4f\n",
                r.region.c_str(),
                static_cast<unsigned long long>(r.accesses),
                static_cast<unsigned long long>(r.granted), avail,
                mean_latency);
  out << buf;
}

void write_sweep_report(std::ostream& out,
                        const std::vector<PlanSweep>& sweeps) {
  out << "{\"quora-chaos-sweep\": 1, \"plans\": [";
  for (std::size_t p = 0; p < sweeps.size(); ++p) {
    const PlanSweep& s = sweeps[p];
    if (p != 0) out << ", ";
    out << "{\"name\": ";
    io::write_json_string(out, s.name);
    out << ", \"path\": ";
    io::write_json_string(out, s.path);
    out << ", \"first_seed\": " << s.first_seed
        << ", \"seeds\": " << s.seeds
        << ", \"safe\": " << (s.safe ? "true" : "false")
        << ", \"accesses\": " << s.decided << ", \"granted\": " << s.granted
        << ", \"regions\": [";
    for (std::size_t i = 0; i < s.regions.size(); ++i) {
      const RegionStats& r = s.regions[i];
      const double avail =
          r.accesses == 0 ? 0.0
                          : static_cast<double>(r.granted) /
                                static_cast<double>(r.accesses);
      const double mean_latency =
          r.accesses == 0 ? 0.0
                          : r.latency_sum / static_cast<double>(r.accesses);
      if (i != 0) out << ", ";
      out << "{\"region\": ";
      io::write_json_string(out, r.region);
      out << ", \"accesses\": " << r.accesses
          << ", \"granted\": " << r.granted << ", \"availability\": " << avail
          << ", \"mean_latency\": " << mean_latency << "}";
    }
    out << "]}";
  }
  out << "]}\n";
}

/// --sweep: plan matrix x consecutive seeds, Table-1-style per-domain
/// availability/latency report, optional JSON artifact.
int run_sweep(const Options& opt) {
  std::vector<PlanSweep> sweeps;
  bool any_unsafe = false;
  for (const std::string& path : opt.plans) {
    const std::optional<LoadedPlan> plan = load_plan(path, opt);
    if (!plan) return 2;
    const fault::ChaosSpec& spec = plan->spec;
    const double horizon = plan->horizon;

    PlanSweep sweep;
    sweep.name = spec.name;
    sweep.path = path;
    sweep.first_seed = plan->seed;
    sweep.seeds = opt.sweep_seeds;
    for (std::uint32_t k = 0; k < opt.sweep_seeds; ++k) {
      const RunResult run =
          run_plan(spec, sweep.first_seed + k, horizon, opt.max_retries);
      sweep.safe = sweep.safe && run.safety.ok();
      sweep.decided += run.decided;
      sweep.granted += run.granted;
      for (const RegionStats& r : run.regions) {
        RegionStats& slot = region_slot(sweep.regions, r.region);
        slot.accesses += r.accesses;
        slot.granted += r.granted;
        slot.latency_sum += r.latency_sum;
      }
      if (!run.safety.ok()) {
        std::cout << "  SAFETY VIOLATIONS (seed "
                  << sweep.first_seed + k << "):\n";
        for (const quora::msg::SafetyViolation& v : run.safety.violations) {
          std::cout << "    " << v.message << '\n';
        }
      }
    }
    std::sort(sweep.regions.begin(), sweep.regions.end(),
              [](const RegionStats& a, const RegionStats& b) {
                return a.region < b.region;
              });

    std::cout << "sweep " << sweep.name << " (" << path << ")\n"
              << "  seeds=" << sweep.first_seed << ".."
              << sweep.first_seed + opt.sweep_seeds - 1
              << " horizon=" << horizon << '\n'
              << "  region          accesses   granted     avail    "
                 "mean-lat\n";
    for (const RegionStats& r : sweep.regions) {
      write_sweep_row(std::cout, r);
    }
    RegionStats total{"(all)", sweep.decided, sweep.granted, 0.0};
    for (const RegionStats& r : sweep.regions) {
      total.latency_sum += r.latency_sum;
    }
    write_sweep_row(std::cout, total);
    std::cout << (sweep.safe ? "SAFE " : "UNSAFE ") << sweep.name << '\n';
    any_unsafe = any_unsafe || !sweep.safe;
    sweeps.push_back(std::move(sweep));
  }

  if (!opt.report_path.empty()) {
    std::ofstream out(opt.report_path);
    if (!out) {
      std::cerr << "quora_chaos: cannot open " << opt.report_path << '\n';
      return 2;
    }
    write_sweep_report(out, sweeps);
  }
  return any_unsafe ? 1 : 0;
}

/// One side of an adaptive-vs-frozen race, pooled across seeds.
struct RaceSide {
  std::uint64_t decided = 0;
  std::uint64_t granted = 0;
  std::uint64_t tail_decided = 0;
  std::uint64_t tail_granted = 0;
  std::uint64_t installs = 0;
  std::uint64_t epochs = 0;
  bool safe = true;

  void absorb(const RunResult& run) {
    decided += run.decided;
    granted += run.granted;
    tail_decided += run.tail_decided;
    tail_granted += run.tail_granted;
    installs += run.adapt_installs;
    epochs += run.adapt_epochs;
    safe = safe && run.safety.ok();
  }
  double availability() const {
    return decided == 0 ? 0.0
                        : static_cast<double>(granted) /
                              static_cast<double>(decided);
  }
  double tail_availability() const {
    return tail_decided == 0 ? 0.0
                             : static_cast<double>(tail_granted) /
                                   static_cast<double>(tail_decided);
  }
};

struct PlanRace {
  std::string name;
  std::string path;
  std::uint64_t first_seed = 0;
  std::uint32_t seeds = 0;
  double horizon = 0.0;
  RaceSide frozen;
  RaceSide adaptive;

  double margin() const {
    return adaptive.tail_availability() - frozen.tail_availability();
  }
};

void write_race_side(std::ostream& out, const RaceSide& s) {
  out << "{\"accesses\": " << s.decided << ", \"granted\": " << s.granted
      << ", \"availability\": " << s.availability()
      << ", \"tail_accesses\": " << s.tail_decided
      << ", \"tail_availability\": " << s.tail_availability()
      << ", \"installs\": " << s.installs << ", \"epochs\": " << s.epochs
      << ", \"safe\": " << (s.safe ? "true" : "false") << "}";
}

void write_race_report(std::ostream& out, const std::vector<PlanRace>& races) {
  out << "{\"quora-adapt-race\": 1, \"plans\": [";
  for (std::size_t p = 0; p < races.size(); ++p) {
    const PlanRace& r = races[p];
    if (p != 0) out << ", ";
    out << "{\"name\": ";
    io::write_json_string(out, r.name);
    out << ", \"path\": ";
    io::write_json_string(out, r.path);
    out << ", \"first_seed\": " << r.first_seed << ", \"seeds\": " << r.seeds
        << ", \"horizon\": " << r.horizon << ", \"frozen\": ";
    write_race_side(out, r.frozen);
    out << ", \"adaptive\": ";
    write_race_side(out, r.adaptive);
    out << ", \"tail_margin\": " << r.margin() << "}";
  }
  out << "]}\n";
}

/// --race: the acceptance experiment. Each plan runs frozen and adaptive
/// under the same seeds; the tail half of the horizon — after the plan's
/// regime shift has settled — is where the loop must win.
int run_race(const Options& opt) {
  std::vector<PlanRace> races;
  bool any_unsafe = false;
  for (const std::string& path : opt.plans) {
    const std::optional<LoadedPlan> plan = load_plan(path, opt);
    if (!plan) return 2;
    const fault::ChaosSpec& spec = plan->spec;
    const double horizon = plan->horizon;

    PlanRace race;
    race.name = spec.name;
    race.path = path;
    race.first_seed = plan->seed;
    race.seeds = opt.sweep_seeds;
    race.horizon = horizon;
    for (std::uint32_t k = 0; k < opt.sweep_seeds; ++k) {
      const std::uint64_t seed = race.first_seed + k;
      race.frozen.absorb(
          run_plan(spec, seed, horizon, opt.max_retries));
      race.adaptive.absorb(run_plan(spec, seed, horizon, opt.max_retries,
                                    nullptr, nullptr, &opt.adapt_opts));
    }

    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "race %s seeds=%llu..%llu horizon=%g\n"
                  "  frozen    avail=%.4f tail=%.4f (n=%llu)\n"
                  "  adaptive  avail=%.4f tail=%.4f (n=%llu) installs=%llu "
                  "epochs=%llu\n"
                  "  tail margin %+.4f\n",
                  race.name.c_str(),
                  static_cast<unsigned long long>(race.first_seed),
                  static_cast<unsigned long long>(race.first_seed +
                                                  race.seeds - 1),
                  horizon, race.frozen.availability(),
                  race.frozen.tail_availability(),
                  static_cast<unsigned long long>(race.frozen.tail_decided),
                  race.adaptive.availability(),
                  race.adaptive.tail_availability(),
                  static_cast<unsigned long long>(race.adaptive.tail_decided),
                  static_cast<unsigned long long>(race.adaptive.installs),
                  static_cast<unsigned long long>(race.adaptive.epochs),
                  race.margin());
    std::cout << buf;
    const bool safe = race.frozen.safe && race.adaptive.safe;
    std::cout << (safe ? "SAFE " : "UNSAFE ") << race.name << '\n';
    any_unsafe = any_unsafe || !safe;
    races.push_back(std::move(race));
  }

  if (!opt.report_path.empty()) {
    std::ofstream out(opt.report_path);
    if (!out) {
      std::cerr << "quora_chaos: cannot open " << opt.report_path << '\n';
      return 2;
    }
    write_race_report(out, races);
  }
  return any_unsafe ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "quora_chaos: " << arg << " needs a value\n";
        usage();
      }
      return argv[++i];
    };
    try {
      if (arg == "--seed") {
        opt.seed = io::parse_uint(value(), 0, ~std::uint64_t{0});
      } else if (arg == "--horizon") {
        opt.horizon = parse_positive(value(), kMaxMagnitude);
      } else if (arg == "--max-retries") {
        opt.max_retries = static_cast<std::uint32_t>(
            io::parse_uint(value(), 0, msg::Cluster::Params::kMaxRetryBudget));
      } else if (arg == "--log") {
        opt.log_path = value();
      } else if (arg == "--trace") {
        opt.trace_path = value();
      } else if (arg == "--metrics") {
        opt.metrics_path = value();
      } else if (arg == "--verify-determinism") {
        opt.verify_determinism = true;
      } else if (arg == "--quiet") {
        opt.quiet = true;
      } else if (arg == "--sweep") {
        opt.sweep = true;
      } else if (arg == "--seeds") {
        opt.sweep_seeds =
            static_cast<std::uint32_t>(io::parse_uint(value(), 1, kMaxSeeds));
      } else if (arg == "--report") {
        opt.report_path = value();
      } else if (arg == "--adapt") {
        opt.adapt = true;
      } else if (arg == "--adapt-epoch") {
        opt.adapt = true;
        opt.adapt_opts.epoch_length = parse_positive(value(), kMaxMagnitude);
      } else if (arg == "--adapt-threshold") {
        opt.adapt = true;
        opt.adapt_opts.threshold = io::parse_double(value(), 0.0, 1.0);
      } else if (arg == "--adapt-dwell") {
        opt.adapt = true;
        opt.adapt_opts.dwell = static_cast<std::uint32_t>(
            io::parse_uint(value(), 1, std::numeric_limits<std::uint32_t>::max()));
      } else if (arg == "--adapt-min-write") {
        opt.adapt = true;
        opt.adapt_opts.objective =
            adapt::AdaptiveController::Objective::kWriteConstrained;
        opt.adapt_opts.min_write_availability =
            io::parse_double(value(), 0.0, 1.0);
      } else if (arg == "--adapt-omega") {
        opt.adapt = true;
        opt.adapt_opts.objective =
            adapt::AdaptiveController::Objective::kWeighted;
        opt.adapt_opts.omega = parse_positive(value(), kMaxMagnitude);
      } else if (arg == "--race") {
        opt.race = true;
      } else if (arg == "--help" || arg == "-h") {
        usage();
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "quora_chaos: unknown option " << arg << '\n';
        usage();
      } else {
        opt.plans.push_back(arg);
      }
    } catch (const std::exception& e) {
      std::cerr << "quora_chaos: bad value for " << arg << ": " << e.what() << '\n';
      usage();
    }
  }
  if (opt.plans.empty()) usage();
  try {
    opt.adapt_opts.validate();
  } catch (const std::exception& e) {
    std::cerr << "quora_chaos: " << e.what() << '\n';
    return 2;
  }
  if (opt.race) return run_race(opt);
  if (opt.sweep) return run_sweep(opt);

  std::ofstream log_out;
  if (!opt.log_path.empty()) {
    log_out.open(opt.log_path, std::ios::app);
    if (!log_out) {
      std::cerr << "quora_chaos: cannot open " << opt.log_path << '\n';
      return 2;
    }
  }

  if ((!opt.trace_path.empty() || !opt.metrics_path.empty()) &&
      !obs::kEnabled) {
    std::cerr << "quora_chaos: note: built with QUORA_OBS=OFF; "
                 "--trace/--metrics output will be empty\n";
  }
  // Shared across plans: the registry pools, the trace ring keeps the
  // most recent window. Only each plan's primary run records — the
  // --verify-determinism replay stays bare, so a determinism mismatch
  // can never be *caused* by the recorder (its inertness is proven
  // separately by the golden suite).
  std::optional<obs::Registry> obs_registry;
  std::optional<obs::TraceRecorder> obs_trace;
  if (!opt.metrics_path.empty()) obs_registry.emplace();
  if (!opt.trace_path.empty()) obs_trace.emplace();

  bool any_unsafe = false;
  for (const std::string& path : opt.plans) {
    const std::optional<LoadedPlan> plan = load_plan(path, opt);
    if (!plan) return 2;
    const fault::ChaosSpec& spec = plan->spec;
    const std::uint64_t seed = plan->seed;
    const double horizon = plan->horizon;

    RunResult run =
        run_plan(spec, seed, horizon, opt.max_retries,
                 obs_registry ? &*obs_registry : nullptr,
                 obs_trace ? &*obs_trace : nullptr,
                 opt.adapt ? &opt.adapt_opts : nullptr);
    bool deterministic = true;
    if (opt.verify_determinism) {
      const RunResult replay =
          run_plan(spec, seed, horizon, opt.max_retries, nullptr, nullptr,
                   opt.adapt ? &opt.adapt_opts : nullptr);
      deterministic = replay.log.lines() == run.log.lines();
    }

    if (log_out.is_open()) {
      log_out << "== " << spec.name << " seed=" << seed << '\n';
      run.log.write(log_out);
    }
    // Rewritten after every plan so an interrupted multi-plan soak still
    // leaves valid observability files behind.
    try {
      if (obs_registry) {
        obs::write_metrics_file(*obs_registry, opt.metrics_path);
      }
      if (obs_trace) obs::write_trace_file(*obs_trace, opt.trace_path);
    } catch (const std::exception& e) {
      std::cerr << "quora_chaos: " << e.what() << '\n';
      return 2;
    }

    if (!opt.quiet) {
      std::cout << "plan " << spec.name << " (" << path << ")\n"
                << "  seed=" << seed << " horizon=" << horizon
                << " accesses=" << run.decided << " granted=" << run.granted
                << '\n'
                << "  retries=" << run.retries
                << " stale-rejections=" << run.stale_rejections
                << " qr-installs=" << run.installs << '\n'
                << "  messages sent=" << run.messages_sent
                << " dropped=" << run.messages_dropped
                << " duplicated=" << run.messages_duplicated << '\n';
      if (opt.adapt) {
        std::cout << "  adapt epochs=" << run.adapt_epochs
                  << " installs=" << run.adapt_installs << '\n';
      }
      std::cout << "  denials:";
      for (std::size_t r = 1; r < msg::kDenyReasonCount; ++r) {
        if (run.denied_by[r] == 0) continue;
        std::cout << ' '
                  << msg::deny_reason_name(static_cast<msg::DenyReason>(r))
                  << '=' << run.denied_by[r];
      }
      std::cout << "\n  log lines=" << run.log.size() << " hash=" << std::hex
                << run.log.hash() << std::dec << '\n';
    }

    const bool safe = run.safety.ok() && deterministic;
    any_unsafe = any_unsafe || !safe;
    if (!run.safety.ok()) {
      std::cout << "  SAFETY VIOLATIONS (" << run.safety.violations.size()
                << "):\n";
      for (const quora::msg::SafetyViolation& v : run.safety.violations) {
        std::cout << "    " << v.message << '\n';
      }
    }
    if (!deterministic) {
      std::cout << "  DETERMINISM MISMATCH: two same-seed runs diverged\n";
    }
    std::cout << (safe ? "SAFE " : "UNSAFE ") << spec.name << " ("
              << run.safety.reads_checked << " reads, "
              << run.safety.writes_checked << " writes checked)\n";
  }
  return any_unsafe ? 1 : 0;
}
