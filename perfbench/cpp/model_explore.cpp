// model_explore: model::Explorer with DPOR over the real msg::Cluster —
// mutation_crash_cleanup.model with its mutation off, capped at a pinned
// state budget, plus tiny_line.model explored to exhaustion. Its time
// goes to the model layer and to msg's model hooks (copy, serialize,
// fingerprint); sim and conn do almost nothing.
//
// The seed picks the input: one of the 12 relabelings of the 3-site ring
// (every site permutation is an automorphism) times the two submission
// orders. Each relabeling is the same protocol question, but the explorer
// enumerates transitions by site id, so the budget cuts a different part
// of the state space.

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "model/explorer.hpp"
#include "model/scope.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace quora;

namespace {

model::Scope load_scope(const std::string& path) {
  const io::AuditReport audit = model::audit_model_file(path);
  if (!audit.ok()) throw std::runtime_error(path + " fails its scope audit");
  return model::load_model_file(path);
}

/// Applies relabeling `variant` (0..11) to a 3-site scope's site-targeted
/// actions; returns false (scope untouched) if any action targets a link.
bool relabel(model::Scope& scope, std::uint64_t variant) {
  static constexpr std::array<std::array<net::SiteId, 3>, 6> kPerms{{
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
  if (scope.chaos.system->topology.site_count() != 3) return false;
  for (const auto& group : scope.faults) {
    for (const fault::Action& a : group) {
      if (a.kind != fault::Action::Kind::kSiteDown &&
          a.kind != fault::Action::Kind::kSiteUp) {
        return false;
      }
    }
  }
  const auto& perm = kPerms[variant % 6];
  for (fault::Action& a : scope.accesses) a.site = perm[a.site];
  for (auto& group : scope.faults) {
    for (fault::Action& a : group) a.site = perm[a.site];
  }
  if (variant / 6 % 2 == 1) std::reverse(scope.accesses.begin(), scope.accesses.end());
  return true;
}

struct Explored {
  std::optional<model::Violation> violation;
  model::Stats stats;
};

Explored explore(const model::Scope& scope, bool dpor) {
  Span span(Layer::kModel);
  model::Options options;
  options.dpor = dpor;
  model::Explorer explorer(scope, options);
  Explored out;
  out.violation = explorer.run();
  out.stats = explorer.stats();
  return out;
}

double frac(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

void add_model_stats(Report& r, const model::Stats& s) {
  r.layer("model.sleep_pruned_frac", frac(s.sleep_pruned, s.sleep_pruned + s.transitions),
          "frac");
  r.layer("model.visited_hit_frac", frac(s.visited_hits, s.explored), "frac");
  r.layer("model.unique_states", static_cast<double>(s.unique_states), "count");
}

void add_model_costs(Report& r, const ModelCosts& c) {
  r.layer("msg.model_copy_ns", c.copy_ns, "ns");
  r.layer("msg.model_fingerprint_ns", c.fingerprint_ns, "ns");
  r.layer("msg.model_step_ns", c.step_ns, "ns");
  r.layer("model.check_ns", c.check_ns, "ns");
}

}  // namespace

Report run_model_explore(const Options& opt) {
  Report r;
  r.work_unit = "unique states";
  const std::string main_path = opt.example("model/mutation_crash_cleanup.model");
  const std::string tiny_path = opt.example("model/tiny_line.model");

  model::Scope scope = load_scope(main_path);
  const model::Scope tiny = load_scope(tiny_path);
  const std::uint64_t variant = opt.seed % 12;
  r.check(relabel(scope, variant), "crash-cleanup scope is relabelable");
  r.digest(variant);
  scope.chaos.mutations.clear();  // the clean protocol: no violation exists
  scope.max_states = opt.tiny ? 5'000 : 60'000;

  Tracer tracer;
  std::optional<model::Stats> first;
  std::optional<std::uint64_t> tiny_unique;
  model::Stats traced_main{};
  model::Stats traced_tiny{};
  std::uint64_t traced_reps = 0;
  CpuRotation cpus;
  const auto start = Clock::now();
  Samples walls;
  for (std::size_t rep = 0; another_rep(rep, opt.trace ? 2 : 3, start, opt.seconds, walls);
       ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    if (!traced) cpus.next();
    for (int i = 0; i < kSetupsPerRep; ++i) {
      r.setup.begin_rep();
      Stopwatch s0;
      const model::Scope a = load_scope(main_path);
      const model::Scope b = load_scope(tiny_path);
      r.setup.add(s0.lap());
    }
    if (!traced) r.chunks.begin_rep();
    Explored capped;
    Explored exhausted;
    const auto t0 = Clock::now();
    {
      TracerScope scope_guard(traced ? &tracer : nullptr);
      Span span(Layer::kRep, rep);
      Stopwatch chunk;
      capped = explore(scope, true);
      if (!traced) r.chunks.add(chunk.lap());
      exhausted = explore(tiny, true);
      if (!traced) r.chunks.add(chunk.lap());
    }
    const double wall = seconds_since(t0);
    walls.add(wall);
    if (traced) {
      r.traced_wall_s.add(wall);
      ++traced_reps;
      traced_main = capped.stats;
      traced_tiny = exhausted.stats;
    } else {
      end_untraced_rep(r, wall);
    }
    if (rep == 0) {
      r.work_per_rep = static_cast<double>(capped.stats.unique_states +
                                           exhausted.stats.unique_states);
    }
    r.check(!capped.violation, "crash-cleanup scope without mutation: violation");
    r.check(!exhausted.violation, "tiny_line: violation");
    r.check(capped.stats.state_capped, "crash-cleanup scope reached its budget");
    r.check(!exhausted.stats.state_capped && !exhausted.stats.depth_capped,
            "tiny_line explored to exhaustion");
    if (!first) first = capped.stats;
    r.check(capped.stats.unique_states == first->unique_states &&
                capped.stats.explored == first->explored &&
                capped.stats.transitions == first->transitions,
            "crash-cleanup exploration repeats exactly at the pinned budget");
    if (!tiny_unique) tiny_unique = exhausted.stats.unique_states;
    r.check(exhausted.stats.unique_states == *tiny_unique,
            "tiny_line unique states repeat");
  }

  // Sleep sets prune transitions, never states: the full interleaving
  // search must reach exactly the same states.
  const Explored full = explore(tiny, false);
  r.check(!full.violation, "tiny_line without DPOR: violation");
  r.check(full.stats.unique_states == *tiny_unique,
          "tiny_line unique states with and without DPOR: " +
              std::to_string(*tiny_unique) + " vs " +
              std::to_string(full.stats.unique_states));

  if (opt.trace) {
    add_model_stats(r, traced_main);
    const ModelCosts costs =
        measure_model_costs(scope, derive_seed(opt.seed, 7), opt.tiny ? 300 : 5000);
    add_model_costs(r, costs);
    // Parts: per explored state a safety check and a fingerprint, per
    // transition a copy and a step. The rest of Explorer::run (visited
    // set, sleep sets, enabled-transition lists) is unattributed.
    double parts = 0.0;
    for (const model::Stats* s : {&traced_main, &traced_tiny}) {
      parts += static_cast<double>(traced_reps) * 1e-9 *
               (static_cast<double>(s->explored) * (costs.check_ns + costs.fingerprint_ns) +
                static_cast<double>(s->transitions) * (costs.copy_ns + costs.step_ns));
    }
    const double wall = r.traced_wall_s.sum();
    r.layer("residual_frac", wall > 0.0 ? (wall - parts) / wall : 0.0, "frac");
    if (!opt.spans_dir.empty()) {
      tracer.write(opt.spans_dir + "/model_explore-" + std::to_string(opt.seed) +
                   ".spans.tsv");
    }
  }
  return r;
}

void add_model_reference(Report& r, const Options& opt, std::uint64_t seed) {
  model::Scope tiny = load_scope(opt.example("model/tiny_line.model"));
  const Explored e = explore(tiny, true);
  add_model_stats(r, e.stats);
  add_model_costs(r, measure_model_costs(tiny, seed, opt.tiny ? 300 : 3000));
}

}  // namespace perfbench
