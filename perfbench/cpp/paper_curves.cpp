// paper_curves: the run users of the reproduction do. metrics::measure_curves
// under the paper's protocol on topology 0 (ring-101, the sparse tracker
// path) and topology 4949 (complete-101, the dense word-parallel path),
// then core::optimize_exhaustive per alpha on the pooled curves.
//
// The batch count is pinned (kPaperBatches, inside the paper's 5-18) rather
// than left to the CI stopping rule: with adaptive stopping the time to
// the answer would depend on the seed's luck, not on the code's speed.

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/availability.hpp"
#include "core/component_dist.hpp"
#include "core/optimize.hpp"
#include "layers.hpp"
#include "metrics/experiment.hpp"
#include "net/builders.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace quora;

namespace {

struct PaperTopology {
  std::string label;
  net::Topology topo;
  core::AvailabilityCurve reference;  // the §4.2 closed form
};

std::vector<PaperTopology> build_topologies() {
  constexpr double kP = 0.96;  // the paper's site and link reliability
  std::vector<PaperTopology> out;
  out.push_back(PaperTopology{"ring101", net::make_ring(101),
                              core::AvailabilityCurve(core::ring_site_pdf(101, kP, kP))});
  out.push_back(PaperTopology{
      "complete101", net::make_ring_with_chords(101, 4949),
      core::AvailabilityCurve(core::fully_connected_site_pdf(101, kP, kP))});
  return out;
}

/// Checks one measured curve against the closed form and the paper's
/// A(alpha, q_r = 1) = 0.96 alpha claim.
void check_curves(Report& r, const PaperTopology& t,
                  const metrics::CurveResult& cr,
                  const std::vector<core::OptResult>& optima) {
  for (std::size_t a = 0; a < cr.alphas.size(); ++a) {
    const double alpha = cr.alphas[a];
    for (std::size_t qi = 0; qi < cr.q_values.size(); ++qi) {
      const double exact = t.reference.availability(alpha, cr.q_values[qi]);
      const double tol = 3.0 * cr.half_width[a][qi] + 2e-3;
      r.check(std::abs(cr.mean[a][qi] - exact) <= tol,
              t.label + " A(" + std::to_string(alpha) + ", " +
                  std::to_string(cr.q_values[qi]) + ") = " +
                  std::to_string(cr.mean[a][qi]) + " vs closed form " +
                  std::to_string(exact));
    }
    // Writes at q_w = T need every vote: ~0.016 on complete-101, ~0 on
    // the ring, hence the slack beyond the interval.
    r.check(std::abs(cr.mean[a][0] - 0.96 * alpha) <= 0.03 + 3.0 * cr.half_width[a][0],
            t.label + " A(" + std::to_string(alpha) + ", 1) = " +
                std::to_string(cr.mean[a][0]) + ", paper says 0.96 alpha");
    // The optimum picked on measured curves is near-optimal on exact ones.
    const core::OptResult exact_best = core::optimize_exhaustive(t.reference, alpha);
    const double picked = t.reference.availability(alpha, optima[a].q_r());
    r.check(exact_best.value - picked <= 3.0 * cr.max_half_width + 2e-3,
            t.label + " optimum q_r=" + std::to_string(optima[a].q_r()) +
                " loses " + std::to_string(exact_best.value - picked) +
                " at alpha " + std::to_string(alpha));
  }
}

}  // namespace

Report run_paper_curves(const Options& opt) {
  Report r;
  r.work_unit = "simulated accesses";
  sim::SimConfig config;  // the paper's 100k warm-up, 1M-access batches
  if (opt.tiny) {
    config.warmup_accesses = 2'000;
    config.accesses_per_batch = 20'000;
  }
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const std::vector<double> alphas{0.0, 0.25, 0.5, 0.75, 1.0};

  const std::vector<PaperTopology> topos = build_topologies();

  // Every repetition measures the same curves (one policy seed per run),
  // so the results must repeat exactly and the chunks line up.
  metrics::MeasurePolicy policy;
  policy.alphas = alphas;
  policy.seed = derive_seed(opt.seed, 0);
  policy.threads = threads;
  policy.batch.min_batches = kPaperBatches;
  policy.batch.max_batches = kPaperBatches;
  r.digest(policy.seed);
  r.work_per_rep = static_cast<double>(topos.size() * kPaperBatches) *
                   static_cast<double>(config.warmup_accesses + config.accesses_per_batch);

  Tracer tracer;
  std::uint64_t traced_reps = 0;
  std::vector<metrics::CurveResult> first;
  const auto start = Clock::now();
  Samples walls;  // every rep, for pacing
  for (std::size_t rep = 0; another_rep(rep, opt.trace ? 2 : 3, start, opt.seconds, walls);
       ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    if (traced) ++traced_reps;
    for (int i = 0; i < kSetupsPerRep; ++i) {
      r.setup.begin_rep();
      Stopwatch s0;
      const std::vector<PaperTopology> built = build_topologies();
      r.setup.add(s0.lap());
    }
    if (!traced) r.chunks.begin_rep();

    std::vector<metrics::CurveResult> curves;
    std::vector<std::vector<core::OptResult>> optima(topos.size());
    const auto t0 = Clock::now();
    {
      TracerScope scope(traced ? &tracer : nullptr);
      Span span(Layer::kRep, rep);
      for (std::size_t i = 0; i < topos.size(); ++i) {
        Stopwatch c0;
        {
          Span m(Layer::kMetrics, i);
          curves.push_back(metrics::measure_curves(topos[i].topo, config, policy));
        }
        Span c(Layer::kCore, i);
        const core::AvailabilityCurve pooled = curves.back().pooled_curve();
        for (const double a : alphas) optima[i].push_back(core::optimize_exhaustive(pooled, a));
        if (!traced) r.chunks.add(c0.lap());
      }
    }
    const double wall = seconds_since(t0);
    walls.add(wall);
    if (traced) {
      r.traced_wall_s.add(wall);
    } else {
      end_untraced_rep(r, wall);
    }
    for (std::size_t i = 0; i < topos.size(); ++i) {
      r.check(curves[i].batches == kPaperBatches, topos[i].label + " batch count");
      check_curves(r, topos[i], curves[i], optima[i]);
    }
    if (first.empty()) {
      first = curves;
    } else {
      for (std::size_t i = 0; i < topos.size(); ++i) {
        r.check(curves[i].mean == first[i].mean,
                topos[i].label + " curves repeat exactly for one seed");
      }
    }
  }

  if (opt.trace) {
    // The layers of the run's batch-0 stream, stepped under spans.
    const std::uint64_t n = opt.tiny ? 20'000 : 200'000;
    std::vector<SimLayer> layers;
    for (const PaperTopology& t : topos) {
      const std::string spans =
          opt.spans_dir.empty()
              ? std::string()
              : opt.spans_dir + "/paper_curves-" + t.label + "-" +
                    std::to_string(opt.seed) + ".spans.tsv";
      layers.push_back(measure_sim_layer(t.topo, config, policy.seed, n,
                                         alphas, spans));
    }
    add_sim_layers(r, layers[0], layers[1]);

    // Split each measure_curves span with the replayed unit costs: batch
    // CPU work runs ceil(B/threads) waves deep, the reduction serially.
    const double waves = std::ceil(static_cast<double>(kPaperBatches) / threads);
    const double per_topology_cpu_share = waves / static_cast<double>(kPaperBatches);
    double parts = 0.0;
    for (const SimLayer& l : layers) {
      const double batch_accesses = static_cast<double>(kPaperBatches) *
                                    static_cast<double>(config.accesses_per_batch);
      const double all_accesses =
          static_cast<double>(kPaperBatches) *
          static_cast<double>(config.warmup_accesses + config.accesses_per_batch);
      const double events = all_accesses * l.events_per_access();
      const double cpu = events * l.step_self_ns + batch_accesses * l.collect_ns;
      parts += static_cast<double>(traced_reps) *
               (cpu * 1e-9 * per_topology_cpu_share + l.reduce_s);
    }
    parts += tracer.self_s(Layer::kCore);
    const double wall = r.traced_wall_s.sum();
    r.layer("residual_frac", wall > 0.0 ? (wall - parts) / wall : 0.0, "frac");
    if (!opt.spans_dir.empty()) {
      tracer.write(opt.spans_dir + "/paper_curves-" + std::to_string(opt.seed) +
                   ".spans.tsv");
    }
  }
  return r;
}

}  // namespace perfbench
