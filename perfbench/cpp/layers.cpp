#include "layers.hpp"

#include <algorithm>
#include <cstdlib>

#include "conn/component_tracker.hpp"
#include "core/availability.hpp"
#include "core/optimize.hpp"
#include "metrics/collectors.hpp"
#include "msg/invariants.hpp"
#include "net/builders.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/simulator.hpp"
#include "stats/batch_means.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace quora;

NetStream::NetStream(const conn::LiveNetwork& start)
    : start_sites_(start.site_up_flags().begin(), start.site_up_flags().end()),
      start_links_(start.link_up_flags().begin(), start.link_up_flags().end()),
      sites_(start_sites_),
      links_(start_links_) {}

void NetStream::record_site(std::uint32_t site, bool up) {
  ops_.push_back(Op{site, static_cast<std::uint8_t>(up ? 1 : 0)});
  sites_[site] = up ? 1 : 0;
  ++flips_;
}

void NetStream::record_link(std::uint32_t link, bool up) {
  ops_.push_back(Op{link, static_cast<std::uint8_t>(up ? 3 : 2)});
  links_[link] = up ? 1 : 0;
  ++flips_;
}

void NetStream::record_query(std::uint32_t site) { ops_.push_back(Op{site, 4}); }

void NetStream::diff(const conn::LiveNetwork& now) {
  const auto s = now.site_up_flags();
  for (std::uint32_t i = 0; i < s.size(); ++i) {
    if (s[i] != sites_[i]) record_site(i, s[i] != 0);
  }
  const auto l = now.link_up_flags();
  for (std::uint32_t i = 0; i < l.size(); ++i) {
    if (l[i] != links_[i]) record_link(i, l[i] != 0);
  }
}

NetStream::Replay NetStream::replay(const net::Topology& topo,
                                    int rounds) const {
  Samples ns;
  Replay out;
  for (int r = 0; r < rounds; ++r) {
    conn::LiveNetwork live(topo);
    for (std::uint32_t i = 0; i < start_sites_.size(); ++i) {
      if (start_sites_[i] == 0) live.set_site_up(i, false);
    }
    for (std::uint32_t i = 0; i < start_links_.size(); ++i) {
      if (start_links_[i] == 0) live.set_link_up(i, false);
    }
    conn::ComponentTracker tracker(live);
    net::Vote sink = tracker.component_votes(0);
    const std::uint64_t rebuilds0 = tracker.stats().full_rebuilds;
    const auto t0 = Clock::now();
    for (const Op& op : ops_) {
      switch (op.kind) {
        case 0: live.set_site_up(op.index, false); break;
        case 1: live.set_site_up(op.index, true); break;
        case 2: live.set_link_up(op.index, false); break;
        case 3: live.set_link_up(op.index, true); break;
        default: sink += tracker.component_votes(op.index); break;
      }
    }
    const double dt = seconds_since(t0);
    if (sink == 0xFFFFFFFFu) std::abort();  // keeps the queries observable
    const double flips = static_cast<double>(std::max<std::uint64_t>(flips_, 1));
    ns.add(dt * 1e9 / flips);
    out.rebuild_frac =
        static_cast<double>(tracker.stats().full_rebuilds - rebuilds0) / flips;
  }
  out.ns_per_flip = ns.median();
  return out;
}

namespace {

class StreamRecorder final : public sim::AccessObserver,
                             public sim::NetworkObserver {
public:
  explicit StreamRecorder(NetStream& stream) : stream_(stream) {}
  void on_access(const sim::Simulator&, const sim::AccessEvent& ev) override {
    stream_.record_query(ev.site);
  }
  void on_network_change(const sim::Simulator&, sim::EventKind kind,
                         std::uint32_t index) override {
    switch (kind) {
      case sim::EventKind::kSiteFail: stream_.record_site(index, false); break;
      case sim::EventKind::kSiteRecover: stream_.record_site(index, true); break;
      case sim::EventKind::kLinkFail: stream_.record_link(index, false); break;
      case sim::EventKind::kLinkRecover: stream_.record_link(index, true); break;
      case sim::EventKind::kAccess: break;
    }
  }

private:
  NetStream& stream_;
};

/// The measurement observer measure_curves attaches, under a span.
class TimedCollector final : public sim::AccessObserver {
public:
  explicit TimedCollector(metrics::VotesSeenCollector& inner) : inner_(inner) {}
  void on_access(const sim::Simulator& s, const sim::AccessEvent& ev) override {
    Span span(Layer::kCollect, ev.site);
    inner_.on_access(s, ev);
  }

private:
  metrics::VotesSeenCollector& inner_;
};

/// The `mutate` directives of a plan or scope, as the tools apply them.
void set_mutations(msg::Cluster::Params& params,
                   const std::vector<std::string>& names) {
  for (const std::string& m : names) {
    if (m == "accept-stale-qr") params.mutations.accept_stale_qr = true;
    if (m == "skip-crash-cleanup") params.mutations.skip_crash_cleanup = true;
  }
}

}  // namespace

SimLayer measure_sim_layer(const net::Topology& topo,
                           const sim::SimConfig& config, std::uint64_t seed,
                           std::uint64_t accesses,
                           const std::vector<double>& alphas,
                           const std::string& spans_path) {
  SimLayer out;
  out.accesses = accesses;
  sim::AccessSpec spec;  // alpha 0.5 = measure_curves' sampling alpha
  sim::Simulator simulator(topo, config, spec, seed, 0);
  simulator.run_accesses(config.warmup_accesses);

  // The twin replays the original's exact trajectory (same state, same
  // RNG position), so recording on it keeps bookkeeping out of the spans.
  NetStream stream(simulator.network());
  {
    sim::Simulator twin = simulator;
    twin.rebind();
    StreamRecorder recorder(stream);
    twin.add_access_observer(&recorder);
    twin.add_network_observer(&recorder);
    twin.run_accesses(accesses);
  }

  metrics::VotesSeenCollector collector(topo);
  TimedCollector timed(collector);
  simulator.add_access_observer(&timed);
  Tracer tracer;
  {
    TracerScope scope(&tracer);
    const std::uint64_t target = simulator.counters().accesses + accesses;
    std::uint64_t step = 0;
    while (simulator.counters().accesses < target) {
      Span span(Layer::kSim, step++);
      simulator.step_one();
    }
  }
  simulator.clear_observers();
  if (!spans_path.empty()) tracer.write(spans_path);
  out.events = tracer.count(Layer::kSim);
  out.flips = out.events - accesses;
  out.step_self_ns = tracer.self_ns_per_span(Layer::kSim);
  out.collect_ns =
      tracer.total_s(Layer::kCollect) * 1e9 / static_cast<double>(accesses);

  const NetStream::Replay replay = stream.replay(topo);
  out.refresh_ns = replay.ns_per_flip;
  out.rebuild_frac = replay.rebuild_frac;

  // The draws step_one made: one exponential per flip; per access a
  // read/write coin, a site choice and the next inter-arrival time.
  {
    rng::Xoshiro256ss gen(seed, 1);
    const auto n = static_cast<std::uint64_t>(topo.site_count());
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < out.flips; ++i) {
      sink += rng::exponential(gen, config.mu_fail());
    }
    for (std::uint64_t i = 0; i < accesses; ++i) {
      sink += rng::bernoulli(gen, 0.5) ? 1.0 : 0.0;
      sink += static_cast<double>(rng::uniform_index(gen, n));
      sink += rng::exponential(gen, config.mu_access / static_cast<double>(n));
    }
    const double dt = seconds_since(t0);
    if (sink < 0.0) std::abort();
    out.draw_ns = dt * 1e9 / static_cast<double>(out.flips + 3 * accesses);
  }

  // One measure_curves call's reduction: per batch, the availability grid
  // into the batch-means cells and the pooled merge; then the intervals.
  const net::Vote max_q = topo.total_votes() / 2;
  {
    double sink = 0.0;
    const auto t0 = Clock::now();
    std::vector<std::vector<stats::BatchMeansController>> grid(
        alphas.size(), std::vector<stats::BatchMeansController>(max_q));
    metrics::VotesSeenCollector pooled(topo);
    for (std::uint32_t b = 0; b < kPaperBatches; ++b) {
      const core::AvailabilityCurve curve(collector.read_pdf(),
                                          collector.write_pdf());
      for (std::size_t a = 0; a < alphas.size(); ++a) {
        for (net::Vote q = 1; q <= max_q; ++q) {
          grid[a][q - 1].add_batch(curve.availability(alphas[a], q));
        }
      }
      pooled.merge(collector);
    }
    for (const auto& row : grid) {
      for (const auto& cell : row) sink += cell.interval().half_width;
    }
    sink += pooled.read_pdf()[0] + pooled.write_pdf()[0] +
            pooled.max_component_pdf()[0];
    out.reduce_s = seconds_since(t0);
    if (sink < 0.0) std::abort();
  }

  {
    const core::AvailabilityCurve curve(collector.read_pdf(),
                                        collector.write_pdf());
    constexpr int kRounds = 200;
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (const double a : alphas) sink += core::optimize_exhaustive(curve, a).value;
    }
    out.optimize_ns = seconds_since(t0) * 1e9 /
                      static_cast<double>(kRounds * alphas.size());
    if (sink < 0.0) std::abort();
  }
  return out;
}

void add_sim_layers(Report& report, const SimLayer& ring,
                    const SimLayer& complete) {
  const double events = static_cast<double>(ring.events + complete.events);
  report.layer("sim.step_ns",
               (ring.step_self_ns * static_cast<double>(ring.events) +
                complete.step_self_ns * static_cast<double>(complete.events)) /
                   events,
               "ns");
  report.layer("sim.events_per_access",
               events / static_cast<double>(ring.accesses + complete.accesses),
               "count");
  report.layer("conn.refresh_ns.ring101", ring.refresh_ns, "ns");
  report.layer("conn.refresh_ns.complete101", complete.refresh_ns, "ns");
  report.layer("conn.rebuild_frac",
               (ring.rebuild_frac * static_cast<double>(ring.flips) +
                complete.rebuild_frac * static_cast<double>(complete.flips)) /
                   static_cast<double>(ring.flips + complete.flips),
               "frac");
  report.layer("rng.draw_ns", (ring.draw_ns + complete.draw_ns) / 2.0, "ns");
  report.layer("core.optimize_ns", (ring.optimize_ns + complete.optimize_ns) / 2.0,
               "ns");
  report.layer("metrics.reduce_s", ring.reduce_s + complete.reduce_s, "s");
}

msg::Cluster::Params chaos_params(const fault::ChaosSpec& spec) {
  const net::Topology& topo = spec.system->topology;
  msg::Cluster::Params params;
  if (spec.has_quorum) {
    params.spec = spec.quorum;
  } else {
    const auto majority = static_cast<net::Vote>(topo.total_votes() / 2 + 1);
    params.spec = quorum::QuorumSpec{majority, majority};
  }
  params.max_retries = 2;
  set_mutations(params, spec.mutations);
  bool shifts_rates = false;
  for (const fault::Action& a : spec.plan.actions()) {
    shifts_rates = shifts_rates || a.kind == fault::Action::Kind::kSetReliability ||
                   a.kind == fault::Action::Kind::kSetRho;
  }
  if (shifts_rates) {
    params.config.reliability = 0.96;
    params.config.rho = 1.0 / 128.0;
  } else {
    params.config.reliability = 0.999999;
    params.config.rho = 1e-9;
  }
  return params;
}

double epoch_ns(const adapt::AdaptiveController& controller, double alpha,
                quorum::QuorumSpec current) {
  constexpr std::size_t kCopies = 64;
  std::vector<adapt::AdaptiveController> copies(kCopies, controller);
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (adapt::AdaptiveController& c : copies) {
    sink += c.epoch(alpha, current).predicted_gain;
  }
  const double dt = seconds_since(t0);
  if (sink != sink) std::abort();
  return dt * 1e9 / static_cast<double>(kCopies);
}

ModelCosts measure_model_costs(const model::Scope& scope, std::uint64_t seed,
                               std::size_t steps) {
  const net::Topology& topo = scope.chaos.system->topology;
  msg::Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.has_quorum ? scope.chaos.quorum
                                       : quorum::majority(topo.total_votes());
  set_mutations(params, scope.chaos.mutations);
  const msg::Cluster root(topo, params, 1);
  rng::Xoshiro256ss gen(seed, 2);
  double copy_s = 0.0;
  double fp_s = 0.0;
  double step_s = 0.0;
  double check_s = 0.0;
  std::uint64_t sink = 0;

  msg::Cluster cur = root;
  cur.model_rebind();
  std::uint32_t submitted = 0;
  std::size_t depth = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::vector<msg::Cluster::ModelEvent> events = cur.model_enabled_events();
    std::vector<std::uint32_t> pending;
    for (std::uint32_t a = 0; a < scope.accesses.size(); ++a) {
      if (((submitted >> a) & 1u) == 0) pending.push_back(a);
    }
    const std::size_t choices = pending.size() + events.size();
    if (choices == 0 || depth >= scope.max_depth) {
      cur = root;
      cur.model_rebind();
      submitted = 0;
      depth = 0;
      continue;
    }
    const auto k = static_cast<std::size_t>(rng::uniform_index(gen, choices));

    auto t0 = Clock::now();
    msg::Cluster child = cur;
    child.model_rebind();
    auto t1 = Clock::now();
    if (k < pending.size()) {
      const fault::Action& a = scope.accesses[pending[k]];
      child.model_submit_access(a.site, a.is_read);
      submitted |= 1u << pending[k];
    } else {
      child.model_step_event(events[k - pending.size()].seq);
    }
    auto t2 = Clock::now();
    sink += child.model_fingerprint()[0];
    auto t3 = Clock::now();
    sink += msg::check_safety(child).violations.size();
    auto t4 = Clock::now();
    copy_s += std::chrono::duration<double>(t1 - t0).count();
    step_s += std::chrono::duration<double>(t2 - t1).count();
    fp_s += std::chrono::duration<double>(t3 - t2).count();
    check_s += std::chrono::duration<double>(t4 - t3).count();
    cur = std::move(child);
    cur.model_rebind();
    ++depth;
  }
  if (sink == 1) std::abort();
  const double n = static_cast<double>(std::max<std::size_t>(steps, 1));
  return ModelCosts{copy_s * 1e9 / n, fp_s * 1e9 / n, step_s * 1e9 / n,
                    check_s * 1e9 / n};
}

void add_reference_layers(Report& report, const Options& opt) {
  const std::uint64_t seed = derive_seed(opt.seed, 0x1a7e5);
  if (!report.has_layer("sim.step_ns")) {
    const sim::SimConfig config;
    const std::uint64_t n = opt.tiny ? 20'000 : 200'000;
    const std::vector<double> alphas{0.0, 0.25, 0.5, 0.75, 1.0};
    const SimLayer ring = measure_sim_layer(net::make_ring(101), config, seed, n,
                                            alphas, "");
    const SimLayer complete = measure_sim_layer(
        net::make_ring_with_chords(101, 4949), config, seed, n, alphas, "");
    add_sim_layers(report, ring, complete);
  }
  if (!report.has_layer("msg.access_ns")) add_msg_reference(report, opt, seed);
  if (!report.has_layer("fault.load_s")) add_fault_reference(report, opt);
  if (!report.has_layer("adapt.epoch_ns")) add_adapt_reference(report, opt, seed);
  if (!report.has_layer("obs.attached_overhead_frac")) {
    add_obs_reference(report, opt, seed);
  }
  if (!report.has_layer("msg.model_copy_ns")) add_model_reference(report, opt, seed);
}

}  // namespace perfbench
