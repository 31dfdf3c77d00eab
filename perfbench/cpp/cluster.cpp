// cluster_steady and cluster_chaos: the message-level msg::Cluster, one
// run_decided_accesses(1) call per access, each call timed.
//
//  - cluster_steady is the BM_ClusterAccess shape: make_ring_with_chords(25,
//    4), QuorumSpec{13,13}, Poisson background failures, no fault plan.
//    Its time goes to msg's happy path: the event queue, the per-site
//    request maps, floods.
//  - cluster_chaos drives the same cluster through five shipped fault
//    plans (adaptive_drift_race with the adaptive controller attached).
//    Timeouts, retries, backoff, drops, stale rejections and QR installs
//    make it the only workload exercising fault and adapt, and the one
//    where a happy-path speed-up that slows the retry path shows.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "bench.hpp"
#include "fault/chaos_audit.hpp"
#include "fault/event_log.hpp"
#include "fault/injector.hpp"
#include "layers.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"
#include "net/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace quora;

namespace {

/// Per-access measurements of the timed region(s).
struct AccessStats {
  Samples access_us;   // wall time of one run_decided_accesses(1) call
  Samples decide_ms;   // simulated submit-to-decide latency
  std::uint64_t decided = 0;
  std::uint64_t granted = 0;
  std::uint64_t oracle_granted = 0;
  std::uint64_t messages = 0;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
};

/// Decided accesses per timed chunk.
constexpr std::uint64_t kChunkAccesses = 500;

/// One decided access per call until `done(cluster)`; per-access wall
/// times go to `stats`, chunk times to `chunks` unless null, and with
/// `stream` the network diff after every access (charged to the bench
/// layer).
template <typename Done>
void drive(msg::Cluster& cluster, Done done, AccessStats& stats,
           NetStream* stream, ChunkTimes* chunks) {
  const std::size_t first = cluster.outcomes().size();
  const std::uint64_t sent0 = cluster.messages_sent();
  const std::uint64_t retries0 = cluster.retries();
  const std::uint64_t dropped0 = cluster.messages_dropped();
  std::uint64_t i = 0;
  Stopwatch chunk;
  while (!done(cluster)) {
    const auto t0 = Clock::now();
    {
      Span span(Layer::kMsg, i++);
      cluster.run_decided_accesses(1);
    }
    const auto t1 = Clock::now();
    stats.access_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (stream != nullptr) {
      Span span(Layer::kBench);
      stream->diff(cluster.network());
      stream->record_query(cluster.outcomes().back().origin);
    }
    if (chunks != nullptr && i % kChunkAccesses == 0) chunks->add(chunk.lap());
  }
  if (chunks != nullptr && i % kChunkAccesses != 0) chunks->add(chunk.lap());
  const auto& outcomes = cluster.outcomes();
  for (std::size_t k = first; k < outcomes.size(); ++k) {
    const msg::AccessOutcome& o = outcomes[k];
    ++stats.decided;
    stats.granted += o.granted ? 1 : 0;
    stats.oracle_granted += o.oracle_granted ? 1 : 0;
    stats.decide_ms.add((o.decide_time - o.submit_time) * 1e3);
  }
  stats.messages += cluster.messages_sent() - sent0;
  stats.retries += cluster.retries() - retries0;
  stats.dropped += cluster.messages_dropped() - dropped0;
}

void add_access_metrics(Report& r, const AccessStats& s) {
  const std::string n = "(n=" + std::to_string(s.access_us.size()) + ")";
  r.end_to_end.push_back({"access_p50_us", s.access_us.quantile(0.5), "us", n});
  r.end_to_end.push_back({"access_p99_us", s.access_us.quantile(0.99), "us", n});
  r.end_to_end.push_back(
      {"availability",
       s.decided == 0 ? 0.0
                      : static_cast<double>(s.granted) / static_cast<double>(s.decided),
       "frac", "(granted/decided, n=" + std::to_string(s.decided) + ")"});
  r.end_to_end.push_back({"decide_p50_ms", s.decide_ms.quantile(0.5), "ms", n});
  r.end_to_end.push_back({"decide_p99_ms", s.decide_ms.quantile(0.99), "ms", n});
}

void add_msg_layers(Report& r, const Tracer& tracer, const AccessStats& traced,
                    const NetStream& stream, const net::Topology& topo) {
  const double n = static_cast<double>(std::max<std::uint64_t>(traced.decided, 1));
  r.layer("msg.access_ns", tracer.self_ns_per_span(Layer::kMsg), "ns");
  r.layer("msg.msgs_per_access", static_cast<double>(traced.messages) / n, "count");
  r.layer("msg.retries_per_access", static_cast<double>(traced.retries) / n, "count");
  r.layer("msg.drop_frac",
          traced.messages == 0 ? 0.0
                               : static_cast<double>(traced.dropped) /
                                     static_cast<double>(traced.messages),
          "frac");
  r.layer("msg.grant_vs_oracle",
          traced.oracle_granted == 0
              ? 0.0
              : static_cast<double>(traced.granted) /
                    static_cast<double>(traced.oracle_granted),
          "ratio");
  r.layer("conn.refresh_ns.ring25", stream.replay(topo).ns_per_flip, "ns");
}

/// Residual of a cluster run: traced wall time not covered by the spans
/// of msg accesses and the benchmark's own stream recording.
void add_cluster_residual(Report& r, const Tracer& tracer) {
  const double wall = r.traced_wall_s.sum();
  const double parts = tracer.total_s(Layer::kMsg) + tracer.total_s(Layer::kBench);
  r.layer("residual_frac", wall > 0.0 ? (wall - parts) / wall : 0.0, "frac");
}

/// Independent clusters per cluster_steady repetition.
constexpr std::size_t kSteadyClusters = 5;

struct SteadyShape {
  net::Topology topo = net::make_ring_with_chords(25, 4);
  msg::Cluster::Params params;
  SteadyShape() { params.spec = quorum::QuorumSpec{13, 13}; }
};

// ---- cluster_chaos plans -----------------------------------------------

struct PlanRef {
  const char* file;
  bool adapt;
};
constexpr PlanRef kPlans[] = {
    {"chaos/adaptive_drift_race.chaos", true},
    {"chaos/reassign_mid_partition.chaos", false},
    {"chaos/crash_during_commit.chaos", false},
    {"chaos/flapping_links.chaos", false},
    {"chaos/geo_rack_cascade.chaos", false},
};

fault::ChaosSpec load_plan(const std::string& path) {
  const io::AuditReport audit = fault::audit_chaos_file(path);
  if (!audit.ok()) throw std::runtime_error(path + " fails its chaos audit");
  return fault::load_chaos_file(path);
}

double plan_horizon(const Options& opt, const fault::ChaosSpec& spec) {
  return opt.tiny ? std::min(spec.horizon, 60.0) : spec.horizon;
}

/// FNV-1a over the log lines stamped at or before `horizon` — exactly
/// EventLog::hash() of a run_until(horizon) run, which is what
/// quora_chaos prints; later lines come from the last access's overshoot.
std::uint64_t hash_until(const fault::EventLog& log, double horizon) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : log.lines()) {
    if (std::strtod(line.c_str() + 2, nullptr) > horizon) break;
    for (const char c : line) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= static_cast<std::uint8_t>('\n');
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over the decisions from outcome `first` on: who, what, when.
std::uint64_t outcome_digest(const msg::Cluster& cluster, std::size_t first) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  const auto& outcomes = cluster.outcomes();
  for (std::size_t k = first; k < outcomes.size(); ++k) {
    const msg::AccessOutcome& o = outcomes[k];
    mix(o.origin);
    mix(o.granted ? 1 : 0);
    mix(o.version);
    std::uint64_t t = 0;
    std::memcpy(&t, &o.decide_time, sizeof t);
    mix(t);
  }
  return h;
}

}  // namespace

Report run_cluster_steady(const Options& opt) {
  Report r;
  r.work_unit = "decided accesses";
  const SteadyShape shape;
  const std::uint64_t warmup = opt.tiny ? 50 : 500;
  const std::uint64_t per_cluster = opt.tiny ? 60 : 2'000;
  // One seed per cluster and run: every repetition replays the same
  // accesses. A seed's background failures shift the message count per
  // access by several percent; independent clusters average that out.
  std::uint64_t seeds[kSteadyClusters];
  for (std::size_t k = 0; k < kSteadyClusters; ++k) {
    seeds[k] = derive_seed(opt.seed, k);
    r.digest(seeds[k]);
  }
  r.work_per_rep = static_cast<double>(kSteadyClusters * per_cluster);

  AccessStats untraced;
  AccessStats traced;
  Tracer tracer;
  std::optional<NetStream> stream;
  std::uint64_t first_digests[kSteadyClusters] = {};
  CpuRotation cpus;
  const auto start = Clock::now();
  Samples walls;
  for (std::size_t rep = 0; another_rep(rep, opt.trace ? 2 : 3, start, opt.seconds, walls);
       ++rep) {
    const bool is_traced = opt.trace && rep % 2 == 1;
    if (!is_traced) cpus.next();  // traced reps stay put: untraced ones visit every CPU
    if (!is_traced) r.chunks.begin_rep();
    r.setup.begin_rep();
    double wall = 0.0;
    for (std::size_t k = 0; k < kSteadyClusters; ++k) {
      Stopwatch s0;
      msg::Cluster cluster(shape.topo, shape.params, seeds[k]);
      cluster.run_decided_accesses(warmup);
      r.setup.add(s0.lap());

      NetStream* rec = nullptr;
      if (is_traced && k == 0) {
        if (!stream) stream.emplace(cluster.network());
        rec = &*stream;
      }
      const std::uint64_t target = warmup + per_cluster;
      const auto t0 = Clock::now();
      {
        TracerScope scope(is_traced ? &tracer : nullptr);
        Span span(Layer::kRep, rep * 16 + k);
        drive(cluster, [&](const msg::Cluster& c) { return c.outcomes().size() >= target; },
              is_traced ? traced : untraced, rec, is_traced ? nullptr : &r.chunks);
      }
      wall += seconds_since(t0);

      const msg::SafetyReport safety = msg::check_safety(cluster);
      r.check(safety.ok(), "cluster_steady safety violation (seed " +
                               std::to_string(seeds[k]) + ")");
      r.check(cluster.outcomes().size() == target, "cluster_steady decided count");
      const std::uint64_t digest = outcome_digest(cluster, warmup);
      if (rep == 0) first_digests[k] = digest;
      r.check(digest == first_digests[k],
              "cluster_steady decisions repeat exactly for one seed");
    }
    walls.add(wall);
    if (is_traced) {
      r.traced_wall_s.add(wall);
    } else {
      end_untraced_rep(r, wall);
    }
  }
  add_access_metrics(r, untraced);
  if (opt.trace) {
    add_msg_layers(r, tracer, traced, *stream, shape.topo);
    add_cluster_residual(r, tracer);
    if (!opt.spans_dir.empty()) {
      tracer.write(opt.spans_dir + "/cluster_steady-" + std::to_string(opt.seed) +
                   ".spans.tsv");
    }
  }
  return r;
}

Report run_cluster_chaos(const Options& opt) {
  Report r;
  r.work_unit = "decided accesses";
  AccessStats untraced;
  AccessStats traced;
  Tracer tracer;
  std::optional<NetStream> stream;
  std::optional<net::Topology> stream_topo;
  Samples fault_load_s;
  std::uint64_t fault_actions = 0;
  std::uint64_t adapt_epochs = 0;
  std::uint64_t adapt_installs = 0;
  double adapt_epoch_ns = 0.0;

  std::uint64_t first_hashes[std::size(kPlans)] = {};
  std::uint64_t first_decided[std::size(kPlans)] = {};

  CpuRotation cpus;
  const auto start = Clock::now();
  Samples walls;
  for (std::size_t rep = 0; another_rep(rep, opt.trace ? 2 : 3, start, opt.seconds, walls);
       ++rep) {
    const bool is_traced = opt.trace && rep % 2 == 1;
    if (!is_traced) cpus.next();
    if (!is_traced) r.chunks.begin_rep();
    r.setup.begin_rep();
    double load = 0.0;
    double wall = 0.0;
    for (std::size_t p = 0; p < std::size(kPlans); ++p) {
      const std::string path = opt.example(kPlans[p].file);
      // One seed per plan and run: every repetition replays the same
      // schedule.
      const std::uint64_t seed = derive_seed(opt.seed, p);
      if (rep == 0) r.digest(seed);

      Stopwatch s0;
      fault::ChaosSpec spec = load_plan(path);
      fault::FaultInjector injector(spec.plan, seed);
      load += s0.elapsed().wall_s;
      const net::Topology& topo = spec.system->topology;
      msg::Cluster cluster(topo, chaos_params(spec), seed);
      fault::EventLog log;
      std::optional<adapt::AdaptiveController> controller;
      cluster.attach_injector(&injector);
      cluster.attach_log(&log);
      if (kPlans[p].adapt) {
        controller.emplace(topo.site_count(), topo.total_votes(),
                           adapt::AdaptiveController::Options{});
        cluster.attach_adaptive(&*controller);
      }
      r.setup.add(s0.lap());
      if (rep == 0) fault_actions += injector.timeline().size();

      const double horizon = plan_horizon(opt, spec);
      NetStream* rec = nullptr;
      if (is_traced && p == 1) {  // reassign_mid_partition: the ring-25 shape
        if (!stream) {
          stream.emplace(cluster.network());
          stream_topo = topo;
        }
        rec = &*stream;
      }
      const auto t0 = Clock::now();
      {
        TracerScope scope(is_traced ? &tracer : nullptr);
        Span span(Layer::kRep, rep * 16 + p);
        drive(cluster, [&](const msg::Cluster& c) { return c.now() >= horizon; },
              is_traced ? traced : untraced, rec, is_traced ? nullptr : &r.chunks);
      }
      wall += seconds_since(t0);

      const msg::SafetyReport safety = msg::check_safety(cluster);
      r.check(safety.ok(), spec.name + " safety violation (seed " +
                               std::to_string(seed) + ")");
      const std::uint64_t hash = hash_until(log, horizon);
      if (rep == 0) {
        char line[512];
        std::snprintf(line, sizeof line, "%s %llu %.17g %d %llx", path.c_str(),
                      static_cast<unsigned long long>(seed), horizon,
                      kPlans[p].adapt ? 1 : 0, static_cast<unsigned long long>(hash));
        r.cross_checks.emplace_back(line);
        first_hashes[p] = hash;
        first_decided[p] = cluster.outcomes().size();
        r.work_per_rep += static_cast<double>(cluster.outcomes().size());
      }
      r.check(hash == first_hashes[p] && cluster.outcomes().size() == first_decided[p],
              spec.name + " event log repeats exactly for one seed");
      if (controller && is_traced) {
        adapt_epochs = controller->epochs();
        adapt_installs = controller->installs_recommended();
        adapt_epoch_ns = epoch_ns(*controller, 0.5, spec.quorum);
      }
    }
    fault_load_s.add(load);
    walls.add(wall);
    if (is_traced) {
      r.traced_wall_s.add(wall);
    } else {
      end_untraced_rep(r, wall);
    }
  }
  add_access_metrics(r, untraced);
  if (opt.trace) {
    add_msg_layers(r, tracer, traced, *stream, *stream_topo);
    add_cluster_residual(r, tracer);
    r.layer("fault.load_s", fault_load_s.median(), "s");
    r.layer("fault.actions", static_cast<double>(fault_actions), "count");
    r.layer("adapt.epoch_ns", adapt_epoch_ns, "ns");
    r.layer("adapt.epochs", static_cast<double>(adapt_epochs), "count");
    r.layer("adapt.installs", static_cast<double>(adapt_installs), "count");
    if (!opt.spans_dir.empty()) {
      tracer.write(opt.spans_dir + "/cluster_chaos-" + std::to_string(opt.seed) +
                   ".spans.tsv");
    }
  }
  return r;
}

// ---- reference probes for workloads that leave these layers idle --------

void add_msg_reference(Report& r, const Options& opt, std::uint64_t seed) {
  const SteadyShape shape;
  msg::Cluster cluster(shape.topo, shape.params, seed);
  cluster.run_decided_accesses(opt.tiny ? 50 : 500);
  NetStream stream(cluster.network());
  Tracer tracer;
  AccessStats stats;
  const std::size_t target = cluster.outcomes().size() + (opt.tiny ? 300 : 3000);
  {
    TracerScope scope(&tracer);
    drive(cluster, [&](const msg::Cluster& c) { return c.outcomes().size() >= target; },
          stats, &stream, nullptr);
  }
  add_msg_layers(r, tracer, stats, stream, shape.topo);
}

void add_fault_reference(Report& r, const Options& opt) {
  double load = 0.0;
  std::uint64_t actions = 0;
  for (const PlanRef& plan : kPlans) {
    const auto t0 = Clock::now();
    fault::ChaosSpec spec = load_plan(opt.example(plan.file));
    fault::FaultInjector injector(spec.plan, 1);
    load += seconds_since(t0);
    actions += injector.timeline().size();
  }
  r.layer("fault.load_s", load, "s");
  r.layer("fault.actions", static_cast<double>(actions), "count");
}

void add_adapt_reference(Report& r, const Options& opt, std::uint64_t seed) {
  const fault::ChaosSpec spec = load_plan(opt.example(kPlans[0].file));
  const net::Topology& topo = spec.system->topology;
  msg::Cluster cluster(topo, chaos_params(spec), seed);
  fault::FaultInjector injector(spec.plan, seed);
  adapt::AdaptiveController controller(topo.site_count(), topo.total_votes(),
                                       adapt::AdaptiveController::Options{});
  cluster.attach_injector(&injector);
  cluster.attach_adaptive(&controller);
  cluster.run_until(opt.tiny ? 120.0 : 400.0);
  r.layer("adapt.epoch_ns", epoch_ns(controller, 0.5, spec.quorum), "ns");
  r.layer("adapt.epochs", static_cast<double>(controller.epochs()), "count");
  r.layer("adapt.installs", static_cast<double>(controller.installs_recommended()),
          "count");
}

void add_obs_reference(Report& r, const Options& opt, std::uint64_t seed) {
  // The plan behind the old "~8%" figure, run bare and with a registry and
  // a trace recorder attached, alternating; ratio of the medians.
  const fault::ChaosSpec spec = load_plan(opt.example(kPlans[1].file));
  const double horizon = plan_horizon(opt, spec);
  Samples bare;
  Samples attached;
  for (int round = 0; round < (opt.tiny ? 2 : 16); ++round) {
    const bool with_obs = round % 2 == 1;
    msg::Cluster cluster(spec.system->topology, chaos_params(spec), seed);
    fault::FaultInjector injector(spec.plan, seed);
    cluster.attach_injector(&injector);
    obs::Registry registry;
    obs::TraceRecorder recorder;
    if (with_obs) {
      cluster.set_metrics(&registry);
      cluster.set_trace(&recorder);
    }
    const auto t0 = Clock::now();
    cluster.run_until(horizon);
    (with_obs ? attached : bare).add(seconds_since(t0));
  }
  r.layer("obs.attached_overhead_frac", attached.median() / bare.median() - 1.0,
          "frac");
}

}  // namespace perfbench
