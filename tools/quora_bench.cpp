// quora-bench — the pinned performance harness behind BENCH_*.json.
//
//   quora_bench [--quick] [--json PATH] [--rev NAME] [--seed N]
//   quora_bench --alloc-check [--quick] [--seed N]
//
// Runs a fixed-seed subset of the perf surface that the ROADMAP cares
// about and emits machine-readable numbers: ns/op, accesses/sec, tracker
// rebuilds/sec, and heap allocations observed by a global counting hook.
// The cases are event-queue churn; component-tracker refresh under link
// flips (dense word-parallel path on the 101-site topologies, sparse CSR
// path on the 50k/250k scale points, plus a 1M-site construct+rebuild
// smoke); two end-to-end simulation workloads (topology 256 and topology
// 4949); and single calls of the layers around them: alias sampling, the
// three optimizers and the two closed-form densities on 101 sites, the
// replicated and witness stores, the coterie engine and a two-object
// database transaction; and quora_model's search, exhausting the shipped
// tiny_line scope. scripts/bench_compare.py diffs two of these
// JSONs with a regression threshold; docs/PERFORMANCE.md describes the
// schema and how to refresh the checked-in baseline.
//
// The workloads are pinned (fixed seeds, fixed iteration counts per
// mode) so two runs of the same binary do identical work and two
// binaries at different revisions are comparable op-for-op. `--quick`
// shrinks every case ~10-40x for CI smoke use; quick and full numbers
// are not comparable to each other (the JSON records the mode).
//
// `--alloc-check` replaces the timing runs with a steady-state allocation
// audit of the QUORA_HOT_PATH / QUORA_ALLOC_OK call chains the linter's
// L006 reasons about (src/core/analysis_annotations.hpp): each case warms
// up outside the measured region, then asserts the global counting hook
// stays flat across the steady-state loop. This is the runtime half of
// the static claim — the lint check proves nothing *new* allocates on an
// annotated chain, the alloc check proves the amortized-growth exemptions
// (QUORA_ALLOC_OK, the EventQueue allow) really amortize to zero.
//
// Exit status: 0 on success, 1 when --alloc-check observes an allocation,
// 2 on usage or I/O errors.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "core/component_dist.hpp"
#include "core/optimize.hpp"
#include "db/database.hpp"
#include "io/cli_args.hpp"
#include "io/config_audit.hpp"
#include "model/explorer.hpp"
#include "model/scope.hpp"
#include "net/builders.hpp"
#include "quorum/coterie_protocol.hpp"
#include "quorum/replicated_store.hpp"
#include "quorum/witness_store.hpp"
#include "rng/alias_table.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

// ---------------------------------------------------------------------------
// Global allocation counting hook. Counts every operator new in the
// process; cases snapshot the counter around their measured region, so
// steady-state hot paths can be asserted allocation-free.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
} // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms as well (std::stable_sort's temporary buffer takes
// one): a sanitizer runtime supplies its own, whose blocks must not reach
// the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace quora;
using Clock = std::chrono::steady_clock;

[[noreturn]] void usage(int code) {
  std::cerr << "usage: quora_bench [--quick] [--json PATH] [--rev NAME] [--seed N]\n"
               "       quora_bench --alloc-check [--quick] [--seed N]\n"
               "  --quick        ~10-40x smaller pinned workloads (CI smoke)\n"
               "  --json PATH    write the machine-readable report to PATH\n"
               "  --rev NAME     revision label recorded in the report\n"
               "  --seed N       root seed (default 42; changes the workload!)\n"
               "  --alloc-check  assert the annotated hot paths allocate zero\n"
               "                 bytes in steady state (exit 1 on any alloc)\n";
  std::exit(code);
}

struct Options {
  bool quick = false;
  bool alloc_check = false;
  std::string json_path;
  std::string revision = "unknown";
  std::uint64_t seed = 42;
};

struct CaseResult {
  std::string name;
  std::uint64_t items = 0;   // measured operations (pops, flips, accesses)
  double wall_s = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t alloc_bytes = 0;
  // Optional extras; negative = not applicable.
  double accesses_per_sec = -1.0;
  double rebuilds = -1.0;
  double rebuilds_per_sec = -1.0;

  double ns_per_op() const {
    return items == 0 ? 0.0 : wall_s * 1e9 / static_cast<double>(items);
  }
  double ops_per_sec() const {
    return wall_s <= 0.0 ? 0.0 : static_cast<double>(items) / wall_s;
  }
};

/// Measures `body(items)` with the allocation counter snapshotted around it.
template <typename Body>
CaseResult run_case(const std::string& name, std::uint64_t items, Body body) {
  CaseResult r;
  r.name = name;
  r.items = items;
  const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  body(items, r);
  const auto t1 = Clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.allocations = g_alloc_count.load(std::memory_order_relaxed) - a0;
  r.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - b0;
  std::cout << "  " << name << ": " << r.items << " ops in " << r.wall_s
            << " s (" << r.ns_per_op() << " ns/op, " << r.allocations
            << " allocs)";
  if (r.rebuilds >= 0.0) std::cout << ", rebuilds=" << r.rebuilds;
  std::cout << '\n';
  return r;
}

CaseResult bench_event_queue(const Options& opt) {
  const std::uint64_t n = opt.quick ? 1'000'000 : 20'000'000;
  return run_case("event_queue_churn", n, [&](std::uint64_t items, CaseResult&) {
    sim::EventQueue<sim::Event> queue;
    rng::Xoshiro256ss gen(opt.seed);
    for (int i = 0; i < 4096; ++i) {
      queue.push({gen.next_double(), 0, sim::EventKind::kAccess, 0});
    }
    double sink = 0.0;
    for (std::uint64_t i = 0; i < items; ++i) {
      const sim::Event e = queue.pop();
      sink += e.time;
      queue.push({e.time + rng::exponential(gen, 1.0), 0, sim::EventKind::kAccess,
                  static_cast<std::uint32_t>(i & 0xff)});
    }
    if (sink < 0.0) std::abort();  // defeat dead-code elimination
  });
}

// Item counts are sized per topology by measured per-op cost so every
// case finishes in well under ~15 s of full-mode wall clock; see the call
// sites. About half the flips lose a link, and a loss rebuilds unless its
// endpoints share an up neighbour in the dense adjacency rows: almost
// never on the complete cases; on every loss on ring-101 (ring neighbours
// share none) and on the grid and geo cases (no dense rows); and on
// Topology 256 whenever the lost link's endpoints share no up neighbour,
// which keeps a timed case on the dense rebuild.
CaseResult bench_tracker(const Options& opt, const std::string& name,
                         const net::Topology& topo, std::uint64_t items_full,
                         std::uint64_t items_quick) {
  const std::uint64_t n = opt.quick ? items_quick : items_full;
  return run_case("tracker_" + name, n, [&](std::uint64_t items, CaseResult& r) {
    conn::LiveNetwork live(topo);
    conn::ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(opt.seed ^ 7);
    const std::uint64_t rebuilds0 = tracker.stats().full_rebuilds;
    net::Vote sink = 0;
    for (std::uint64_t i = 0; i < items; ++i) {
      const auto link =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(link, !live.is_link_up(link));
      sink += tracker.component_votes(0);
    }
    if (sink == 0xffffffff) std::abort();
    r.rebuilds = static_cast<double>(tracker.stats().full_rebuilds - rebuilds0);
    r.rebuilds_per_sec = 0.0;  // filled after wall_s is known, below
  });
}

// 1M-site construct+rebuild smoke: proves the sparse path and every
// ctor-reserved buffer scale to ROADMAP item 4's top end. Each item is
// one link-down flip (forcing a full 1M-site rebuild on the next query)
// followed by the recovery merge; topology construction is inside the
// measured region deliberately — at this size the builders are part of
// the story.
CaseResult bench_scale_1m(const Options& opt) {
  const std::uint64_t n = opt.quick ? 4 : 8;
  return run_case("scale_grid1m_smoke", n,
                  [&](std::uint64_t items, CaseResult& r) {
    const auto topo = net::make_grid(1000, 1000);
    conn::LiveNetwork live(topo);
    conn::ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(opt.seed ^ 13);
    const std::uint64_t rebuilds0 = tracker.stats().full_rebuilds;
    net::Vote sink = 0;
    for (std::uint64_t i = 0; i < items; ++i) {
      const auto link =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(link, false);
      sink += tracker.component_votes(0);
      live.set_link_up(link, true);
      sink += tracker.max_component_votes();
    }
    if (sink == 0xffffffff) std::abort();
    r.rebuilds = static_cast<double>(tracker.stats().full_rebuilds - rebuilds0);
    r.rebuilds_per_sec = 0.0;
  });
}

/// Mirrors the measurement loop of the real experiments: per access, the
/// observer queries the votes reachable from the submitting site.
class VotesProbe : public sim::AccessObserver {
public:
  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override {
    votes_seen += sim.tracker().component_votes(ev.site);
  }
  std::uint64_t votes_seen = 0;
};

CaseResult bench_sim_e2e(const Options& opt, const std::string& name,
                         const net::Topology& topo, std::uint64_t accesses_full,
                         std::uint64_t accesses_quick) {
  const std::uint64_t n = opt.quick ? accesses_quick : accesses_full;
  return run_case("sim_e2e_" + name, n, [&](std::uint64_t items, CaseResult& r) {
    sim::SimConfig config;
    sim::AccessSpec spec;
    sim::Simulator sim(topo, config, spec, opt.seed);
    VotesProbe probe;
    sim.add_access_observer(&probe);
    // Warm up outside nothing: the warm-up is part of the pinned work so
    // the trajectory is identical across revisions.
    const std::uint64_t rebuilds0 = sim.tracker().stats().full_rebuilds;
    sim.run_accesses(items);
    if (probe.votes_seen == 0xffffffff) std::abort();
    r.rebuilds = static_cast<double>(sim.tracker().stats().full_rebuilds - rebuilds0);
  });
}

/// quora_model's search end to end: each call exhausts the shipped
/// tiny_line scope with DPOR. Items are unique states, so ns_per_op is
/// the cost of one unique state.
CaseResult bench_model(const Options& opt) {
  const model::Scope scope = model::load_model_file(
      std::string(QUORA_EXAMPLES_DIR) + "/model/tiny_line.model");
  model::Explorer warmup(scope);
  if (warmup.run()) std::abort();
  const std::uint64_t unique = warmup.stats().unique_states;
  const std::uint64_t calls = opt.quick ? 2 : 40;
  return run_case("model_tiny_line", calls * unique,
                  [&](std::uint64_t, CaseResult&) {
    for (std::uint64_t i = 0; i < calls; ++i) {
      model::Explorer explorer(scope);
      if (explorer.run() || explorer.stats().unique_states != unique) std::abort();
    }
  });
}

/// Times `items` calls of `call()` and folds what each returns into a
/// sink, so no call can be optimized away. The caller builds the inputs,
/// outside the measured region.
template <typename Call>
CaseResult bench_calls(const Options& opt, const std::string& name,
                       std::uint64_t items_full, std::uint64_t items_quick,
                       Call call) {
  const std::uint64_t n = opt.quick ? items_quick : items_full;
  return run_case(name, n, [&](std::uint64_t items, CaseResult&) {
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < items; ++i) sink += call();
    if (sink == ~std::uint64_t{0}) std::abort();
  });
}

/// The layers around the simulator, one call per op: alias sampling over
/// 101 and 4,096 weights, the three optimizers on the ring-101 closed-form
/// curve at alpha = .75, the ring and complete-101 closed-form densities,
/// a write-then-read round trip through the replicated and witness stores,
/// one coterie decision and one two-object transaction.
void bench_layer_calls(const Options& opt, std::vector<CaseResult>& cases) {
  for (const std::size_t n : {std::size_t{101}, std::size_t{4096}}) {
    std::vector<double> weights(n);
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = static_cast<double>(i % 7 + 1);
    }
    const rng::AliasTable table(weights);
    rng::Xoshiro256ss gen(opt.seed);
    cases.push_back(bench_calls(opt, "alias_sample_" + std::to_string(n),
                                60'000'000, 2'000'000,
                                [&] { return std::uint64_t{table.sample(gen)}; }));
  }

  const core::AvailabilityCurve curve(core::ring_site_pdf(101, 0.96, 0.96));
  cases.push_back(bench_calls(opt, "optimize_exhaustive_ring101", 2'000'000,
                              50'000, [&] {
    return std::uint64_t{core::optimize_exhaustive(curve, 0.75).spec.q_r};
  }));
  cases.push_back(bench_calls(opt, "optimize_golden_ring101", 3'000'000,
                              100'000, [&] {
    return std::uint64_t{core::optimize_golden(curve, 0.75).spec.q_r};
  }));
  cases.push_back(bench_calls(opt, "optimize_brent_ring101", 1'000'000,
                              40'000, [&] {
    return std::uint64_t{core::optimize_brent(curve, 0.75).spec.q_r};
  }));

  cases.push_back(bench_calls(opt, "ring_pdf101", 8'000, 300, [] {
    return std::bit_cast<std::uint64_t>(core::ring_site_pdf(101, 0.96, 0.96).back());
  }));
  cases.push_back(bench_calls(opt, "complete_pdf101", 400, 20, [] {
    return std::bit_cast<std::uint64_t>(
        core::fully_connected_site_pdf(101, 0.96, 0.96).back());
  }));

  {
    const auto topo = net::make_ring_with_chords(101, 16);
    const conn::LiveNetwork live(topo);
    const conn::ComponentTracker tracker(live);
    const quorum::QuorumSpec spec = quorum::from_read_quorum(101, 40);
    quorum::ReplicatedStore store(topo);
    std::uint64_t v = 0;
    cases.push_back(bench_calls(opt, "replicated_store_roundtrip", 3'000'000,
                                150'000, [&] {
      store.write(tracker, spec, 3, ++v);
      return store.read(tracker, spec, 60).version;
    }));
    quorum::WitnessStore witness(topo, quorum::witness_mask_lowest_degree(topo, 50));
    v = 0;
    cases.push_back(bench_calls(opt, "witness_store_roundtrip", 3'000'000,
                                100'000, [&] {
      witness.write(tracker, spec, 3, ++v);
      return witness.read(tracker, spec, 60).version;
    }));
  }
  {
    const auto topo = net::make_ring_with_chords(12, 2);
    const conn::LiveNetwork live(topo);
    const conn::ComponentTracker tracker(live);
    const auto engine =
        quorum::make_vote_coterie_protocol(topo, quorum::from_read_quorum(12, 4));
    cases.push_back(bench_calls(opt, "coterie_decision", 15'000'000, 500'000, [&] {
      return std::uint64_t{
          engine.request(tracker, 5, quorum::AccessType::kRead).votes_collected};
    }));
  }
  {
    const auto topo = net::make_ring_with_chords(31, 4);
    const conn::LiveNetwork live(topo);
    const conn::ComponentTracker tracker(live);
    db::Database database(topo, {{"a", quorum::from_read_quorum(31, 5)},
                                 {"b", quorum::from_read_quorum(31, 12)}});
    // Read object a, write object b.
    std::array<db::Database::Op, 2> txn{{{0, false, 0}, {1, true, 0}}};
    cases.push_back(bench_calls(opt, "database_txn", 8'000'000, 200'000, [&] {
      ++txn[1].value;
      return std::uint64_t{database.execute(tracker, 7, txn).committed};
    }));
  }
}

// ---------------------------------------------------------------------------
// --alloc-check: the runtime verification behind the L006 annotations.

/// Allocation-counter delta across `body` (the caller does all setup and
/// warm-up first, so the delta is the steady-state figure).
template <typename Body>
std::uint64_t allocs_during(Body&& body) {
  const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
  body();
  return g_alloc_count.load(std::memory_order_relaxed) - a0;
}

int run_alloc_check(const Options& opt) {
  struct Check {
    std::string name;
    std::uint64_t allocations;
  };
  std::vector<Check> checks;

  {
    // sim::EventQueue push/pop (QUORA_HOT_PATH) at constant queue depth:
    // the pop hands a slot back before the next push, so the inline
    // allow(L006) on heap_.push_back must never reach the allocator.
    sim::EventQueue<sim::Event> queue;
    rng::Xoshiro256ss gen(opt.seed);
    for (int i = 0; i < 4096; ++i) {
      queue.push({gen.next_double(), 0, sim::EventKind::kAccess, 0});
    }
    const std::uint64_t iters = opt.quick ? 100'000 : 2'000'000;
    double sink = 0.0;
    const std::uint64_t n = allocs_during([&] {
      for (std::uint64_t i = 0; i < iters; ++i) {
        const sim::Event e = queue.pop();
        sink += e.time;
        queue.push({e.time + rng::exponential(gen, 1.0), 0,
                    sim::EventKind::kAccess, static_cast<std::uint32_t>(i & 0xff)});
      }
    });
    if (sink < 0.0) std::abort();
    checks.push_back({"event_queue_steady_state", n});
  }

  {
    // conn::ComponentTracker refresh + hot-path queries under link churn:
    // the QUORA_ALLOC_OK rebuild/compact/apply paths must stay inside the
    // capacity the constructor reserved. votes_by_label() forces the
    // compaction path too, not just the scalar queries.
    const auto topo = net::make_ring(101);
    conn::LiveNetwork live(topo);
    conn::ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(opt.seed ^ 7);
    net::Vote sink = 0;
    const auto churn = [&](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        const auto link =
            static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
        live.set_link_up(link, !live.is_link_up(link));
        sink += tracker.component_votes(0);
        sink += tracker.max_component_votes();
        sink += static_cast<net::Vote>(tracker.votes_by_label().size());
      }
    };
    churn(1024);  // warm-up: touch every lazily-sized buffer once
    const std::uint64_t n =
        allocs_during([&] { churn(opt.quick ? 50'000 : 500'000); });
    if (sink == 0xffffffff) std::abort();
    checks.push_back({"tracker_refresh_steady_state", n});
  }

  {
    // Dense word-parallel rebuild path (101 complete sites stay within
    // kDenseAdjacencyMaxSites) plus the member_words packed-bitset query:
    // both must live inside the ctor-reserved word buffers. A lost link
    // there almost always has a shared neighbour and is absorbed, so a
    // site toggle every fourth step keeps the rebuild path running.
    const auto topo = net::make_fully_connected(101);
    conn::LiveNetwork live(topo);
    conn::ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(opt.seed ^ 11);
    std::uint64_t sink = 0;
    const auto churn = [&](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        const auto link =
            static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
        live.set_link_up(link, !live.is_link_up(link));
        if (i % 4 == 0) {
          const auto site =
              static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
          live.set_site_up(site, !live.is_site_up(site));
        }
        sink += tracker.component_votes(0);
        sink += tracker.member_words(0).front();
      }
    };
    churn(256);  // warm-up
    const std::uint64_t n =
        allocs_during([&] { churn(opt.quick ? 5'000 : 50'000); });
    if (sink == 0xffffffff) std::abort();
    checks.push_back({"tracker_dense_rebuild_steady_state", n});
  }

  {
    // Sparse CSR rebuild path at the topology-50k scale point: the same
    // churn over a 224x224 grid, reduced iteration count (each rebuild
    // walks 50k sites). Guards the large-topology buffers the scale
    // cases introduced.
    const auto topo = net::make_grid(224, 224);
    conn::LiveNetwork live(topo);
    conn::ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(opt.seed ^ 5);
    net::Vote sink = 0;
    const auto churn = [&](std::uint64_t iters) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        const auto link =
            static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
        live.set_link_up(link, !live.is_link_up(link));
        sink += tracker.component_votes(0);
        sink += tracker.max_component_votes();
      }
    };
    churn(64);  // warm-up
    const std::uint64_t n = allocs_during([&] { churn(opt.quick ? 200 : 2'000); });
    if (sink == 0xffffffff) std::abort();
    checks.push_back({"tracker_sparse_grid50k_steady_state", n});
  }

  {
    // sim::Simulator::run_accesses (QUORA_HOT_PATH + sim shard entry),
    // end to end with the measurement observer attached — the exact chain
    // the linter walks from the annotated root.
    const auto topo = net::make_ring_with_chords(101, 256);
    sim::SimConfig config;
    sim::AccessSpec spec;
    sim::Simulator sim(topo, config, spec, opt.seed);
    VotesProbe probe;
    sim.add_access_observer(&probe);
    sim.run_accesses(opt.quick ? 2'000 : 20'000);  // warm-up
    const std::uint64_t n = allocs_during(
        [&] { sim.run_accesses(opt.quick ? 20'000 : 200'000); });
    if (probe.votes_seen == 0xffffffff) std::abort();
    checks.push_back({"simulator_access_loop", n});
  }

  bool clean = true;
  for (const Check& c : checks) {
    const bool ok = c.allocations == 0;
    clean = clean && ok;
    std::cout << "  " << (ok ? "PASS" : "FAIL") << ' ' << c.name << ": "
              << c.allocations << " steady-state allocation(s)\n";
  }
  std::cout << (clean ? "alloc-check: all hot paths allocation-free\n"
                      : "alloc-check: FAILED — an annotated hot path reached "
                        "the allocator\n");
  return clean ? 0 : 1;
}

void finish_rates(CaseResult& r) {
  if (r.rebuilds >= 0.0 && r.wall_s > 0.0) {
    r.rebuilds_per_sec = r.rebuilds / r.wall_s;
  }
}

void write_json(std::ostream& out, const Options& opt,
                const std::vector<CaseResult>& cases) {
  out.precision(17);
  out << "{\n"
      << "  \"schema\": \"quora-bench/1\",\n"
      << "  \"revision\": ";
  io::write_json_string(out, opt.revision);
  out << ",\n"
      << "  \"mode\": \"" << (opt.quick ? "quick" : "full") << "\",\n"
      << "  \"seed\": " << opt.seed << ",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& r = cases[i];
    out << "    {\"name\": ";
    io::write_json_string(out, r.name);
    out << ", \"items\": " << r.items
        << ", \"wall_s\": " << r.wall_s << ", \"ns_per_op\": " << r.ns_per_op()
        << ", \"ops_per_sec\": " << r.ops_per_sec()
        << ", \"allocations\": " << r.allocations
        << ", \"alloc_bytes\": " << r.alloc_bytes;
    if (r.accesses_per_sec >= 0.0) {
      out << ", \"accesses_per_sec\": " << r.accesses_per_sec;
    }
    if (r.rebuilds >= 0.0) {
      out << ", \"rebuilds\": " << r.rebuilds
          << ", \"rebuilds_per_sec\": " << r.rebuilds_per_sec;
    }
    out << '}' << (i + 1 < cases.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "quora_bench: missing value for " << arg << '\n';
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--alloc-check") {
      opt.alloc_check = true;
    } else if (arg == "--json") {
      opt.json_path = need_value();
    } else if (arg == "--rev") {
      opt.revision = need_value();
    } else if (arg == "--seed") {
      try {
        opt.seed = io::parse_uint(need_value(), 0, ~std::uint64_t{0}, 0);
      } catch (const std::invalid_argument& e) {
        std::cerr << "quora_bench: --seed " << e.what() << '\n';
        usage(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "quora_bench: unknown option " << arg << '\n';
      usage(2);
    }
  }

  if (opt.alloc_check) {
    std::cout << "quora_bench --alloc-check (" << (opt.quick ? "quick" : "full")
              << " mode, seed " << opt.seed << ")\n";
    return run_alloc_check(opt);
  }

  std::cout << "quora_bench (" << (opt.quick ? "quick" : "full")
            << " mode, seed " << opt.seed << ")\n";

  std::vector<CaseResult> cases;
  cases.push_back(bench_event_queue(opt));

  // Tracker case sizing (satellite of ISSUE 8): ~1 µs/flip on the sparse
  // ring and ~2-20 µs/flip on the dense/scale topologies, so the counts
  // below keep every case under ~15 s full-mode wall clock. The dense
  // 101-site cases ran 2M items (~110 s each) before the word-parallel
  // rebuild landed; 500k at the new per-op cost is both comparable and
  // fast.
  {
    const auto ring = net::make_ring(101);
    cases.push_back(bench_tracker(opt, "ring101", ring, 2'000'000, 100'000));
  }
  {
    const auto complete = net::make_fully_connected(101);
    cases.push_back(bench_tracker(opt, "complete101", complete, 500'000, 25'000));
  }
  {
    const auto t4949 = net::make_ring_with_chords(101, 4949);
    cases.push_back(bench_tracker(opt, "topology4949", t4949, 500'000, 25'000));
  }
  {
    // topology-50k scale point: 224x224 grid (50176 sites), sparse path.
    // A full rebuild is ~n+m work; ~half of the flips trigger one.
    const auto grid = net::make_grid(224, 224);
    cases.push_back(bench_tracker(opt, "grid50k", grid, 10'000, 250));
  }
  {
    // topology-250k scale point: geo deployment, 50 regions x 5 DCs x
    // 50 racks x 20 sites = 250k sites. Rack-of-20 cliques keep the link
    // count ~2.6M, so a full rebuild is ~30 ms; at ~every flip forcing
    // one (short runs hit fresh links, so almost all flips are downs),
    // 400 items stays inside the 15 s budget.
    net::GeoSpec geo;
    geo.regions = 50;
    geo.dcs_per_region = 5;
    geo.racks_per_dc = 50;
    geo.sites_per_rack = 20;
    const auto t = net::make_geo(geo);
    cases.push_back(bench_tracker(opt, "geo250k", t, 400, 25));
  }
  cases.push_back(bench_scale_1m(opt));
  {
    const auto t256 = net::make_ring_with_chords(101, 256);
    cases.push_back(bench_sim_e2e(opt, "topology256", t256, 400'000, 30'000));
  }
  {
    const auto t4949 = net::make_fully_connected(101);
    cases.push_back(bench_sim_e2e(opt, "topology4949", t4949, 150'000, 10'000));
  }
  {
    // 101 sites and 357 links: dense rows, since 64 * 357 >= 101^2.
    const auto t256 = net::make_ring_with_chords(101, 256);
    cases.push_back(bench_tracker(opt, "topology256", t256, 2'000'000, 100'000));
  }
  bench_layer_calls(opt, cases);
  cases.push_back(bench_model(opt));
  for (CaseResult& r : cases) {
    finish_rates(r);
    if (r.name.rfind("sim_e2e_", 0) == 0) r.accesses_per_sec = r.ops_per_sec();
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "quora_bench: cannot open " << opt.json_path << '\n';
      return 2;
    }
    write_json(out, opt, cases);
    std::cout << "json written to " << opt.json_path << '\n';
  }
  return 0;
}
