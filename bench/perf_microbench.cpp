// DESIGN.md PERF — engineering benchmarks (google-benchmark). The paper's
// study cost 0.5-2 hours per 1M-access batch on a DECstation 5000; these
// track what the same work costs in this implementation, per subsystem.
// Costs with a pinned twin live elsewhere only: the event queue and the
// tracker on ring-101, complete-101 and Topology 4949 in quora_bench
// (BENCH_baseline.json), the simulator loop in quora_bench's sim_e2e
// cases and perfbench's paper_curves, the message-level cluster in
// perfbench's cluster_steady.

#include <benchmark/benchmark.h>

#include "conn/component_tracker.hpp"
#include "db/database.hpp"
#include "quorum/coterie_protocol.hpp"
#include "quorum/replicated_store.hpp"
#include "quorum/witness_store.hpp"
#include "conn/live_network.hpp"
#include "core/component_dist.hpp"
#include "core/optimize.hpp"
#include "net/builders.hpp"
#include "rng/alias_table.hpp"
#include "rng/distributions.hpp"

namespace {

using namespace quora;

void BM_Xoshiro(benchmark::State& state) {
  rng::Xoshiro256ss gen(1);
  for (auto _ : state) benchmark::DoNotOptimize(gen());
}
BENCHMARK(BM_Xoshiro);

void BM_Exponential(benchmark::State& state) {
  rng::Xoshiro256ss gen(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng::exponential(gen, 128.0));
}
BENCHMARK(BM_Exponential);

void BM_AliasSample(benchmark::State& state) {
  rng::Xoshiro256ss gen(1);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<double>(i % 7 + 1);
  }
  const rng::AliasTable table(weights);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(gen));
}
BENCHMARK(BM_AliasSample)->Arg(101)->Arg(4096);

void BM_ComponentTrackerRefresh_Topology256(benchmark::State& state) {
  const auto topo = net::make_ring_with_chords(101, 256);
  conn::LiveNetwork live(topo);
  conn::ComponentTracker tracker(live);
  rng::Xoshiro256ss gen(7);
  for (auto _ : state) {
    const auto link = static_cast<net::LinkId>(
        rng::uniform_index(gen, topo.link_count()));
    live.set_link_up(link, !live.is_link_up(link));
    benchmark::DoNotOptimize(tracker.component_votes(0));
  }
  state.counters["rebuilds"] =
      static_cast<double>(tracker.stats().full_rebuilds);
  state.counters["incremental"] =
      static_cast<double>(tracker.stats().incremental_applies);
}
BENCHMARK(BM_ComponentTrackerRefresh_Topology256);

core::AvailabilityCurve make_test_curve() {
  return core::AvailabilityCurve(core::ring_site_pdf(101, 0.96, 0.96));
}

void BM_OptimizeExhaustive(benchmark::State& state) {
  const auto curve = make_test_curve();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_exhaustive(curve, 0.75));
  }
}
BENCHMARK(BM_OptimizeExhaustive);

void BM_OptimizeGolden(benchmark::State& state) {
  const auto curve = make_test_curve();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_golden(curve, 0.75));
  }
}
BENCHMARK(BM_OptimizeGolden);

void BM_OptimizeBrent(benchmark::State& state) {
  const auto curve = make_test_curve();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_brent(curve, 0.75));
  }
}
BENCHMARK(BM_OptimizeBrent);

void BM_GilbertRel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::gilbert_rel(static_cast<std::uint32_t>(state.range(0)), 0.96));
  }
}
BENCHMARK(BM_GilbertRel)->Arg(10)->Arg(101);

void BM_RingPdf(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ring_site_pdf(101, 0.96, 0.96));
  }
}
BENCHMARK(BM_RingPdf);

void BM_FullyConnectedPdf(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fully_connected_site_pdf(101, 0.96, 0.96));
  }
}
BENCHMARK(BM_FullyConnectedPdf);

void BM_ReplicatedStoreRoundTrip(benchmark::State& state) {
  const auto topo = net::make_ring_with_chords(101, 16);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  quorum::ReplicatedStore store(topo);
  const quorum::QuorumSpec spec = quorum::from_read_quorum(101, 40);
  std::uint64_t v = 0;
  for (auto _ : state) {
    store.write(tracker, spec, 3, ++v);
    benchmark::DoNotOptimize(store.read(tracker, spec, 60));
  }
}
BENCHMARK(BM_ReplicatedStoreRoundTrip);

void BM_WitnessStoreRoundTrip(benchmark::State& state) {
  const auto topo = net::make_ring_with_chords(101, 16);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  quorum::WitnessStore store(topo, quorum::witness_mask_lowest_degree(topo, 50));
  const quorum::QuorumSpec spec = quorum::from_read_quorum(101, 40);
  std::uint64_t v = 0;
  for (auto _ : state) {
    store.write(tracker, spec, 3, ++v);
    benchmark::DoNotOptimize(store.read(tracker, spec, 60));
  }
}
BENCHMARK(BM_WitnessStoreRoundTrip);

void BM_CoterieDecision(benchmark::State& state) {
  const auto topo = net::make_ring_with_chords(12, 2);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  const auto engine = quorum::make_vote_coterie_protocol(
      topo, quorum::from_read_quorum(12, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.request(tracker, 5, quorum::AccessType::kRead));
  }
}
BENCHMARK(BM_CoterieDecision);

void BM_DatabaseTransaction(benchmark::State& state) {
  const auto topo = net::make_ring_with_chords(31, 4);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  db::Database database(topo, {{"a", quorum::from_read_quorum(31, 5)},
                               {"b", quorum::from_read_quorum(31, 12)}});
  std::uint64_t v = 0;
  const std::vector<db::Database::Op> ops{{0, false, 0}, {1, true, 0}};
  for (auto _ : state) {
    std::vector<db::Database::Op> txn = ops;
    txn[1].value = ++v;
    benchmark::DoNotOptimize(database.execute(tracker, 7, txn));
  }
}
BENCHMARK(BM_DatabaseTransaction);

} // namespace

BENCHMARK_MAIN();
