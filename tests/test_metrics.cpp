// Tests for the measurement layer: the votes-seen collector (the on-line
// estimator), the protocol meter, and the experiment driver implementing
// the paper's batch protocol.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "metrics/collectors.hpp"
#include "metrics/experiment.hpp"
#include "net/builders.hpp"
#include "quorum/protocols.hpp"
#include "sim/simulator.hpp"

namespace quora::metrics {
namespace {

sim::SimConfig tiny_config() {
  sim::SimConfig config;
  config.warmup_accesses = 2'000;
  config.accesses_per_batch = 20'000;
  return config;
}

TEST(VotesSeenCollector, CountsEveryAccess) {
  const net::Topology topo = net::make_ring(10);
  sim::Simulator sim(topo, tiny_config(), sim::AccessSpec{}, 1);
  VotesSeenCollector collector(topo);
  sim.add_access_observer(&collector);
  sim.run_accesses(5'000);

  EXPECT_EQ(collector.accesses(), 5'000u);
  EXPECT_EQ(collector.read_hist().total() + collector.write_hist().total(), 5'000u);
  EXPECT_EQ(collector.max_component_hist().total(), 5'000u);
}

TEST(VotesSeenCollector, PdfsAreDensities) {
  const net::Topology topo = net::make_ring(10);
  sim::Simulator sim(topo, tiny_config(), sim::AccessSpec{}, 2);
  VotesSeenCollector collector(topo);
  sim.add_access_observer(&collector);
  sim.run_accesses(20'000);

  for (const auto& pdf : {collector.read_pdf(), collector.write_pdf(),
                          collector.combined_pdf(), collector.max_component_pdf()}) {
    EXPECT_TRUE(core::is_valid_pdf(pdf, 1e-9));
    EXPECT_EQ(pdf.size(), topo.total_votes() + 1u);
  }
}

TEST(VotesSeenCollector, PerSiteRequiresOption) {
  const net::Topology topo = net::make_ring(6);
  const VotesSeenCollector plain(topo);
  EXPECT_THROW(plain.site_hist(0), std::logic_error);

  VotesSeenCollector::Options options;
  options.per_site = true;
  sim::Simulator sim(topo, tiny_config(), sim::AccessSpec{}, 3);
  VotesSeenCollector per_site(topo, options);
  sim.add_access_observer(&per_site);
  sim.run_accesses(6'000);

  std::uint64_t by_site = 0;
  for (net::SiteId s = 0; s < 6; ++s) by_site += per_site.site_hist(s).total();
  EXPECT_EQ(by_site, 6'000u);
}

TEST(VotesSeenCollector, MaxComponentDominatesPerSite) {
  const net::Topology topo = net::make_ring(8);
  sim::Simulator sim(topo, tiny_config(), sim::AccessSpec{}, 4);
  VotesSeenCollector collector(topo);
  sim.add_access_observer(&collector);
  sim.run_accesses(20'000);

  // Sample-by-sample, the largest component's votes dominate the
  // submitting site's, so the SURV tail dominates the pooled access tail
  // exactly (pooled, not read-only: the read histogram is a different
  // subsample and only dominates in expectation).
  const core::VotePdf combined = collector.combined_pdf();
  const core::VotePdf surv = collector.max_component_pdf();
  double combined_tail = 0.0;
  double surv_tail = 0.0;
  for (net::Vote q = topo.total_votes();; --q) {
    combined_tail += combined[q];
    surv_tail += surv[q];
    EXPECT_GE(surv_tail + 1e-12, combined_tail) << "q=" << q;
    if (q == 0) break;
  }
}

TEST(VotesSeenCollector, MergePools) {
  const net::Topology topo = net::make_ring(6);
  VotesSeenCollector a(topo);
  VotesSeenCollector b(topo);
  sim::Simulator sim1(topo, tiny_config(), sim::AccessSpec{}, 5, 0);
  sim::Simulator sim2(topo, tiny_config(), sim::AccessSpec{}, 5, 1);
  sim1.add_access_observer(&a);
  sim2.add_access_observer(&b);
  sim1.run_accesses(1'000);
  sim2.run_accesses(2'000);
  a.merge(b);
  EXPECT_EQ(a.accesses(), 3'000u);
  EXPECT_EQ(a.read_hist().total() + a.write_hist().total(), 3'000u);
}

TEST(ProtocolMeter, CountsGrantsByType) {
  const net::Topology topo = net::make_ring(10);
  const quorum::QuorumConsensus engine(topo, quorum::QuorumSpec{1, 10});
  sim::Simulator sim(topo, tiny_config(), sim::AccessSpec{}, 6);
  ProtocolMeter meter(static_decider(engine));
  sim.add_access_observer(&meter);
  sim.run_accesses(10'000);

  EXPECT_EQ(meter.reads() + meter.writes(), 10'000u);
  EXPECT_LE(meter.reads_granted(), meter.reads());
  EXPECT_LE(meter.writes_granted(), meter.writes());
  // ROWA: reads succeed ~96% of the time, writes almost never (T=10 all up).
  EXPECT_NEAR(meter.read_availability(), 0.96, 0.02);
  EXPECT_LT(meter.write_availability(), 0.8);
  const double combined =
      static_cast<double>(meter.reads_granted() + meter.writes_granted()) / 10'000.0;
  EXPECT_NEAR(meter.availability(), combined, 1e-12);
}

TEST(ProtocolMeter, RejectsEmptyDecider) {
  EXPECT_THROW(ProtocolMeter(ProtocolMeter::Decide{}), std::invalid_argument);
}

TEST(MeasureCurves, ValidatesPolicy) {
  const net::Topology topo = net::make_ring(6);
  MeasurePolicy policy;
  policy.alphas.clear();
  EXPECT_THROW(measure_curves(topo, tiny_config(), policy), std::invalid_argument);
  policy = MeasurePolicy{};
  policy.sampling_alpha = 0.0;
  EXPECT_THROW(measure_curves(topo, tiny_config(), policy), std::invalid_argument);
}

class MeasuredRing : public ::testing::Test {
protected:
  static const CurveResult& result() {
    static const CurveResult r = [] {
      MeasurePolicy policy;
      policy.batch.min_batches = 4;
      policy.batch.max_batches = 6;
      policy.seed = 99;
      const net::Topology topo = net::make_ring(21);
      return measure_curves(topo, tiny_config(), policy);
    }();
    return r;
  }
};

TEST_F(MeasuredRing, ShapeOfTheResult) {
  const CurveResult& r = result();
  EXPECT_EQ(r.total, 21u);
  EXPECT_EQ(r.q_values.size(), 10u);  // floor(21/2)
  EXPECT_EQ(r.alphas.size(), 5u);
  EXPECT_EQ(r.mean.size(), 5u);
  EXPECT_EQ(r.mean[0].size(), 10u);
  EXPECT_GE(r.batches, 4u);
  EXPECT_LE(r.batches, 6u);
  EXPECT_GT(r.max_half_width, 0.0);
}

TEST_F(MeasuredRing, PaperLawsHold) {
  const CurveResult& r = result();
  // alpha = 1 at q_r = 1: availability ~ site reliability 0.96.
  EXPECT_NEAR(r.mean[4][0], 0.96, 0.01);
  // alpha = 0 at q_r = 1 (q_w = T): writes need every copy; on a 21-site
  // ring that is P(all sites up, <=1 link down) ~ 0.34 — and it must be
  // the worst point of the alpha=0 curve.
  EXPECT_LT(r.mean[0][0], 0.45);
  EXPECT_LT(r.mean[0][0], r.mean[0].back());
  // Monotone structure of the extreme-alpha curves.
  for (std::size_t qi = 0; qi + 1 < r.q_values.size(); ++qi) {
    EXPECT_GE(r.mean[4][qi] + 1e-9, r.mean[4][qi + 1]);  // alpha=1 nonincreasing
    EXPECT_LE(r.mean[0][qi], r.mean[0][qi + 1] + 1e-9);  // alpha=0 nondecreasing
  }
}

TEST_F(MeasuredRing, PooledCurvesAreConsistent) {
  const CurveResult& r = result();
  EXPECT_TRUE(core::is_valid_pdf(r.r_pdf, 1e-9));
  EXPECT_TRUE(core::is_valid_pdf(r.w_pdf, 1e-9));
  EXPECT_TRUE(core::is_valid_pdf(r.surv_pdf, 1e-9));
  const auto curve = r.pooled_curve();
  // Pooled curve availability should sit near the batch-mean estimates.
  for (std::size_t a = 0; a < r.alphas.size(); ++a) {
    for (std::size_t qi = 0; qi < r.q_values.size(); ++qi) {
      EXPECT_NEAR(curve.availability(r.alphas[a], r.q_values[qi]), r.mean[a][qi],
                  0.03);
    }
  }
  // SURV curve dominates ACC pointwise (within estimation noise).
  const auto surv = r.surv_curve();
  for (std::size_t qi = 0; qi < r.q_values.size(); ++qi) {
    EXPECT_GE(surv.availability(0.5, r.q_values[qi]) + 0.02,
              curve.availability(0.5, r.q_values[qi]));
  }
}

TEST(MeasureCurves, DeterministicInSeed) {
  const net::Topology topo = net::make_ring(11);
  MeasurePolicy policy;
  policy.batch.min_batches = 3;
  policy.batch.max_batches = 3;
  policy.seed = 1234;
  const CurveResult a = measure_curves(topo, tiny_config(), policy);
  const CurveResult b = measure_curves(topo, tiny_config(), policy);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.r_pdf, b.r_pdf);
  policy.seed = 4321;
  const CurveResult c = measure_curves(topo, tiny_config(), policy);
  EXPECT_NE(a.mean, c.mean);
}

TEST(MeasureCurves, ParallelEqualsSerial) {
  const net::Topology topo = net::make_ring(11);
  MeasurePolicy policy;
  policy.batch.min_batches = 4;
  policy.batch.max_batches = 4;
  policy.seed = 5;
  policy.threads = 1;
  const CurveResult serial = measure_curves(topo, tiny_config(), policy);
  policy.threads = 4;
  const CurveResult parallel = measure_curves(topo, tiny_config(), policy);
  EXPECT_EQ(serial.mean, parallel.mean);
  EXPECT_EQ(serial.r_pdf, parallel.r_pdf);
  EXPECT_EQ(serial.surv_pdf, parallel.surv_pdf);
}

TEST(MeasureCurves, PaperCurvesArePinned) {
  // The paper's 101-site runs at reduced scale, pinned bit for bit. Unlike
  // the golden transcripts, which query the tracker after every network
  // event, measure_curves queries it only at accesses, so each refresh
  // replays a window of several deltas. The digests were recorded with a
  // tracker that rebuilt on every link loss and a queue that removed each
  // root at pop.
  struct Pin {
    net::Topology topo;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {net::make_ring(101), 0x90e87654e0c6ca11ull},
      {net::make_fully_connected(101), 0xd88168ff125fc551ull},
      {net::make_ring_with_chords(101, 20), 0x9958776ae817855bull},
  };
  MeasurePolicy policy;
  policy.seed = 12345;
  policy.threads = 2;
  policy.batch.min_batches = 8;
  policy.batch.max_batches = 8;
  for (const Pin& pin : pins) {
    const CurveResult r = measure_curves(pin.topo, tiny_config(), policy);
    ASSERT_EQ(r.batches, 8u);
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a, one word per step
    const auto fold = [&h](double x) {
      h ^= std::bit_cast<std::uint64_t>(x);
      h *= 1099511628211ull;
    };
    for (const std::vector<double>& row : r.mean)
      for (const double x : row) fold(x);
    for (const std::vector<double>& row : r.half_width)
      for (const double x : row) fold(x);
    EXPECT_EQ(h, pin.digest) << pin.topo.name() << std::hex << " digest 0x" << h;
  }
}

TEST(MeasureCurves, AdaptiveBatchesStopEarlyWhenTight) {
  const net::Topology topo = net::make_ring(11);
  MeasurePolicy policy;
  policy.batch.min_batches = 3;
  policy.batch.max_batches = 12;
  policy.batch.target_half_width = 0.5;  // trivially satisfied
  const CurveResult r = measure_curves(topo, tiny_config(), policy);
  EXPECT_EQ(r.batches, 3u);
}

} // namespace
} // namespace quora::metrics
