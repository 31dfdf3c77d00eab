// Parameterized invariant sweeps: the one-copy-serializability fuzz and
// the QR safety fuzz repeated across a family of topologies — the
// library's strongest guarantees should not depend on network shape.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>

#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "core/reassign.hpp"
#include "net/builders.hpp"
#include "quorum/quorum_spec.hpp"
#include "quorum/replicated_store.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"

namespace quora {
namespace {

struct TopologyCase {
  std::string label;
  std::function<net::Topology()> make;
};

/// Print the label, not gtest's default byte dump: those bytes hold heap
/// addresses, which would put a different test name in the listing (and
/// so in ctest) on every run.
void PrintTo(const TopologyCase& c, std::ostream* os) { *os << c.label; }

class InvariantSweep : public ::testing::TestWithParam<TopologyCase> {};

/// Shared biased fail/recover step (about two thirds of components up).
void random_step(rng::Xoshiro256ss& gen, conn::LiveNetwork& live,
                 const net::Topology& topo, double u) {
  if (u < 0.08) {
    const auto s =
        static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
    live.set_site_up(s, false);
  } else if (u < 0.24) {
    const auto s =
        static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
    live.set_site_up(s, true);
  } else if (u < 0.32 && topo.link_count() > 0) {
    const auto l =
        static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
    live.set_link_up(l, false);
  } else if (u < 0.48 && topo.link_count() > 0) {
    const auto l =
        static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
    live.set_link_up(l, true);
  }
}

TEST_P(InvariantSweep, OneCopySerializability) {
  const net::Topology topo = GetParam().make();
  const net::Vote total = topo.total_votes();
  rng::Xoshiro256ss gen(0xABCDEF);

  // One representative spec per regime: small, balanced, large q_r.
  for (const net::Vote q_r :
       {net::Vote{1}, static_cast<net::Vote>(std::max(1u, total / 4)),
        quorum::max_read_quorum(total)}) {
    const quorum::QuorumSpec spec = quorum::from_read_quorum(total, q_r);
    conn::LiveNetwork live(topo);
    const conn::ComponentTracker tracker(live);
    quorum::ReplicatedStore store(topo);
    std::uint64_t value = 1;
    std::uint64_t granted = 0;

    for (int step = 0; step < 6'000; ++step) {
      const double u = gen.next_double();
      random_step(gen, live, topo, u);
      const auto origin =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      if (u >= 0.48 && u < 0.75) {
        store.write(tracker, spec, origin, value++);
      } else if (u >= 0.75) {
        const auto r = store.read(tracker, spec, origin);
        if (r.granted) {
          ++granted;
          ASSERT_TRUE(r.current)
              << GetParam().label << " q_r=" << q_r << " step=" << step;
        }
      }
    }
    EXPECT_GT(granted, 50u) << GetParam().label << " q_r=" << q_r;
  }
}

TEST_P(InvariantSweep, QrSafety) {
  const net::Topology topo = GetParam().make();
  const net::Vote total = topo.total_votes();
  rng::Xoshiro256ss gen(0xFEDCBA);

  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  core::QuorumReassignment qr(topo, quorum::majority(total));
  std::uint64_t granted = 0;

  for (int step = 0; step < 8'000; ++step) {
    const double u = gen.next_double();
    random_step(gen, live, topo, u);
    const auto origin =
        static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
    if (u >= 0.48 && u < 0.60) {
      const auto q_r = static_cast<net::Vote>(
          1 + rng::uniform_index(gen, quorum::max_read_quorum(total)));
      qr.try_install(tracker, origin, quorum::from_read_quorum(total, q_r));
    } else if (u >= 0.60) {
      const auto type =
          rng::bernoulli(gen, 0.5) ? quorum::AccessType::kRead
                                   : quorum::AccessType::kWrite;
      if (qr.request(tracker, origin, type).granted) {
        ++granted;
        ASSERT_EQ(qr.effective(tracker, origin).version, qr.latest_version())
            << GetParam().label << " step=" << step;
      }
    }
  }
  EXPECT_GT(granted, 100u) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, InvariantSweep,
    ::testing::Values(
        TopologyCase{"ring9", [] { return net::make_ring(9); }},
        TopologyCase{"chords13", [] { return net::make_ring_with_chords(13, 3); }},
        TopologyCase{"complete8", [] { return net::make_fully_connected(8); }},
        TopologyCase{"grid3x4", [] { return net::make_grid(3, 4); }},
        TopologyCase{"tree15", [] { return net::make_binary_tree(15); }},
        TopologyCase{"star10", [] { return net::make_star(10); }},
        TopologyCase{"weighted",
                     [] {
                       return net::Topology(
                           "weighted", 7,
                           {net::Link{0, 1}, net::Link{1, 2}, net::Link{2, 3},
                            net::Link{3, 4}, net::Link{4, 5}, net::Link{5, 6},
                            net::Link{6, 0}, net::Link{0, 3}},
                           std::vector<net::Vote>{4, 1, 2, 1, 3, 1, 2});
                     }},
        TopologyCase{"gnp12", [] { return net::make_erdos_renyi(12, 0.35, 5); }}),
    [](const ::testing::TestParamInfo<TopologyCase>& param_info) {
      return param_info.param.label;
    });

} // namespace
} // namespace quora
