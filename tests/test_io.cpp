// Tests for the topology text format: parsing, validation with line
// numbers, builder directives, and save/load round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "io/cli_args.hpp"
#include "io/topology_io.hpp"
#include "net/builders.hpp"

namespace quora::io {
namespace {

net::Topology parse(const std::string& text) {
  std::istringstream in(text);
  return load_topology(in);
}

TEST(TopologyIo, MinimalExplicitFile) {
  const net::Topology topo = parse(
      "sites 3\n"
      "link 0 1\n"
      "link 1 2\n");
  EXPECT_EQ(topo.site_count(), 3u);
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_EQ(topo.total_votes(), 3u);
}

TEST(TopologyIo, CommentsAndBlanksIgnored) {
  const net::Topology topo = parse(
      "# header comment\n"
      "\n"
      "sites 4   # trailing comment\n"
      "  \n"
      "ring # make it a cycle\n");
  EXPECT_EQ(topo.link_count(), 4u);
}

TEST(TopologyIo, VotesAndDefaults) {
  const net::Topology topo = parse(
      "sites 4\n"
      "vote default 2\n"
      "vote 1 5\n"
      "vote 3 0\n"
      "link 0 1\n");
  EXPECT_EQ(topo.votes(0), 2u);
  EXPECT_EQ(topo.votes(1), 5u);
  EXPECT_EQ(topo.votes(3), 0u);
  EXPECT_EQ(topo.total_votes(), 9u);
}

TEST(TopologyIo, BuilderDirectivesMatchBuilders) {
  const net::Topology parsed = parse(
      "sites 11\n"
      "ring\n"
      "chords 3\n");
  const net::Topology built = net::make_ring_with_chords(11, 3);
  ASSERT_EQ(parsed.link_count(), built.link_count());
  // The parser canonicalizes endpoints (a < b); compare as sets.
  for (net::LinkId l = 0; l < parsed.link_count(); ++l) {
    const net::Link p = parsed.link(l);
    const net::Link b = built.link(l);
    EXPECT_EQ(std::minmax(p.a, p.b), std::minmax(b.a, b.b)) << "link " << l;
  }
}

TEST(TopologyIo, CompleteDirective) {
  const net::Topology topo = parse("sites 5\ncomplete\n");
  EXPECT_EQ(topo.link_count(), 10u);
}

TEST(TopologyIo, BuildersSkipExistingLinks) {
  const net::Topology topo = parse(
      "sites 5\n"
      "link 0 1\n"
      "ring\n");  // ring re-adds 0-1; must be skipped, not an error
  EXPECT_EQ(topo.link_count(), 5u);
}

TEST(TopologyIo, NameDirective) {
  const net::Topology topo = parse("sites 3\nname prod-cluster\nring\n");
  EXPECT_EQ(topo.name(), "prod-cluster");
}

TEST(TopologyIo, ErrorsCarryLineNumbers) {
  const auto expect_error_at = [](const std::string& text, std::size_t line) {
    try {
      parse(text);
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_error_at("link 0 1\n", 1);                       // before sites
  expect_error_at("sites 3\nsites 4\n", 2);               // duplicate sites
  expect_error_at("sites 3\nlink 0 3\n", 2);              // site out of range
  expect_error_at("sites 3\nlink 1 1\n", 2);              // self loop
  expect_error_at("sites 3\nlink 0 1\nlink 1 0\n", 3);    // duplicate link
  expect_error_at("sites 3\nfrobnicate\n", 2);            // unknown directive
  expect_error_at("sites 3\nlink 0 1 9\n", 2);            // trailing junk
  expect_error_at("sites 3\nvote 0\n", 2);                // missing vote count
  expect_error_at("sites 0\n", 1);                        // zero sites
  expect_error_at("sites 4\nchords 99\n", 2);             // too many chords
  expect_error_at("", 0);                                 // empty file
  expect_error_at("sites 5 junk\n", 1);                   // trailing junk
  expect_error_at("sites 3\nvote 1 -1\n", 2);             // sign on a count
  // The vote total 4294967295 + 2 + 1 overflows net::Vote.
  expect_error_at("sites 3\nring\nvote 0 4294967295\nvote 1 2\n", 4);
}

TEST(TopologyIo, SaveLoadRoundTrip) {
  const net::Topology original("rt", 6,
                               {net::Link{0, 1}, net::Link{2, 3}, net::Link{4, 5},
                                net::Link{0, 5}},
                               std::vector<net::Vote>{1, 2, 1, 0, 3, 1});
  std::ostringstream out;
  save_topology(out, original);
  std::istringstream in(out.str());
  const net::Topology reloaded = load_topology(in);

  EXPECT_EQ(reloaded.name(), original.name());
  EXPECT_EQ(reloaded.site_count(), original.site_count());
  ASSERT_EQ(reloaded.link_count(), original.link_count());
  for (net::LinkId l = 0; l < original.link_count(); ++l) {
    EXPECT_EQ(reloaded.link(l), original.link(l));
  }
  for (net::SiteId s = 0; s < original.site_count(); ++s) {
    EXPECT_EQ(reloaded.votes(s), original.votes(s));
  }
}

TEST(TopologyIo, RoundTripPaperTopology) {
  const net::Topology original = net::make_ring_with_chords(101, 16);
  std::ostringstream out;
  save_topology(out, original);
  std::istringstream in(out.str());
  const net::Topology reloaded = load_topology(in);
  EXPECT_EQ(reloaded.link_count(), 117u);
  EXPECT_EQ(reloaded.total_votes(), 101u);
}

TEST(TopologyIo, MissingFileThrows) {
  EXPECT_THROW(load_topology_file("/nonexistent/quora.topo"), std::runtime_error);
}

TEST(SystemSpecIo, ReliabilityDirectives) {
  std::istringstream in(
      "sites 4\n"
      "ring\n"
      "site_rel default 0.9\n"
      "site_rel 2 0.5\n"
      "link_rel default 0.99\n"
      "link_rel 0 1 0.7\n");
  const SystemSpec spec = load_system(in);
  ASSERT_TRUE(spec.has_reliabilities());
  ASSERT_EQ(spec.site_reliability.size(), 4u);
  EXPECT_DOUBLE_EQ(spec.site_reliability[0], 0.9);
  EXPECT_DOUBLE_EQ(spec.site_reliability[2], 0.5);
  ASSERT_EQ(spec.link_reliability.size(), 4u);
  // Link {0,1} is the first ring link.
  EXPECT_DOUBLE_EQ(spec.link_reliability[0], 0.7);
  EXPECT_DOUBLE_EQ(spec.link_reliability[1], 0.99);
}

TEST(SystemSpecIo, NoRelDirectivesMeansEmptyVectors) {
  std::istringstream in("sites 3\nring\n");
  const SystemSpec spec = load_system(in);
  EXPECT_FALSE(spec.has_reliabilities());
  EXPECT_TRUE(spec.site_reliability.empty());
  EXPECT_TRUE(spec.link_reliability.empty());
}

TEST(SystemSpecIo, LinkRelOnMissingLinkFailsWithItsLine) {
  std::istringstream in(
      "sites 4\n"
      "link 0 1\n"
      "link_rel 2 3 0.5\n");
  try {
    load_system(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(SystemSpecIo, LinkRelEndpointOrderIsIrrelevant) {
  std::istringstream in(
      "sites 3\n"
      "link 0 2\n"
      "link_rel 2 0 0.4\n");
  const SystemSpec spec = load_system(in);
  EXPECT_DOUBLE_EQ(spec.link_reliability[0], 0.4);
}

TEST(SystemSpecIo, RejectsBadReliabilities) {
  const auto bad = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(load_system(in), ParseError) << text;
  };
  bad("sites 3\nsite_rel 0 0.0\n");
  bad("sites 3\nsite_rel 0 1.5\n");
  bad("sites 3\nlink 0 1\nlink_rel 0 1 -0.2\n");
  bad("sites 3\nsite_rel default\n");
}

TEST(SystemSpecIo, SaveSystemRoundTrips) {
  std::istringstream in(
      "sites 4\n"
      "ring\n"
      "vote 1 3\n"
      "site_rel default 0.95\n"
      "site_rel 3 0.5\n"
      "link_rel default 0.9\n"
      "link_rel 1 2 0.8\n");
  const SystemSpec original = load_system(in);
  std::ostringstream out;
  save_system(out, original);
  std::istringstream back(out.str());
  const SystemSpec reloaded = load_system(back);
  EXPECT_EQ(reloaded.site_reliability, original.site_reliability);
  EXPECT_EQ(reloaded.link_reliability, original.link_reliability);
  EXPECT_EQ(reloaded.topology.votes(1), 3u);
}

TEST(TopologyIo, DomainDirectiveLastWins) {
  const net::Topology topo = parse(
      "sites 4\n"
      "ring\n"
      "domain 0 rg0/dc0\n"
      "domain 1 rg0/dc1\n"
      "domain 1 rg1/dc0\n");  // last wins; quora_check flags the overlap
  EXPECT_TRUE(topo.has_domains());
  EXPECT_EQ(topo.domain(0), "rg0/dc0");
  EXPECT_EQ(topo.domain(1), "rg1/dc0");
  EXPECT_EQ(topo.domain(2), "");
}

TEST(TopologyIo, LinkLatDirectivesWithDefault) {
  const net::Topology topo = parse(
      "sites 4\n"
      "ring\n"
      "link_lat default 0.002 0.001\n"
      "link_lat 0 1 0.03 0.01\n");
  EXPECT_TRUE(topo.has_link_latencies());
  const net::LinkId fast = topo.find_link(1, 2);
  const net::LinkId slow = topo.find_link(0, 1);
  ASSERT_LT(fast, topo.link_count());
  ASSERT_LT(slow, topo.link_count());
  EXPECT_DOUBLE_EQ(topo.link_latency(fast).base, 0.002);
  EXPECT_DOUBLE_EQ(topo.link_latency(fast).jitter, 0.001);
  EXPECT_DOUBLE_EQ(topo.link_latency(slow).base, 0.03);
  EXPECT_DOUBLE_EQ(topo.link_latency(slow).jitter, 0.01);
}

TEST(TopologyIo, GeoDirectiveMatchesBuilder) {
  const net::Topology parsed = parse(
      "sites 24\n"
      "geo 3 2 1 4\n");
  const net::Topology built = net::make_geo(net::GeoSpec{});
  ASSERT_EQ(parsed.site_count(), built.site_count());
  ASSERT_EQ(parsed.link_count(), built.link_count());
  for (net::SiteId s = 0; s < built.site_count(); ++s) {
    EXPECT_EQ(parsed.domain(s), built.domain(s)) << "site " << s;
  }
  for (net::LinkId l = 0; l < built.link_count(); ++l) {
    const net::Link& bl = built.link(l);
    const net::LinkId pl = parsed.find_link(bl.a, bl.b);
    ASSERT_LT(pl, parsed.link_count());
    EXPECT_DOUBLE_EQ(parsed.link_latency(pl).base, built.link_latency(l).base);
  }
}

TEST(TopologyIo, DomainAndGeoErrorsCarryLineNumbers) {
  const auto expect_error_at = [](const std::string& text, std::size_t line) {
    try {
      parse(text);
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_error_at("sites 3\ndomain 0\n", 2);              // missing path
  expect_error_at("sites 3\ndomain 9 rg0\n", 2);          // unknown site
  expect_error_at("sites 3\ndomain 0 rg0//dc\n", 2);      // malformed path
  expect_error_at("sites 3\nlink 0 1\nlink_lat 0 1 -1 0\n", 3);
  expect_error_at("sites 3\nlink_lat default 0.1\n", 2);  // missing jitter
  expect_error_at("sites 24\ngeo 3 2 1\n", 2);            // missing tier
  expect_error_at("sites 23\ngeo 3 2 1 4\n", 2);          // product mismatch
  expect_error_at("sites 24\nlink 0 1\ngeo 3 2 1 4\n", 3);  // geo after link
}

TEST(TopologyIo, SaveLoadRoundTripsDomainsAndLatencies) {
  net::Topology original = net::make_geo(net::GeoSpec{});
  original.set_domain(5, "rg0/dc1/special");
  std::ostringstream out;
  save_topology(out, original);
  std::istringstream in(out.str());
  const net::Topology reloaded = load_topology(in);

  ASSERT_EQ(reloaded.site_count(), original.site_count());
  ASSERT_EQ(reloaded.link_count(), original.link_count());
  for (net::SiteId s = 0; s < original.site_count(); ++s) {
    EXPECT_EQ(reloaded.domain(s), original.domain(s)) << "site " << s;
  }
  for (net::LinkId l = 0; l < original.link_count(); ++l) {
    const net::Link& ol = original.link(l);
    const net::LinkId rl = reloaded.find_link(ol.a, ol.b);
    ASSERT_LT(rl, reloaded.link_count());
    EXPECT_DOUBLE_EQ(reloaded.link_latency(rl).base,
                     original.link_latency(l).base);
    EXPECT_DOUBLE_EQ(reloaded.link_latency(rl).jitter,
                     original.link_latency(l).jitter);
  }
  EXPECT_EQ(reloaded.regions(), original.regions());
}

TEST(CliArgs, ParseUintTakesOnlyWholeUnsignedTokensInRange) {
  EXPECT_EQ(parse_uint("0", 0, 64), 0u);
  EXPECT_EQ(parse_uint("64", 0, 64), 64u);
  EXPECT_EQ(parse_uint("18446744073709551615", 0, ~std::uint64_t{0}),
            ~std::uint64_t{0});
  EXPECT_EQ(parse_uint("0x10", 0, 100, 0), 16u);
  // A sign, whitespace, a trailing character, a base prefix in base 10,
  // out of range, or past 2^64-1.
  for (const char* bad : {"", "-1", "+5", " 5", "5x", "5 ", "0x10", "65",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse_uint(bad, 0, 64), std::invalid_argument) << bad;
  }
  EXPECT_THROW(parse_uint("0", 1, 256), std::invalid_argument);
}

TEST(CliArgs, ParseDoubleTakesOnlyWholeFiniteTokensInRange) {
  EXPECT_EQ(parse_double("0", 0.0, 1.0), 0.0);
  EXPECT_EQ(parse_double("1", 0.0, 1.0), 1.0);
  EXPECT_EQ(parse_double("0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(parse_double("-2.5", -3.0, 0.0), -2.5);
  EXPECT_EQ(parse_double("1e3", 0.0, 1e9), 1000.0);
  // Whitespace, a trailing character, non-finite spellings, overflow,
  // underflow, or out of range.
  for (const char* bad : {"", " 0.5", "0.5 ", "0.5x", "abc", "nan", "inf",
                          "-inf", "1e999", "1e-999", "-0.1", "1.5"}) {
    EXPECT_THROW(parse_double(bad, 0.0, 1.0), std::invalid_argument) << bad;
  }
  try {
    parse_double("5x", 0.0, 1e9);
    FAIL() << "accepted 5x";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "expects a number in [0, 1e+09], got \"5x\"");
  }
}

} // namespace
} // namespace quora::io
