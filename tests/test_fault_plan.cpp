// Tests for the fault-injection engine's offline half: the .chaos DSL
// parser, the fluent FaultPlan builder, the FaultInjector's validation
// and determinism contract, the EventLog, and the chaos static audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/chaos_audit.hpp"
#include "fault/event_log.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "io/config_audit.hpp"
#include "net/builders.hpp"

namespace quora::fault {
namespace {

constexpr const char* kFullPlan = R"(# every directive once
name kitchen-sink
seed 42
horizon 300
quorum 8 18

sites 25
ring
chords 4

at 10 site 3 down
at 20 site 3 up
at 30 link 7 down
at 40 link 7 up
at 50 crash 5 for 15
at 60 partition 0-12 | 13-24
at 90 reassign 11 15 from 4
at 120 heal-links
at 150 heal
at 160 crash-on-commit any for 20
at 170 crash-on-commit 9
flap link 2 from 180 until 200 period 4
window 10 100 drop 0.25
window 10 100 delay 0.5 0.01
window 10 100 duplicate 0.1 link 3
)";

TEST(ChaosParser, ParsesEveryDirective) {
  std::istringstream in(kFullPlan);
  const ChaosSpec spec = load_chaos(in);
  EXPECT_EQ(spec.name, "kitchen-sink");
  EXPECT_TRUE(spec.has_seed);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.horizon, 300.0);
  ASSERT_TRUE(spec.has_quorum);
  EXPECT_EQ(spec.quorum.q_r, 8u);
  EXPECT_EQ(spec.quorum.q_w, 18u);
  ASSERT_TRUE(spec.system.has_value());
  EXPECT_EQ(spec.system->topology.site_count(), 25u);
  EXPECT_EQ(spec.system->topology.link_count(), 29u);  // ring + 4 chords
  EXPECT_EQ(spec.plan.rules().size(), 3u);

  // crash expands to down+up, flap to a toggle train ending in link-up.
  std::size_t partitions = 0;
  std::size_t reassigns = 0;
  std::size_t crash_arms = 0;
  for (const Action& a : spec.plan.actions()) {
    partitions += a.kind == Action::Kind::kPartition;
    reassigns += a.kind == Action::Kind::kReassign;
    crash_arms += a.kind == Action::Kind::kArmCrashOnCommit;
  }
  EXPECT_EQ(partitions, 1u);
  EXPECT_EQ(reassigns, 1u);
  EXPECT_EQ(crash_arms, 2u);
}

TEST(ChaosParser, PartitionGroupsExpandRangesAndCommas) {
  std::istringstream in("sites 10\nring\nat 5 partition 0-2,7 | 3-6,8,9\n");
  const ChaosSpec spec = load_chaos(in);
  const Action* partition = nullptr;
  for (const Action& a : spec.plan.actions()) {
    if (a.kind == Action::Kind::kPartition) partition = &a;
  }
  ASSERT_NE(partition, nullptr);
  ASSERT_EQ(partition->groups.size(), 2u);
  EXPECT_EQ(partition->groups[0], (std::vector<net::SiteId>{0, 1, 2, 7}));
  EXPECT_EQ(partition->groups[1], (std::vector<net::SiteId>{3, 4, 5, 6, 8, 9}));
}

TEST(ChaosParser, FlapAlwaysHandsTheLinkBack) {
  std::istringstream in("sites 5\nring\nflap link 1 from 0 until 10 period 3\n");
  const ChaosSpec spec = load_chaos(in);
  const auto& actions = spec.plan.actions();
  ASSERT_FALSE(actions.empty());
  // Toggles at 0 (down), 3 (up), 6 (down), 9 (up), then the guaranteed
  // link-up at the window end.
  EXPECT_EQ(actions.size(), 5u);
  EXPECT_EQ(actions.back().kind, Action::Kind::kLinkUp);
  EXPECT_DOUBLE_EQ(actions.back().time, 10.0);
}

TEST(ChaosParser, RejectsMalformedLinesWithLineNumbers) {
  const char* bad[] = {
      "at ten site 0 down\n",                 // non-numeric time
      "at 5 site 0 sideways\n",               // bad state
      "at 5 partition 0-4\n",                 // one group only
      "at 5 reassign 3 from 0\n",             // missing q_w
      "window 5 10 teleport 0.5\n",           // unknown rule kind
      "flap link 0 from 10 until 5 period 1\n",  // inverted window
      "at 5 site 0 down extra\n",             // trailing junk
      "at 1 site -1 down\n",                  // sign on a site id
      "at 5 crash-on-commit 5x\n",            // trailing junk in the target
      "at 5 crash-on-commit any for 5 junk\n",
      "at 5 partition 0-1x | 2\n",            // junk in a range bound
      "flap link 0 from 0 until 10 period 0\n",
      "flap link 0 from 0 until 1000000 period 0.000001\n",  // 1e12 toggles
      "flap link 0 from 1 until 2 period 0.00000000000000001\n",  // 1 + p == 1
  };
  for (const char* text : bad) {
    std::istringstream in(std::string("sites 5\nring\n") + text);
    try {
      load_chaos(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.line(), 3u) << text << e.what();
    }
  }
  // A system error after a chaos directive names the file's own line.
  std::istringstream in("horizon 5\nsites 5\nring\nlink 0 9\n");
  try {
    load_chaos(in);
    ADD_FAILURE() << "accepted a link to site 9 of 5";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 4u) << e.what();
  }
}

TEST(ChaosParser, SystemLinesPassThroughToLoadSystem) {
  std::istringstream in(
      "sites 4\nlink 0 1\nlink 1 2\nlink 2 3\nvote 2 3\nat 1 heal\n");
  const ChaosSpec spec = load_chaos(in);
  EXPECT_EQ(spec.system->topology.votes(2), 3u);
  EXPECT_EQ(spec.system->topology.link_count(), 3u);
}

TEST(ChaosRender, EveryActionKindRoundTripsThroughTheParser) {
  // One action of every kind load_chaos reads, with odd doubles.
  std::istringstream in(R"(sites 8
ring
at 1 site 3 down
at 2 site 3 up
at 3 link 5 down
at 4 link 5 up
at 5 partition 0-2,6 | 3-5 | 7
at 6 heal
at 7 heal-links
at 8 reassign 3 6 from 2
at 9 crash-on-commit any
at 10 crash-on-commit 4 for 0.125
at 11 domain rg0 down
at 12 domain rg0/dc1 up
at 13 oneway 1 2 down
at 14 oneway 2 1 up
at 15 alpha 0.2
at 16 reliability 0.85
at 17 rho 0.03125
at 18.5 access 3 read
at 19 access 0 write
at 1e-3 rho 1e-9
)");
  const std::vector<Action> actions = load_chaos(in).plan.actions();
  std::vector<bool> kinds(17, false);
  for (const Action& a : actions) kinds[static_cast<std::size_t>(a.kind)] = true;
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), true), 17);

  for (const Action& a : actions) {
    char time[32];
    const auto res = std::to_chars(time, time + sizeof time, a.time);
    const std::string line =
        "at " + std::string(time, res.ptr) + " " + render_action(a);
    SCOPED_TRACE(line);
    std::istringstream reread("sites 8\nring\n" + line + "\n");
    const std::vector<Action> back = load_chaos(reread).plan.actions();
    ASSERT_EQ(back.size(), 1u);
    const Action& b = back.front();
    EXPECT_EQ(b.time, a.time);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.site, a.site);
    EXPECT_EQ(b.site_b, a.site_b);
    EXPECT_EQ(b.link, a.link);
    EXPECT_EQ(b.next.q_r, a.next.q_r);
    EXPECT_EQ(b.next.q_w, a.next.q_w);
    EXPECT_EQ(b.duration, a.duration);
    EXPECT_EQ(b.groups, a.groups);
    EXPECT_EQ(b.domain, a.domain);
    EXPECT_EQ(b.value, a.value);
    EXPECT_EQ(b.is_read, a.is_read);
  }
}

TEST(FaultPlanBuilder, MatchesParsedEquivalent) {
  FaultPlan built;
  built.partition(60.0, {{0, 1, 2}, {3, 4}})
      .reassign(90.0, 0, quorum::QuorumSpec{3, 3})
      .heal(150.0)
      .drop(10.0, 100.0, 0.25);
  std::istringstream in(
      "sites 5\nring\nat 60 partition 0-2 | 3-4\n"
      "at 90 reassign 3 3 from 0\nat 150 heal\nwindow 10 100 drop 0.25\n");
  const ChaosSpec parsed = load_chaos(in);
  ASSERT_EQ(built.actions().size(), parsed.plan.actions().size());
  for (std::size_t i = 0; i < built.actions().size(); ++i) {
    EXPECT_EQ(built.actions()[i].kind, parsed.plan.actions()[i].kind) << i;
    EXPECT_DOUBLE_EQ(built.actions()[i].time, parsed.plan.actions()[i].time);
  }
  ASSERT_EQ(parsed.plan.rules().size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.plan.rules()[0].probability, 0.25);
}

TEST(FaultPlanBuilder, FlapRejectsWindowsItCannotExpand) {
  FaultPlan p;
  EXPECT_THROW(p.flap_link(0, 0.0, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(p.flap_link(0, 0.0, 10.0, -1.0), std::invalid_argument);
  EXPECT_THROW(p.flap_link(0, 10.0, 5.0, 1.0), std::invalid_argument);
  EXPECT_THROW(p.flap_link(0, 0.0, 1e6, 1e-6), std::invalid_argument);
  EXPECT_THROW(p.flap_link(0, 1.0, 2.0, 1e-17), std::invalid_argument);
  EXPECT_TRUE(p.empty());  // a rejected flap adds nothing
  p.flap_link(0, 0.0, static_cast<double>(kMaxFlapToggles), 1.0);
  EXPECT_EQ(p.actions().size(), kMaxFlapToggles + 1);  // + the final link-up
}

TEST(FaultInjector, ValidatesThePlan) {
  {
    FaultPlan p;
    p.site_down(-1.0, 0);
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.drop(0.0, 10.0, 1.5);
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.drop(10.0, 5.0, 0.5);
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.partition(5.0, {{0, 1, 2}});
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    // duration == 0 is the defined crash-with-immediate-restart; only
    // negative or non-finite down-times are rejected.
    FaultPlan p;
    p.arm_crash_on_commit(5.0, kAnySite, 0.0);
    EXPECT_NO_THROW(FaultInjector(p, 1));
  }
  {
    FaultPlan p;
    p.arm_crash_on_commit(5.0, kAnySite, -1.0);
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
}

TEST(FaultInjector, TimelineIsStablySortedByTime) {
  FaultPlan p;
  p.heal(50.0).site_down(10.0, 1).heal_links(50.0).site_up(20.0, 1);
  const FaultInjector injector(p, 1);
  const auto& timeline = injector.timeline();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].kind, Action::Kind::kSiteDown);
  EXPECT_EQ(timeline[1].kind, Action::Kind::kSiteUp);
  // Equal times keep plan order: heal before heal-links.
  EXPECT_EQ(timeline[2].kind, Action::Kind::kHeal);
  EXPECT_EQ(timeline[3].kind, Action::Kind::kHealLinks);
}

TEST(FaultInjector, SameSeedSameQuerySequenceIsDeterministic) {
  FaultPlan p;
  p.drop(0.0, 100.0, 0.3).delay(0.0, 100.0, 0.4, 0.02).duplicate(0.0, 100.0, 0.2);
  FaultInjector a(p, 99);
  FaultInjector b(p, 99);
  for (int i = 0; i < 500; ++i) {
    const net::LinkId link = static_cast<net::LinkId>(i % 7);
    const double t = 0.2 * i;
    const MessageFault fa = a.on_send(link, t, 0.005);
    const MessageFault fb = b.on_send(link, t, 0.005);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    EXPECT_DOUBLE_EQ(fa.extra_delay, fb.extra_delay);
    EXPECT_DOUBLE_EQ(fa.dup_extra, fb.dup_extra);
  }
}

TEST(FaultInjector, RulesApplyOnlyInsideTheirWindowAndLink) {
  FaultPlan p;
  p.drop(10.0, 20.0, 1.0, 3);  // certain drop, link 3 only
  FaultInjector injector(p, 7);
  EXPECT_FALSE(injector.on_send(3, 5.0, 0.005).drop);    // before the window
  EXPECT_TRUE(injector.on_send(3, 15.0, 0.005).drop);    // inside
  EXPECT_FALSE(injector.on_send(2, 15.0, 0.005).drop);   // other link
  EXPECT_FALSE(injector.on_send(3, 20.0, 0.005).drop);   // half-open end
}

TEST(FaultInjector, DelayAndDuplicateProducePositiveExtras) {
  FaultPlan p;
  p.delay(0.0, 10.0, 1.0, 0.05).duplicate(0.0, 10.0, 1.0);
  FaultInjector injector(p, 11);
  const MessageFault f = injector.on_send(0, 1.0, 0.005);
  EXPECT_GT(f.extra_delay, 0.0);
  ASSERT_TRUE(f.duplicate);
  EXPECT_GT(f.dup_extra, 0.0);
}

TEST(FaultInjector, CrashOnCommitTriggersAreOneShotAndFiltered) {
  FaultPlan p;
  FaultInjector injector(p, 1);
  injector.arm_crash_on_commit(4, 12.0);
  injector.arm_crash_on_commit(kAnySite, 7.0);
  // Site 3 matches only the wildcard trigger.
  const auto any = injector.take_crash_on_commit(3);
  ASSERT_TRUE(any.has_value());
  EXPECT_DOUBLE_EQ(*any, 7.0);
  // Site 4's dedicated trigger is still armed; a second take finds nothing.
  const auto dedicated = injector.take_crash_on_commit(4);
  ASSERT_TRUE(dedicated.has_value());
  EXPECT_DOUBLE_EQ(*dedicated, 12.0);
  EXPECT_FALSE(injector.take_crash_on_commit(4).has_value());
  EXPECT_EQ(injector.armed_crash_count(), 0u);
}

TEST(EventLog, DeterministicBytesAndHash) {
  EventLog a;
  EventLog b;
  a.record(1.0 / 3.0, "decide id=1");
  a.record(2.5, "fault heal");
  b.record(1.0 / 3.0, "decide id=1");
  b.record(2.5, "fault heal");
  EXPECT_EQ(a.lines(), b.lines());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.lines()[0], "t=0.333333 decide id=1");
  EXPECT_TRUE(a.contains("fault heal"));
  EXPECT_FALSE(a.contains("partition"));
  b.record(3.0, "one more");
  EXPECT_NE(a.hash(), b.hash());
}

TEST(ChaosAudit, AcceptsTheShippedStylePlan) {
  std::istringstream in(kFullPlan);
  const io::AuditReport report = audit_chaos(in);
  EXPECT_TRUE(report.ok()) << "unexpected findings";
}

TEST(ChaosAudit, FlagsScheduleProblems) {
  {
    std::istringstream in("sites 5\nring\nquorum 3 3\nwindow 80 40 drop 0.5\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(io::AuditCode::kChaosBadSchedule));
  }
  {
    // Overlapping partition groups.
    std::istringstream in(
        "horizon 100\nsites 5\nring\nquorum 3 3\nat 10 partition 0-2 | 2-4\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.has(io::AuditCode::kChaosBadSchedule));
  }
  {
    // Missing horizon is an error: the soak harness needs a duration.
    std::istringstream in("sites 5\nring\nquorum 3 3\nat 10 heal\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.has(io::AuditCode::kChaosBadSchedule));
  }
  {
    // Actions beyond the horizon only warn.
    std::istringstream in("horizon 50\nsites 5\nring\nquorum 3 3\nat 60 heal\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.has(io::AuditCode::kChaosBadSchedule));
  }
}

TEST(ChaosAudit, FlagsUnknownTargets) {
  {
    std::istringstream in("horizon 100\nsites 5\nring\nquorum 3 3\nat 10 site 9 down\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(io::AuditCode::kChaosUnknownTarget));
  }
  {
    std::istringstream in(
        "horizon 100\nsites 5\nring\nquorum 3 3\nwindow 0 10 drop 0.5 link 99\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.has(io::AuditCode::kChaosUnknownTarget));
  }
}

TEST(ChaosAudit, ReusesQuorumCodesForAssignments) {
  {
    // Initial assignment lacks read-write intersection: 2+2 <= 5.
    std::istringstream in("horizon 100\nsites 5\nring\nquorum 2 2\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(io::AuditCode::kQuorumIntersection));
  }
  {
    // A reassign target is audited like the initial assignment.
    std::istringstream in(
        "horizon 100\nsites 5\nring\nquorum 3 3\nat 10 reassign 1 2 from 0\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_FALSE(report.ok());
  }
  {
    // Without a quorum line the runners default to a strict majority,
    // which a single vote does not have; declared, (1, 1) is fine.
    std::istringstream in("horizon 100\nsites 1\n");
    EXPECT_TRUE(audit_chaos(in).has(io::AuditCode::kQuorumRange));
    std::istringstream declared("horizon 100\nsites 1\nquorum 1 1\n");
    EXPECT_TRUE(audit_chaos(declared).ok());
  }
}

TEST(ChaosAudit, ParseFailureIsAFinding) {
  std::istringstream in("sites 5\nring\nat nonsense\n");
  const io::AuditReport report = audit_chaos(in);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(io::AuditCode::kParseError));
}

TEST(ChaosParser, ParsesDomainOnewayCorrelateAndBetween) {
  std::istringstream in(
      "name geo\nseed 1\nhorizon 200\n"
      "sites 24\ngeo 3 2 1 4\n"
      "at 60 domain rg0 down\n"
      "at 120 domain rg0 up\n"
      "at 50 oneway 0 8 down\n"
      "at 90 oneway 0 8 up\n"
      "correlate rack 0.8 for 30\n"
      "correlate region 0.1 for 5\n"
      "window 40 160 drop 0.3 between rg0 rg1\n"
      "window 40 160 delay 0.5 0.08 between rg0 *\n");
  const ChaosSpec spec = load_chaos(in);

  std::size_t domain_down = 0, domain_up = 0, oneway_down = 0, oneway_up = 0;
  for (const Action& a : spec.plan.actions()) {
    switch (a.kind) {
      case Action::Kind::kDomainDown:
        ++domain_down;
        EXPECT_EQ(a.domain, "rg0");
        break;
      case Action::Kind::kDomainUp: ++domain_up; break;
      case Action::Kind::kOneWayDown:
        ++oneway_down;
        EXPECT_EQ(a.site, 0u);
        EXPECT_EQ(a.site_b, 8u);
        break;
      case Action::Kind::kOneWayUp: ++oneway_up; break;
      default: break;
    }
  }
  EXPECT_EQ(domain_down, 1u);
  EXPECT_EQ(domain_up, 1u);
  EXPECT_EQ(oneway_down, 1u);
  EXPECT_EQ(oneway_up, 1u);

  ASSERT_EQ(spec.plan.correlations().size(), 2u);
  EXPECT_EQ(spec.plan.correlations()[0].level, 3);  // rack
  EXPECT_DOUBLE_EQ(spec.plan.correlations()[0].probability, 0.8);
  EXPECT_DOUBLE_EQ(spec.plan.correlations()[0].down_for, 30.0);
  EXPECT_EQ(spec.plan.correlations()[1].level, 1);  // region

  ASSERT_EQ(spec.plan.rules().size(), 2u);
  EXPECT_EQ(spec.plan.rules()[0].domain_a, "rg0");
  EXPECT_EQ(spec.plan.rules()[0].domain_b, "rg1");
  EXPECT_EQ(spec.plan.rules()[1].domain_b, "*");
}

TEST(ChaosParser, RejectsMalformedDomainDirectives) {
  const char* bad[] = {
      "at 5 domain down\n",                    // missing path
      "at 5 domain rg0 sideways\n",            // bad state
      "at 5 oneway 0 down\n",                  // missing to-site
      "correlate building 0.5 for 10\n",       // unknown level
      "correlate rack 0.5\n",                  // missing 'for D'
      "window 5 10 drop 0.5 between * rg1\n",  // wildcard first
      "window 5 10 drop 0.5 between rg0\n",    // one domain only
  };
  for (const char* text : bad) {
    std::istringstream in(std::string("sites 24\ngeo 3 2 1 4\n") + text);
    EXPECT_THROW(load_chaos(in), io::ParseError) << text;
  }
}

TEST(FaultPlanBuilder, DomainFluentMethodsMatchParsed) {
  FaultPlan built;
  built.domain_down(60.0, "rg0")
      .domain_up(120.0, "rg0")
      .oneway_down(50.0, 0, 8)
      .oneway_up(90.0, 0, 8)
      .correlate(3, 0.8, 30.0)
      .drop_between(40.0, 160.0, 0.3, "rg0", "rg1");
  std::istringstream in(
      "sites 24\ngeo 3 2 1 4\n"
      "at 60 domain rg0 down\nat 120 domain rg0 up\n"
      "at 50 oneway 0 8 down\nat 90 oneway 0 8 up\n"
      "correlate rack 0.8 for 30\n"
      "window 40 160 drop 0.3 between rg0 rg1\n");
  const ChaosSpec parsed = load_chaos(in);
  ASSERT_EQ(built.actions().size(), parsed.plan.actions().size());
  for (std::size_t i = 0; i < built.actions().size(); ++i) {
    EXPECT_EQ(built.actions()[i].kind, parsed.plan.actions()[i].kind) << i;
  }
  ASSERT_EQ(parsed.plan.correlations().size(), 1u);
  ASSERT_EQ(parsed.plan.rules().size(), 1u);
  EXPECT_EQ(parsed.plan.rules()[0].domain_a, built.rules()[0].domain_a);
}

TEST(FaultInjector, ValidatesDomainActionsAndCorrelations) {
  {
    FaultPlan p;
    p.domain_down(5.0, "");  // empty path is meaningless
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.oneway_down(5.0, 3, 3);  // degenerate self-cut
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.correlate(0, 0.5, 10.0);  // level below region
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.correlate(2, 1.5, 10.0);  // probability outside [0, 1]
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.correlate(2, 0.5, 0.0);  // cascade victims need a positive down-time
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.drop_between(5.0, 10.0, 0.5, "*", "rg1");  // wildcard first domain
    EXPECT_THROW(FaultInjector(p, 1), std::invalid_argument);
  }
  {
    FaultPlan p;  // a legal geo plan passes
    p.domain_down(5.0, "rg0").correlate(1, 0.2, 10.0);
    p.drop_between(5.0, 10.0, 0.5, "rg0", "*");
    EXPECT_NO_THROW(FaultInjector(p, 1));
  }
  {
    FaultPlan p;  // from == until is the legal inert window, also between
    p.drop_between(5.0, 5.0, 1.0, "rg0", "rg1");
    EXPECT_NO_THROW(FaultInjector(p, 1));
  }
}

TEST(FaultInjector, InertWindowNeverMatchesNorDraws) {
  FaultPlan inert_then_live;
  inert_then_live.drop(5.0, 5.0, 1.0);  // would drop everything if live
  inert_then_live.drop(0.0, 100.0, 0.5);
  FaultPlan live_only;
  live_only.drop(0.0, 100.0, 0.5);

  FaultInjector a(inert_then_live, 7);
  FaultInjector b(live_only, 7);
  // The inert window matches nothing (not even departures at exactly
  // t=5.0) and consumes no randomness: both injectors replay the same
  // fate sequence draw for draw.
  for (int i = 0; i < 200; ++i) {
    const double t = 0.05 * i;  // crosses t=5.0 exactly at i=100
    const MessageFault fa = a.on_send(0, t, 0.01);
    const MessageFault fb = b.on_send(0, t, 0.01);
    EXPECT_EQ(fa.drop, fb.drop) << "t=" << t;
  }
}

TEST(FaultInjector, DomainScopedRulesMatchOnlyCrossDomainLinks) {
  const net::Topology topo = net::make_geo(net::GeoSpec{});
  FaultPlan p;
  p.drop_between(0.0, 100.0, 1.0, "rg0", "rg1");
  FaultInjector injector(p, 3);
  // Without a topology a domain-scoped rule matches nothing.
  const net::LinkId trunk01 = topo.find_link(0, 8);   // rg0 <-> rg1
  const net::LinkId trunk02 = topo.find_link(0, 16);  // rg0 <-> rg2
  const net::LinkId local = topo.find_link(0, 1);     // inside rg0
  ASSERT_LT(trunk01, topo.link_count());
  EXPECT_FALSE(injector.on_send(trunk01, 1.0, 0.005).drop);

  injector.set_topology(&topo);
  EXPECT_TRUE(injector.on_send(trunk01, 1.0, 0.005).drop);
  EXPECT_FALSE(injector.on_send(trunk02, 1.0, 0.005).drop);
  EXPECT_FALSE(injector.on_send(local, 1.0, 0.005).drop);
  EXPECT_FALSE(injector.on_send(trunk01, 100.0, 0.005).drop);  // window end

  // The "*" form matches every link leaving the domain, either boundary.
  FaultPlan q;
  q.drop_between(0.0, 100.0, 1.0, "rg1", "*");
  FaultInjector wild(q, 3);
  wild.set_topology(&topo);
  EXPECT_TRUE(wild.on_send(trunk01, 1.0, 0.005).drop);
  EXPECT_TRUE(wild.on_send(topo.find_link(8, 16), 1.0, 0.005).drop);
  EXPECT_FALSE(wild.on_send(trunk02, 1.0, 0.005).drop);
  EXPECT_FALSE(wild.on_send(topo.find_link(8, 9), 1.0, 0.005).drop);
}

TEST(FaultInjector, CorrelatedFailuresAreDeterministicAndScoped) {
  const net::Topology topo = net::make_geo(net::GeoSpec{});
  FaultPlan p;
  p.correlate(3, 1.0, 30.0);  // every rack-mate fails, always

  FaultInjector injector(p, 42);
  EXPECT_TRUE(injector.has_correlations());
  // Without a topology the cascade never fires.
  EXPECT_TRUE(injector.correlated_failures(0).empty());

  injector.set_topology(&topo);
  const auto fired = injector.correlated_failures(0);
  // Site 0's rack is rg0/dc0/rk0 = sites 0..3; the failed site itself is
  // never returned.
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].first, 1u);
  EXPECT_EQ(fired[1].first, 2u);
  EXPECT_EQ(fired[2].first, 3u);
  for (const auto& [site, down_for] : fired) {
    EXPECT_DOUBLE_EQ(down_for, 30.0) << "site " << site;
  }

  // Same seed, same query sequence => identical cascades.
  FaultInjector replay(p, 42);
  replay.set_topology(&topo);
  EXPECT_EQ(replay.correlated_failures(0), fired);

  // p = 0 consumes draws but fires nothing.
  FaultPlan quiet;
  quiet.correlate(3, 0.0, 30.0);
  FaultInjector never(quiet, 42);
  never.set_topology(&topo);
  EXPECT_TRUE(never.correlated_failures(0).empty());
}

TEST(FaultInjector, CorrelatedFailuresDedupAcrossRules) {
  const net::Topology topo = net::make_geo(net::GeoSpec{});
  FaultPlan p;
  p.correlate(3, 1.0, 30.0);  // rack rule first: its down-time wins
  p.correlate(1, 1.0, 5.0);   // region rule also matches the rack-mates
  FaultInjector injector(p, 9);
  injector.set_topology(&topo);
  const auto fired = injector.correlated_failures(0);
  // Site 0's region is rg0 = sites 0..7; rack-mates 1..3 keep the first
  // rule's 30s, the remaining region-mates 4..7 get the second rule's 5s.
  ASSERT_EQ(fired.size(), 7u);
  for (const auto& [site, down_for] : fired) {
    EXPECT_DOUBLE_EQ(down_for, site <= 3 ? 30.0 : 5.0) << "site " << site;
  }
}

TEST(ChaosAudit, FlagsDomainProblems) {
  {
    // Outage targets a domain no site belongs to.
    std::istringstream in(
        "horizon 100\nsites 24\ngeo 3 2 1 4\nat 10 domain rg9 down\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(io::AuditCode::kDomainConfig));
  }
  {
    // Domain actions on a topology with no annotations at all.
    std::istringstream in(
        "horizon 100\nsites 5\nring\nquorum 3 3\nat 10 domain rg0 down\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.has(io::AuditCode::kDomainConfig));
  }
  {
    // Correlation rules without any domain annotations can never fire.
    std::istringstream in(
        "horizon 100\nsites 5\nring\nquorum 3 3\ncorrelate rack 0.5 for 10\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.has(io::AuditCode::kDomainConfig));
  }
  {
    // A one-way cut on a pair with no link.
    std::istringstream in(
        "horizon 100\nsites 5\nring\nquorum 3 3\nat 10 oneway 0 2 down\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.has(io::AuditCode::kChaosUnknownTarget));
  }
  {
    // The healthy geo shape passes clean.
    std::istringstream in(
        "horizon 100\nsites 24\ngeo 3 2 1 4\n"
        "at 10 domain rg0 down\nat 50 domain rg0 up\n"
        "at 20 oneway 0 8 down\ncorrelate rack 0.5 for 10\n"
        "window 5 50 drop 0.3 between rg0 rg1\n");
    const io::AuditReport report = audit_chaos(in);
    EXPECT_TRUE(report.ok()) << "unexpected findings";
  }
}

} // namespace
} // namespace quora::fault
