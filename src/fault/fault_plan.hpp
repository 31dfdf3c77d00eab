#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "io/directives.hpp"
#include "io/topology_io.hpp"
#include "net/types.hpp"
#include "quorum/quorum_spec.hpp"

namespace quora::fault {

/// Wildcards for rule and trigger targets.
inline constexpr net::SiteId kAnySite = 0xFFFFFFFFu;
inline constexpr net::LinkId kAllLinks = 0xFFFFFFFFu;

/// Most toggles one `flap_link` may add. Shipped plans use at most 24; the
/// cap keeps a tiny period from expanding into billions of actions.
inline constexpr std::size_t kMaxFlapToggles = 100'000;

/// One scheduled action on a plan's timeline, applied by the cluster's
/// event loop exactly at `time` (simulated clock). Actions are the
/// *deterministic* half of a plan; `MessageRule` is the stochastic half.
struct Action {
  enum class Kind : std::uint8_t {
    kSiteDown,
    kSiteUp,
    kLinkDown,
    kLinkUp,
    kPartition,        // cut every link whose endpoints fall in different groups
    kHeal,             // bring every site and link back up
    kHealLinks,        // bring every link back up, leave site states alone
    kReassign,         // attempt a QR install (§2.2) from `site`
    kArmCrashOnCommit, // crash the next matching coordinator entering phase 2
    kDomainDown,       // crash every site inside failure domain `domain`
    kDomainUp,         // recover every site inside failure domain `domain`
    kOneWayDown,       // cut direction site -> site_b of link {site, site_b}
    kOneWayUp,         // restore that direction
    kSetAlpha,         // regime shift: read fraction becomes `value`
    kSetReliability,   // regime shift: component reliability becomes `value`
    kSetRho,           // regime shift: access/failure time-scale ratio
    kAccess,           // submit a scripted access (read/write) at `site` —
                       // deterministic, no RNG; counterexample replays and
                       // conformance scripts use this instead of Poisson
                       // arrivals
  };
  double time = 0.0;
  Kind kind = Kind::kSiteDown;
  net::SiteId site = 0;        // kSite*, kReassign origin, kArmCrashOnCommit
                               // filter, kOneWay* from-endpoint, kAccess origin
  net::SiteId site_b = 0;      // kOneWay* to-endpoint
  net::LinkId link = 0;        // kLink*
  quorum::QuorumSpec next{};   // kReassign: the assignment to install
  double duration = 0.0;       // kArmCrashOnCommit: down-time after the crash
                               // (0 = crash with immediate restart)
  std::vector<std::vector<net::SiteId>> groups;  // kPartition
  std::string domain;          // kDomain*: a domain path prefix, e.g. "rg0"
  double value = 0.0;          // kSet*: the new parameter value
  bool is_read = false;        // kAccess: read (true) or write (false)
};

/// A stochastic message-fault window. While the simulated clock is inside
/// the half-open interval [from, until) — a departure at exactly `from`
/// matches, one at exactly `until` does not, and `from == until` is an
/// inert window that matches nothing — every message departing on a
/// matching link runs the rule: drop with probability p, add exponential
/// extra latency, or deliver a duplicate. All randomness comes from the
/// injector's own RNG stream, so the cluster's draw sequence is untouched
/// and every run with the same seed replays bit-identically.
///
/// Link matching: `link` selects one link (or kAllLinks). Alternatively a
/// rule may be *domain-scoped* (gray failure confined to a domain
/// boundary): with `domain_a` set, the rule matches links with one
/// endpoint inside domain_a and the other inside domain_b — or, when
/// domain_b is "*", anywhere outside domain_a. Domain-scoped rules need
/// the injector to know the topology (`FaultInjector::set_topology`,
/// called automatically by `Cluster::attach_injector`); without it they
/// match nothing.
struct MessageRule {
  enum class Kind : std::uint8_t { kDrop, kDelay, kDuplicate };
  Kind kind = Kind::kDrop;
  double from = 0.0;
  double until = 0.0;
  double probability = 0.0;
  double mean_extra = 0.0;     // kDelay: mean of the exponential extra latency
  net::LinkId link = kAllLinks;
  std::string domain_a;        // empty = link-scoped rule
  std::string domain_b;        // second boundary, or "*" = outside domain_a
};

/// Correlated-failure model: whenever a site goes down (scripted action,
/// background failure, or crash-on-commit trigger), each *other* currently
/// up site sharing its failure domain at `level` also fails with
/// probability `probability`, staying down for `down_for`. Cascade victims
/// do not trigger further cascades (one level of contagion), and every
/// Bernoulli draw comes from the injector's RNG stream, keeping the
/// cluster's transcript byte-stable for a given seed.
struct CorrelationRule {
  /// Domain-path depth that must be shared: 1 = region, 2 = datacenter,
  /// 3 = rack in the canonical "rg/dc/rk" scheme.
  int level = 3;
  double probability = 0.0;
  double down_for = 10.0;
};

/// A composable fault scenario: a timeline of scheduled actions plus
/// stochastic message-fault windows. Build in C++ through the fluent
/// methods, or parse from a `.chaos` file via `load_chaos`.
class FaultPlan {
public:
  FaultPlan& site_down(double t, net::SiteId s);
  FaultPlan& site_up(double t, net::SiteId s);
  FaultPlan& link_down(double t, net::LinkId l);
  FaultPlan& link_up(double t, net::LinkId l);
  /// Sugar: site down at `t`, back up at `t + down_for`.
  FaultPlan& crash(double t, net::SiteId s, double down_for);
  FaultPlan& partition(double t, std::vector<std::vector<net::SiteId>> groups);
  FaultPlan& heal(double t);
  FaultPlan& heal_links(double t);
  /// Toggle a link down/up every `period` from `from` until `until`;
  /// guarantees the link ends up in the `up` state at `until`. Throws
  /// std::invalid_argument, adding nothing, unless period > 0, until >
  /// from, and the window needs at most kMaxFlapToggles toggles, each of
  /// which advances the clock.
  FaultPlan& flap_link(net::LinkId l, double from, double until, double period);
  FaultPlan& reassign(double t, net::SiteId origin, quorum::QuorumSpec next);
  /// Arm a one-shot trigger: the next coordinator matching `site` (or any,
  /// with kAnySite) that floods a commit crashes immediately afterwards —
  /// the canonical partial-write scenario — and stays down for `down_for`
  /// (`0.0` = crash with immediate restart: volatile coordinator state is
  /// lost but the site is back up at the same instant).
  FaultPlan& arm_crash_on_commit(double t, net::SiteId site = kAnySite,
                                 double down_for = 10.0);
  /// Crash / recover every site inside domain path prefix `domain`.
  FaultPlan& domain_down(double t, std::string domain);
  FaultPlan& domain_up(double t, std::string domain);
  /// Cut / restore only the a -> b direction of link {a, b} (asymmetric
  /// partial partition; the reverse direction keeps delivering).
  FaultPlan& oneway_down(double t, net::SiteId a, net::SiteId b);
  FaultPlan& oneway_up(double t, net::SiteId a, net::SiteId b);
  /// Add a correlated-failure rule (see CorrelationRule).
  FaultPlan& correlate(int level, double probability, double down_for);
  /// Regime shifts: change the workload read fraction, the component
  /// reliability, or the access/failure ratio rho at `t`. Only draws
  /// *after* `t` use the new value, so runs stay deterministic; these are
  /// the drifting-alpha / failure-ramp scenarios the adaptive loop
  /// (src/adapt) is raced against.
  FaultPlan& set_alpha(double t, double alpha);
  FaultPlan& set_reliability(double t, double reliability);
  FaultPlan& set_rho(double t, double rho);
  /// Submit a scripted access at `origin` — deterministic (no Poisson
  /// draw, no read/write coin flip). This is how model-checker
  /// counterexamples replay their exact access sequence under
  /// `quora_chaos`.
  FaultPlan& access(double t, net::SiteId origin, bool is_read);

  FaultPlan& drop(double from, double until, double p,
                  net::LinkId link = kAllLinks);
  FaultPlan& delay(double from, double until, double p, double mean_extra,
                   net::LinkId link = kAllLinks);
  FaultPlan& duplicate(double from, double until, double p,
                       net::LinkId link = kAllLinks);
  /// Domain-scoped variants: the rule matches links crossing from
  /// `domain_a` to `domain_b` ("*" = anywhere outside domain_a).
  FaultPlan& drop_between(double from, double until, double p,
                          std::string domain_a, std::string domain_b);
  FaultPlan& delay_between(double from, double until, double p,
                           double mean_extra, std::string domain_a,
                           std::string domain_b);
  FaultPlan& duplicate_between(double from, double until, double p,
                               std::string domain_a, std::string domain_b);

  const std::vector<Action>& actions() const noexcept { return actions_; }
  const std::vector<MessageRule>& rules() const noexcept { return rules_; }
  const std::vector<CorrelationRule>& correlations() const noexcept {
    return correlations_;
  }
  bool empty() const noexcept {
    return actions_.empty() && rules_.empty() && correlations_.empty();
  }

private:
  std::vector<Action> actions_;
  std::vector<MessageRule> rules_;
  std::vector<CorrelationRule> correlations_;
};

/// A fully parsed `.chaos` scenario: plan + the system it runs against.
/// The file format embeds the topology text format of `io::load_system`
/// (sites/ring/chords/link/vote/... directives pass through untouched) and
/// adds the chaos directives documented in docs/FAULT_INJECTION.md:
///
/// ```
/// name clean-partition
/// seed 101
/// horizon 240
/// quorum 8 18
/// sites 25
/// ring
/// chords 4
///
/// at 60 partition 0-12 | 13-24
/// at 90 reassign 11 15 from 4
/// at 120 site 3 down
/// at 130 site 3 up
/// at 140 crash 5 for 20
/// at 150 crash-on-commit any for 20
/// at 160 heal
/// flap link 7 from 40 until 120 period 6
/// window 40 160 drop 0.15
/// window 40 160 delay 0.3 0.05
/// window 40 160 duplicate 0.1 link 3
///
/// # failure-domain directives (need `domain` / `geo` annotations):
/// at 60 domain rg0 down            # crash every site under rg0
/// at 120 domain rg0 up
/// at 80 oneway 3 7 down            # cut only the 3 -> 7 direction
/// at 100 oneway 3 7 up
/// correlate rack 0.8 for 30        # rack-mates of any failed site also
///                                  # fail with p=0.8 (region|dc|rack)
/// window 40 160 drop 0.3 between rg0 rg1   # gray inter-region link
/// window 40 160 delay 0.5 0.08 between rg0 *
///
/// # regime shifts (drifting workload / failure rates — see src/adapt):
/// at 200 alpha 0.2                 # read fraction drops to 20%
/// at 200 reliability 0.85          # components degrade to 85% reliable
/// at 200 rho 0.03125               # failures speed up relative to accesses
///
/// # scripted accesses (model-checker counterexample replays):
/// at 50 access 3 write             # submit one write at site 3, no RNG
/// at 55 access 0 read
///
/// # seeded protocol mutations (testing the checkers, never production):
/// mutate accept-stale-qr
/// mutate skip-crash-cleanup
/// ```
struct ChaosSpec {
  std::string name = "unnamed";
  std::uint64_t seed = 1;
  bool has_seed = false;
  double horizon = 0.0;         // 0 = not declared; the runner must supply one
  quorum::QuorumSpec quorum{};  // initial assignment
  bool has_quorum = false;
  /// Seeded known-bad protocol behaviours the run must enable
  /// (`msg::Cluster::Params::TestingMutations` slugs). Emitted into
  /// counterexample replays so a mutation-found bug reproduces under
  /// `quora_chaos`; `audit_chaos` warns on their presence.
  std::vector<std::string> mutations;
  std::optional<io::SystemSpec> system;  // always set on successful parse
  FaultPlan plan;
};

/// Parses a `.chaos` scenario; throws `io::ParseError`, naming the file's
/// own line, on malformed input. Numbers are strict (`io::Cells`).
/// Range validation against the topology (site/link ids, probabilities,
/// schedule sanity) is the job of `audit_chaos`, not the parser.
ChaosSpec load_chaos(std::istream& in);
ChaosSpec load_chaos_file(const std::string& path);
/// The same over directives already read: claims the chaos directives
/// (`name` and `quorum` included) and hands the rest to `io::load_system`.
ChaosSpec load_chaos(std::vector<io::Directive> directives);

/// Renders one timeline action in `.chaos` syntax, the part after
/// `at TIME`: `load_chaos` reads `at TIME <rendering>` back into an equal
/// action. Partition groups are listed member by member and doubles are
/// written in their shortest round-trip form.
std::string render_action(const Action& action);

} // namespace quora::fault
