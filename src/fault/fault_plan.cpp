#include "fault/fault_plan.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace quora::fault {
namespace {

using io::Cells;

/// Parses one partition group token: a comma-separated list of site ids
/// and id ranges, e.g. `0-4,7,9-12`.
std::vector<net::SiteId> parse_group(const Cells& cells,
                                     const std::string& token) {
  std::vector<net::SiteId> group;
  std::istringstream parts(token);
  std::string part;
  while (std::getline(parts, part, ',')) {
    if (part.empty()) cells.fail("empty member in partition group");
    const std::string error = "bad site id in partition group '" + part + "'";
    const auto site = [&](const std::string& id) {
      return static_cast<net::SiteId>(
          cells.uint(id, std::numeric_limits<net::SiteId>::max(), error));
    };
    const auto dash = part.find('-');
    if (dash == std::string::npos) {
      group.push_back(site(part));
    } else {
      const net::SiteId lo = site(part.substr(0, dash));
      const net::SiteId hi = site(part.substr(dash + 1));
      if (hi < lo) cells.fail("descending range '" + part + "'");
      for (net::SiteId s = lo; s <= hi; ++s) group.push_back(s);
    }
  }
  if (group.empty()) cells.fail("empty partition group");
  return group;
}

/// Reads the `down`/`up` word that ends a site, link or oneway action.
bool parse_down(Cells& cells) {
  const std::string& state = cells.word("expected 'down' or 'up'");
  if (state != "down" && state != "up") cells.fail("expected 'down' or 'up'");
  return state == "down";
}

void parse_at(FaultPlan& plan, Cells& cells) {
  const double t = cells.number("expected a time after 'at'");
  const std::string& what = cells.word("expected an action after the time");

  if (what == "site" || what == "link") {
    const std::uint32_t id = cells.u32("expected a component id");
    const bool down = parse_down(cells);
    if (what == "site") {
      down ? plan.site_down(t, id) : plan.site_up(t, id);
    } else {
      down ? plan.link_down(t, id) : plan.link_up(t, id);
    }
  } else if (what == "crash") {
    const net::SiteId s = cells.u32("expected a site id after 'crash'");
    cells.expect("for", "expected keyword 'for'");
    plan.crash(t, s, cells.number("expected a down-time after 'for'"));
  } else if (what == "partition") {
    std::vector<std::vector<net::SiteId>> groups;
    std::string current;
    while (!cells.at_end()) {
      const std::string& token = cells.word("partition needs at least two groups");
      if (token == "|") {
        groups.push_back(parse_group(cells, current));
        current.clear();
      } else {
        current += token;  // allow `0-4, 7` style spacing inside a group
      }
    }
    if (current.empty()) cells.fail("partition needs at least two groups");
    groups.push_back(parse_group(cells, current));
    if (groups.size() < 2) cells.fail("partition needs at least two groups");
    plan.partition(t, std::move(groups));
  } else if (what == "heal") {
    plan.heal(t);
  } else if (what == "heal-links") {
    plan.heal_links(t);
  } else if (what == "reassign") {
    const net::Vote q_r = cells.u32("expected q_r after 'reassign'");
    const net::Vote q_w = cells.u32("expected q_w after 'reassign'");
    cells.expect("from", "expected keyword 'from'");
    const net::SiteId origin = cells.u32("expected an origin site");
    plan.reassign(t, origin, quorum::QuorumSpec{q_r, q_w});
  } else if (what == "crash-on-commit") {
    const std::string& target = cells.word("expected a site id or 'any'");
    const net::SiteId filter =
        target == "any"
            ? kAnySite
            : static_cast<net::SiteId>(cells.uint(
                  target, std::numeric_limits<net::SiteId>::max(),
                  "crash-on-commit target must be a site id or 'any'"));
    double down_for = 10.0;
    if (!cells.at_end()) {
      cells.expect("for", "expected 'for' or end of line");
      down_for = cells.number("expected a down-time after 'for'");
    }
    plan.arm_crash_on_commit(t, filter, down_for);
  } else if (what == "domain") {
    const std::string error = "expected 'domain PATH down|up'";
    const std::string& path = cells.word(error);
    const std::string& state = cells.word(error);
    if (state != "down" && state != "up") cells.fail(error);
    state == "down" ? plan.domain_down(t, path) : plan.domain_up(t, path);
  } else if (what == "oneway") {
    const net::SiteId a = cells.u32("expected a from-site after 'oneway'");
    const net::SiteId b = cells.u32("expected a to-site after 'oneway'");
    parse_down(cells) ? plan.oneway_down(t, a, b) : plan.oneway_up(t, a, b);
  } else if (what == "access") {
    const net::SiteId origin = cells.u32("expected a site id after 'access'");
    const std::string error =
        "expected 'read' or 'write' after the access origin";
    const std::string& rw = cells.word(error);
    if (rw != "read" && rw != "write") cells.fail(error);
    plan.access(t, origin, rw == "read");
  } else if (what == "alpha") {
    plan.set_alpha(t, cells.number("expected a value after 'alpha'"));
  } else if (what == "reliability") {
    plan.set_reliability(t, cells.number("expected a value after 'reliability'"));
  } else if (what == "rho") {
    plan.set_rho(t, cells.number("expected a value after 'rho'"));
  } else {
    cells.fail("unknown action '" + what + "'");
  }
}

/// `correlate region|dc|rack P for D`
void parse_correlate(FaultPlan& plan, Cells& cells) {
  const std::string& level_word = cells.word("expected region, dc or rack");
  int level = 0;
  if (level_word == "region") {
    level = 1;
  } else if (level_word == "dc") {
    level = 2;
  } else if (level_word == "rack") {
    level = 3;
  } else {
    cells.fail("correlate level must be region, dc or rack, got '" +
               level_word + "'");
  }
  const double p = cells.number("expected a probability");
  cells.expect("for", "expected keyword 'for'");
  const double down_for = cells.number("expected a down-time after 'for'");
  plan.correlate(level, p, down_for);
}

void parse_window(FaultPlan& plan, Cells& cells) {
  const double from = cells.number("expected a window start time");
  const double until = cells.number("expected a window end time");
  const std::string& kind = cells.word("expected drop/delay/duplicate");
  const double p = cells.number("expected a probability");
  double mean_extra = 0.0;
  if (kind == "delay") {
    mean_extra = cells.number("expected a mean extra latency");
  } else if (kind != "drop" && kind != "duplicate") {
    cells.fail("unknown window kind '" + kind + "'");
  }
  net::LinkId link = kAllLinks;
  std::string dom_a;
  std::string dom_b;
  if (!cells.at_end()) {
    const std::string error = "expected 'link', 'between' or end of line";
    const std::string& keyword = cells.word(error);
    if (keyword == "link") {
      link = cells.u32("expected a link id after 'link'");
    } else if (keyword == "between") {
      const std::string between =
          "'between' needs two domain prefixes (or '*')";
      dom_a = cells.word(between);
      dom_b = cells.word(between);
      if (dom_a == "*") cells.fail("the first 'between' domain cannot be '*'");
    } else {
      cells.fail(error);
    }
  }
  if (!dom_a.empty()) {
    if (kind == "drop") {
      plan.drop_between(from, until, p, std::move(dom_a), std::move(dom_b));
    } else if (kind == "delay") {
      plan.delay_between(from, until, p, mean_extra, std::move(dom_a),
                         std::move(dom_b));
    } else {
      plan.duplicate_between(from, until, p, std::move(dom_a),
                             std::move(dom_b));
    }
  } else if (kind == "drop") {
    plan.drop(from, until, p, link);
  } else if (kind == "delay") {
    plan.delay(from, until, p, mean_extra, link);
  } else {
    plan.duplicate(from, until, p, link);
  }
}

void parse_flap(FaultPlan& plan, Cells& cells) {
  cells.expect("link", "expected keyword 'link'");
  const net::LinkId l = cells.u32("expected a link id");
  cells.expect("from", "expected keyword 'from'");
  const double from = cells.number("expected a start time");
  cells.expect("until", "expected keyword 'until'");
  const double until = cells.number("expected an end time");
  cells.expect("period", "expected keyword 'period'");
  const double period = cells.number("expected a period");
  cells.done();
  try {
    plan.flap_link(l, from, until, period);
  } catch (const std::invalid_argument& e) {
    cells.fail(e.what());
  }
}

/// Parses `cells` into `spec` if its keyword is a chaos directive.
bool claim(ChaosSpec& spec, Cells cells) {
  const std::string& directive = cells.keyword();
  if (directive == "name") {
    spec.name = cells.word("'name' needs a value");
  } else if (directive == "seed") {
    spec.seed = cells.u64("'seed' needs a value");
    spec.has_seed = true;
  } else if (directive == "horizon") {
    spec.horizon = cells.number("expected a duration after 'horizon'");
  } else if (directive == "quorum") {
    const net::Vote q_r = cells.u32("expected q_r after 'quorum'");
    const net::Vote q_w = cells.u32("expected q_w after 'quorum'");
    spec.quorum = quorum::QuorumSpec{q_r, q_w};
    spec.has_quorum = true;
  } else if (directive == "at") {
    parse_at(spec.plan, cells);
  } else if (directive == "window") {
    parse_window(spec.plan, cells);
  } else if (directive == "flap") {
    parse_flap(spec.plan, cells);
  } else if (directive == "correlate") {
    parse_correlate(spec.plan, cells);
  } else if (directive == "mutate") {
    spec.mutations.push_back(cells.word("'mutate' needs a mutation name"));
  } else {
    return false;  // a topology/system directive
  }
  cells.done();
  return true;
}

} // namespace

FaultPlan& FaultPlan::site_down(double t, net::SiteId s) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kSiteDown;
  a.site = s;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::site_up(double t, net::SiteId s) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kSiteUp;
  a.site = s;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::link_down(double t, net::LinkId l) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kLinkDown;
  a.link = l;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::link_up(double t, net::LinkId l) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kLinkUp;
  a.link = l;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::crash(double t, net::SiteId s, double down_for) {
  return site_down(t, s).site_up(t + down_for, s);
}

FaultPlan& FaultPlan::partition(double t,
                                std::vector<std::vector<net::SiteId>> groups) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kPartition;
  a.groups = std::move(groups);
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::heal(double t) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kHeal;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::heal_links(double t) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kHealLinks;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::flap_link(net::LinkId l, double from, double until,
                                double period) {
  if (!(period > 0.0)) throw std::invalid_argument("flap period must be positive");
  if (!(until > from)) {
    throw std::invalid_argument("flap window must end after it starts");
  }
  // Count the toggles before adding any, with the same clock arithmetic
  // as the loop below: a period too small to advance `t` never ends.
  std::size_t toggles = 0;
  for (double t = from; t < until; t += period) {
    if (t + period == t) {
      throw std::invalid_argument(
          "flap period is too small to advance the clock inside its window");
    }
    if (++toggles > kMaxFlapToggles) {
      throw std::invalid_argument("flap would toggle the link more than " +
                                  std::to_string(kMaxFlapToggles) + " times");
    }
  }
  bool down = true;
  for (double t = from; t < until; t += period) {
    down ? link_down(t, l) : link_up(t, l);
    down = !down;
  }
  // Always hand the link back: a flap window never leaks a down link past
  // its end, so later plan stages start from a known state.
  link_up(until, l);
  return *this;
}

FaultPlan& FaultPlan::reassign(double t, net::SiteId origin,
                               quorum::QuorumSpec next) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kReassign;
  a.site = origin;
  a.next = next;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::arm_crash_on_commit(double t, net::SiteId site,
                                          double down_for) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kArmCrashOnCommit;
  a.site = site;
  a.duration = down_for;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::domain_down(double t, std::string domain) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kDomainDown;
  a.domain = std::move(domain);
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::domain_up(double t, std::string domain) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kDomainUp;
  a.domain = std::move(domain);
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::oneway_down(double t, net::SiteId a_site, net::SiteId b) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kOneWayDown;
  a.site = a_site;
  a.site_b = b;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::oneway_up(double t, net::SiteId a_site, net::SiteId b) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kOneWayUp;
  a.site = a_site;
  a.site_b = b;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::correlate(int level, double probability,
                                double down_for) {
  correlations_.push_back(CorrelationRule{level, probability, down_for});
  return *this;
}

FaultPlan& FaultPlan::set_alpha(double t, double alpha) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kSetAlpha;
  a.value = alpha;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::set_reliability(double t, double reliability) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kSetReliability;
  a.value = reliability;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::set_rho(double t, double rho) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kSetRho;
  a.value = rho;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::access(double t, net::SiteId origin, bool is_read) {
  Action a;
  a.time = t;
  a.kind = Action::Kind::kAccess;
  a.site = origin;
  a.is_read = is_read;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::drop(double from, double until, double p,
                           net::LinkId link) {
  rules_.push_back(MessageRule{MessageRule::Kind::kDrop, from, until, p, 0.0,
                               link, {}, {}});
  return *this;
}

FaultPlan& FaultPlan::delay(double from, double until, double p,
                            double mean_extra, net::LinkId link) {
  rules_.push_back(MessageRule{MessageRule::Kind::kDelay, from, until, p,
                               mean_extra, link, {}, {}});
  return *this;
}

FaultPlan& FaultPlan::duplicate(double from, double until, double p,
                                net::LinkId link) {
  rules_.push_back(MessageRule{MessageRule::Kind::kDuplicate, from, until, p,
                               0.0, link, {}, {}});
  return *this;
}

FaultPlan& FaultPlan::drop_between(double from, double until, double p,
                                   std::string domain_a,
                                   std::string domain_b) {
  rules_.push_back(MessageRule{MessageRule::Kind::kDrop, from, until, p, 0.0,
                               kAllLinks, std::move(domain_a),
                               std::move(domain_b)});
  return *this;
}

FaultPlan& FaultPlan::delay_between(double from, double until, double p,
                                    double mean_extra, std::string domain_a,
                                    std::string domain_b) {
  rules_.push_back(MessageRule{MessageRule::Kind::kDelay, from, until, p,
                               mean_extra, kAllLinks, std::move(domain_a),
                               std::move(domain_b)});
  return *this;
}

FaultPlan& FaultPlan::duplicate_between(double from, double until, double p,
                                        std::string domain_a,
                                        std::string domain_b) {
  rules_.push_back(MessageRule{MessageRule::Kind::kDuplicate, from, until, p,
                               0.0, kAllLinks, std::move(domain_a),
                               std::move(domain_b)});
  return *this;
}

ChaosSpec load_chaos(std::istream& in) {
  return load_chaos(io::read_directives(in));
}

ChaosSpec load_chaos(std::vector<io::Directive> directives) {
  ChaosSpec spec;
  std::vector<io::Directive> system;
  for (io::Directive& directive : directives) {
    if (!claim(spec, Cells(directive))) system.push_back(std::move(directive));
  }
  spec.system = io::load_system(system);
  return spec;
}

std::string render_action(const Action& a) {
  using Kind = Action::Kind;
  const auto num = [](double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  };
  const std::string site = std::to_string(a.site);
  switch (a.kind) {
    case Kind::kSiteDown: return "site " + site + " down";
    case Kind::kSiteUp: return "site " + site + " up";
    case Kind::kLinkDown: return "link " + std::to_string(a.link) + " down";
    case Kind::kLinkUp: return "link " + std::to_string(a.link) + " up";
    case Kind::kPartition: {
      std::string out = "partition";
      for (std::size_t g = 0; g < a.groups.size(); ++g) {
        out += g == 0 ? " " : " | ";
        for (std::size_t i = 0; i < a.groups[g].size(); ++i) {
          if (i != 0) out += ',';
          out += std::to_string(a.groups[g][i]);
        }
      }
      return out;
    }
    case Kind::kHeal: return "heal";
    case Kind::kHealLinks: return "heal-links";
    case Kind::kReassign:
      return "reassign " + std::to_string(a.next.q_r) + " " +
             std::to_string(a.next.q_w) + " from " + site;
    case Kind::kArmCrashOnCommit:
      return "crash-on-commit " + (a.site == kAnySite ? "any" : site) +
             " for " + num(a.duration);
    case Kind::kDomainDown: return "domain " + a.domain + " down";
    case Kind::kDomainUp: return "domain " + a.domain + " up";
    case Kind::kOneWayDown:
      return "oneway " + site + " " + std::to_string(a.site_b) + " down";
    case Kind::kOneWayUp:
      return "oneway " + site + " " + std::to_string(a.site_b) + " up";
    case Kind::kSetAlpha: return "alpha " + num(a.value);
    case Kind::kSetReliability: return "reliability " + num(a.value);
    case Kind::kSetRho: return "rho " + num(a.value);
    case Kind::kAccess:
      return "access " + site + (a.is_read ? " read" : " write");
  }
  return "?";
}

ChaosSpec load_chaos_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open chaos plan: " + path);
  return load_chaos(in);
}

} // namespace quora::fault
