#include "fault/fault_plan.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace quora::fault {
namespace {

using io::ParseError;

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ParseError(line, what);
}

double need_double(std::istringstream& cells, std::size_t line,
                   const char* what) {
  double v = 0.0;
  if (!(cells >> v)) fail(line, std::string("expected ") + what);
  return v;
}

std::uint32_t need_u32(std::istringstream& cells, std::size_t line,
                       const char* what) {
  std::uint32_t v = 0;
  if (!(cells >> v)) fail(line, std::string("expected ") + what);
  return v;
}

void need_keyword(std::istringstream& cells, std::size_t line,
                  const std::string& keyword) {
  std::string word;
  if (!(cells >> word) || word != keyword) {
    fail(line, "expected keyword '" + keyword + "'");
  }
}

void reject_trailing(std::istringstream& cells, std::size_t line) {
  std::string extra;
  if (cells >> extra) fail(line, "trailing junk '" + extra + "'");
}

/// Parses one partition group token: a comma-separated list of site ids
/// and id ranges, e.g. `0-4,7,9-12`.
std::vector<net::SiteId> parse_group(const std::string& token,
                                     std::size_t line) {
  std::vector<net::SiteId> group;
  std::istringstream parts(token);
  std::string part;
  while (std::getline(parts, part, ',')) {
    if (part.empty()) fail(line, "empty member in partition group");
    const auto dash = part.find('-');
    try {
      if (dash == std::string::npos) {
        group.push_back(static_cast<net::SiteId>(std::stoul(part)));
      } else {
        const auto lo =
            static_cast<net::SiteId>(std::stoul(part.substr(0, dash)));
        const auto hi =
            static_cast<net::SiteId>(std::stoul(part.substr(dash + 1)));
        if (hi < lo) fail(line, "descending range '" + part + "'");
        for (net::SiteId s = lo; s <= hi; ++s) group.push_back(s);
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception&) {
      fail(line, "bad site id in partition group '" + part + "'");
    }
  }
  if (group.empty()) fail(line, "empty partition group");
  return group;
}

void parse_at(FaultPlan& plan, std::istringstream& cells, std::size_t line) {
  const double t = need_double(cells, line, "a time after 'at'");
  std::string what;
  if (!(cells >> what)) fail(line, "expected an action after the time");

  if (what == "site" || what == "link") {
    const std::uint32_t id = need_u32(cells, line, "a component id");
    std::string state;
    if (!(cells >> state) || (state != "down" && state != "up")) {
      fail(line, "expected 'down' or 'up'");
    }
    if (what == "site") {
      state == "down" ? plan.site_down(t, id) : plan.site_up(t, id);
    } else {
      state == "down" ? plan.link_down(t, id) : plan.link_up(t, id);
    }
  } else if (what == "crash") {
    const net::SiteId s = need_u32(cells, line, "a site id after 'crash'");
    need_keyword(cells, line, "for");
    plan.crash(t, s, need_double(cells, line, "a down-time after 'for'"));
  } else if (what == "partition") {
    std::vector<std::vector<net::SiteId>> groups;
    std::string token;
    std::string current;
    while (cells >> token) {
      if (token == "|") {
        groups.push_back(parse_group(current, line));
        current.clear();
      } else {
        current += token;  // allow `0-4, 7` style spacing inside a group
      }
    }
    if (current.empty()) fail(line, "partition needs at least two groups");
    groups.push_back(parse_group(current, line));
    if (groups.size() < 2) fail(line, "partition needs at least two groups");
    plan.partition(t, std::move(groups));
    return;  // consumed the whole line
  } else if (what == "heal") {
    plan.heal(t);
  } else if (what == "heal-links") {
    plan.heal_links(t);
  } else if (what == "reassign") {
    const net::Vote q_r = need_u32(cells, line, "q_r after 'reassign'");
    const net::Vote q_w = need_u32(cells, line, "q_w after 'reassign'");
    need_keyword(cells, line, "from");
    const net::SiteId origin = need_u32(cells, line, "an origin site");
    plan.reassign(t, origin, quorum::QuorumSpec{q_r, q_w});
  } else if (what == "crash-on-commit") {
    std::string target;
    if (!(cells >> target)) fail(line, "expected a site id or 'any'");
    net::SiteId filter = kAnySite;
    if (target != "any") {
      try {
        filter = static_cast<net::SiteId>(std::stoul(target));
      } catch (const std::exception&) {
        fail(line, "crash-on-commit target must be a site id or 'any'");
      }
    }
    double down_for = 10.0;
    std::string keyword;
    if (cells >> keyword) {
      if (keyword != "for") fail(line, "expected 'for' or end of line");
      down_for = need_double(cells, line, "a down-time after 'for'");
    }
    plan.arm_crash_on_commit(t, filter, down_for);
    return;
  } else if (what == "domain") {
    std::string path;
    std::string state;
    if (!(cells >> path >> state) || (state != "down" && state != "up")) {
      fail(line, "expected 'domain PATH down|up'");
    }
    state == "down" ? plan.domain_down(t, std::move(path))
                    : plan.domain_up(t, std::move(path));
  } else if (what == "oneway") {
    const net::SiteId a = need_u32(cells, line, "a from-site after 'oneway'");
    const net::SiteId b2 = need_u32(cells, line, "a to-site after 'oneway'");
    std::string state;
    if (!(cells >> state) || (state != "down" && state != "up")) {
      fail(line, "expected 'down' or 'up'");
    }
    state == "down" ? plan.oneway_down(t, a, b2) : plan.oneway_up(t, a, b2);
  } else if (what == "access") {
    const net::SiteId origin = need_u32(cells, line, "a site id after 'access'");
    std::string rw;
    if (!(cells >> rw) || (rw != "read" && rw != "write")) {
      fail(line, "expected 'read' or 'write' after the access origin");
    }
    plan.access(t, origin, rw == "read");
  } else if (what == "alpha") {
    plan.set_alpha(t, need_double(cells, line, "a value after 'alpha'"));
  } else if (what == "reliability") {
    plan.set_reliability(t,
                         need_double(cells, line, "a value after 'reliability'"));
  } else if (what == "rho") {
    plan.set_rho(t, need_double(cells, line, "a value after 'rho'"));
  } else {
    fail(line, "unknown action '" + what + "'");
  }
  reject_trailing(cells, line);
}

/// `correlate region|dc|rack P for D`
void parse_correlate(FaultPlan& plan, std::istringstream& cells,
                     std::size_t line) {
  std::string level_word;
  if (!(cells >> level_word)) fail(line, "expected region, dc or rack");
  int level = 0;
  if (level_word == "region") {
    level = 1;
  } else if (level_word == "dc") {
    level = 2;
  } else if (level_word == "rack") {
    level = 3;
  } else {
    fail(line, "correlate level must be region, dc or rack, got '" +
                   level_word + "'");
  }
  const double p = need_double(cells, line, "a probability");
  need_keyword(cells, line, "for");
  const double down_for = need_double(cells, line, "a down-time after 'for'");
  reject_trailing(cells, line);
  plan.correlate(level, p, down_for);
}

void parse_window(FaultPlan& plan, std::istringstream& cells,
                  std::size_t line) {
  const double from = need_double(cells, line, "a window start time");
  const double until = need_double(cells, line, "a window end time");
  std::string kind;
  if (!(cells >> kind)) fail(line, "expected drop/delay/duplicate");
  const double p = need_double(cells, line, "a probability");
  double mean_extra = 0.0;
  if (kind == "delay") {
    mean_extra = need_double(cells, line, "a mean extra latency");
  } else if (kind != "drop" && kind != "duplicate") {
    fail(line, "unknown window kind '" + kind + "'");
  }
  net::LinkId link = kAllLinks;
  std::string dom_a;
  std::string dom_b;
  std::string keyword;
  if (cells >> keyword) {
    if (keyword == "link") {
      link = need_u32(cells, line, "a link id after 'link'");
    } else if (keyword == "between") {
      if (!(cells >> dom_a >> dom_b)) {
        fail(line, "'between' needs two domain prefixes (or '*')");
      }
      if (dom_a == "*") fail(line, "the first 'between' domain cannot be '*'");
    } else {
      fail(line, "expected 'link', 'between' or end of line");
    }
    reject_trailing(cells, line);
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

void parse_flap(FaultPlan& plan, std::istringstream& cells, std::size_t line) {
  need_keyword(cells, line, "link");
  const net::LinkId l = need_u32(cells, line, "a link id");
  need_keyword(cells, line, "from");
  const double from = need_double(cells, line, "a start time");
  need_keyword(cells, line, "until");
  const double until = need_double(cells, line, "an end time");
  need_keyword(cells, line, "period");
  const double period = need_double(cells, line, "a period");
  reject_trailing(cells, line);
  if (!(period > 0.0)) fail(line, "flap period must be positive");
  if (!(until > from)) fail(line, "flap window must end after it starts");
  plan.flap_link(l, from, until, period);
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
  ChaosSpec spec;
  std::ostringstream system_text;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    const std::string line =
        hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream cells(line);
    std::string directive;
    if (!(cells >> directive)) {
      system_text << raw << '\n';
      continue;
    }
    if (directive == "name") {
      if (!(cells >> spec.name)) fail(line_no, "'name' needs a value");
      reject_trailing(cells, line_no);
    } else if (directive == "seed") {
      if (!(cells >> spec.seed)) fail(line_no, "'seed' needs a value");
      spec.has_seed = true;
      reject_trailing(cells, line_no);
    } else if (directive == "horizon") {
      spec.horizon = need_double(cells, line_no, "a duration after 'horizon'");
      reject_trailing(cells, line_no);
    } else if (directive == "quorum") {
      const net::Vote q_r = need_u32(cells, line_no, "q_r after 'quorum'");
      const net::Vote q_w = need_u32(cells, line_no, "q_w after 'quorum'");
      spec.quorum = quorum::QuorumSpec{q_r, q_w};
      spec.has_quorum = true;
      reject_trailing(cells, line_no);
    } else if (directive == "at") {
      parse_at(spec.plan, cells, line_no);
    } else if (directive == "window") {
      parse_window(spec.plan, cells, line_no);
    } else if (directive == "flap") {
      parse_flap(spec.plan, cells, line_no);
    } else if (directive == "correlate") {
      parse_correlate(spec.plan, cells, line_no);
    } else if (directive == "mutate") {
      std::string which;
      if (!(cells >> which)) fail(line_no, "'mutate' needs a mutation name");
      reject_trailing(cells, line_no);
      spec.mutations.push_back(std::move(which));
    } else {
      system_text << raw << '\n';  // a topology/system directive
    }
  }
  std::istringstream system_in(system_text.str());
  spec.system = io::load_system(system_in);
  return spec;
}

ChaosSpec load_chaos_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open chaos plan: " + path);
  return load_chaos(in);
}

} // namespace quora::fault
