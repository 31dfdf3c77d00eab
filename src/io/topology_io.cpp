#include "io/topology_io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/builders.hpp"

namespace quora::io {
namespace {

struct Builder {
  std::string name = "topology";
  std::uint32_t sites = 0;
  bool sites_seen = false;
  net::Vote default_vote = 1;
  std::vector<std::pair<net::SiteId, net::Vote>> explicit_votes;
  std::size_t last_vote_line = 0;  // blamed if the vote total overflows
  std::vector<net::Link> links;
  std::set<std::pair<net::SiteId, net::SiteId>> link_set;
  // Reliability directives, resolved after all links exist.
  bool any_rel = false;
  double site_rel_default = 0.96;
  double link_rel_default = 0.96;
  std::vector<std::pair<net::SiteId, double>> site_rels;
  struct LinkRel {
    net::SiteId a;
    net::SiteId b;
    double rel;
    std::size_t line;
  };
  std::vector<LinkRel> link_rels;
  // Domain / latency annotations, resolved after all links exist.
  struct DomainDecl {
    net::SiteId site;
    std::string path;
    std::size_t line;
  };
  std::vector<DomainDecl> domains;
  bool any_lat = false;
  bool has_lat_default = false;
  net::LinkLatency lat_default;
  struct LinkLat {
    net::SiteId a;
    net::SiteId b;
    net::LinkLatency lat;
    std::size_t line;
  };
  std::vector<LinkLat> link_lats;

  bool add_link(net::SiteId a, net::SiteId b) {
    const auto key = std::minmax(a, b);
    if (!link_set.insert(key).second) return false;
    links.push_back(net::Link{key.first, key.second});
    return true;
  }
};

net::SiteId parse_site(const Builder& b, const Cells& cells,
                       const std::string& token) {
  const std::uint64_t value =
      cells.uint(token, std::numeric_limits<std::uint64_t>::max(),
                 "expected a site id, got '" + token + "'");
  if (value >= b.sites) {
    cells.fail("site " + token + " out of range (sites " +
               std::to_string(b.sites) + ")");
  }
  return static_cast<net::SiteId>(value);
}

void parse_directive(Builder& b, Cells cells) {
  const std::string& directive = cells.keyword();
  if (directive == "sites") {
    if (b.sites_seen) cells.fail("duplicate 'sites' directive");
    b.sites = cells.u32("'sites' needs a positive count");
    if (b.sites == 0) cells.fail("'sites' needs a positive count");
    b.sites_seen = true;
  } else if (!b.sites_seen) {
    cells.fail("'sites N' must precede '" + directive + "'");
  } else if (directive == "name") {
    b.name = cells.word("'name' needs a value");
  } else if (directive == "ring") {
    if (b.sites < 3) cells.fail("'ring' needs at least 3 sites");
    for (net::SiteId i = 0; i < b.sites; ++i) {
      b.add_link(i, (i + 1) % b.sites);
    }
  } else if (directive == "chords") {
    const std::uint32_t k = cells.u32("'chords' needs a count");
    const auto order = net::chord_order(b.sites);
    if (k > order.size()) {
      cells.fail("only " + std::to_string(order.size()) + " chords exist for " +
                 std::to_string(b.sites) + " sites");
    }
    for (std::uint32_t i = 0; i < k; ++i) b.add_link(order[i].a, order[i].b);
  } else if (directive == "complete") {
    for (net::SiteId a = 0; a < b.sites; ++a) {
      for (net::SiteId bb = a + 1; bb < b.sites; ++bb) b.add_link(a, bb);
    }
  } else if (directive == "link") {
    const std::string& sa = cells.word("'link' needs two sites");
    const std::string& sb = cells.word("'link' needs two sites");
    const net::SiteId a = parse_site(b, cells, sa);
    const net::SiteId bb = parse_site(b, cells, sb);
    if (a == bb) cells.fail("self-loop link");
    if (!b.add_link(a, bb)) cells.fail("duplicate link");
  } else if (directive == "vote") {
    const std::string error = "'vote' needs a site (or 'default') and a count";
    const std::string& target = cells.word(error);
    const net::Vote v = cells.u32(error);
    if (target == "default") {
      b.default_vote = v;
    } else {
      b.explicit_votes.emplace_back(parse_site(b, cells, target), v);
    }
    b.last_vote_line = cells.line();
  } else if (directive == "site_rel") {
    const std::string error =
        "'site_rel' needs a site (or 'default') and a reliability in (0,1]";
    const std::string& target = cells.word(error);
    const double rel = cells.number(error);
    if (!(rel > 0.0 && rel <= 1.0)) cells.fail(error);
    b.any_rel = true;
    if (target == "default") {
      b.site_rel_default = rel;
    } else {
      b.site_rels.emplace_back(parse_site(b, cells, target), rel);
    }
  } else if (directive == "link_rel") {
    const std::string& sa = cells.word("'link_rel' needs endpoints or 'default'");
    b.any_rel = true;
    if (sa == "default") {
      const std::string error = "'link_rel default' needs a reliability";
      const double rel = cells.number(error);
      if (!(rel > 0.0 && rel <= 1.0)) cells.fail(error);
      b.link_rel_default = rel;
    } else {
      const std::string error =
          "'link_rel' needs two sites and a reliability in (0,1]";
      const std::string& sb = cells.word(error);
      const double rel = cells.number(error);
      if (!(rel > 0.0 && rel <= 1.0)) cells.fail(error);
      b.link_rels.push_back(Builder::LinkRel{parse_site(b, cells, sa),
                                             parse_site(b, cells, sb), rel,
                                             cells.line()});
    }
  } else if (directive == "domain") {
    const std::string& target = cells.word("'domain' needs a site and a path");
    const std::string& path = cells.word("'domain' needs a site and a path");
    // Last assignment wins (the static auditor flags duplicates).
    b.domains.push_back(
        Builder::DomainDecl{parse_site(b, cells, target), path, cells.line()});
  } else if (directive == "link_lat") {
    const std::string& sa = cells.word("'link_lat' needs endpoints or 'default'");
    b.any_lat = true;
    net::LinkLatency lat;
    if (sa == "default") {
      const std::string error = "'link_lat default' needs base and jitter >= 0";
      lat.base = cells.number(error);
      lat.jitter = cells.number(error);
      if (lat.base < 0.0 || lat.jitter < 0.0) cells.fail(error);
      b.has_lat_default = true;
      b.lat_default = lat;
    } else {
      const std::string error =
          "'link_lat' needs two sites, a base and a jitter >= 0";
      const std::string& sb = cells.word(error);
      lat.base = cells.number(error);
      lat.jitter = cells.number(error);
      if (lat.base < 0.0 || lat.jitter < 0.0) cells.fail(error);
      b.link_lats.push_back(Builder::LinkLat{parse_site(b, cells, sa),
                                             parse_site(b, cells, sb), lat,
                                             cells.line()});
    }
  } else if (directive == "geo") {
    const std::string error =
        "'geo' needs four tier counts: regions dcs racks sites-per-rack";
    net::GeoSpec geo;
    geo.regions = cells.u32(error);
    geo.dcs_per_region = cells.u32(error);
    geo.racks_per_dc = cells.u32(error);
    geo.sites_per_rack = cells.u32(error);
    if (!b.links.empty()) cells.fail("'geo' must precede any link directive");
    const std::uint64_t product = std::uint64_t{geo.regions} *
                                  geo.dcs_per_region * geo.racks_per_dc *
                                  geo.sites_per_rack;
    if (product == 0 || product != b.sites) {
      cells.fail("'geo' tier product " + std::to_string(product) +
                 " != sites " + std::to_string(b.sites));
    }
    const net::Topology geo_topo = net::make_geo(geo);
    b.any_lat = true;
    for (net::LinkId l = 0; l < geo_topo.link_count(); ++l) {
      const net::Link& gl = geo_topo.link(l);
      b.add_link(gl.a, gl.b);
      b.link_lats.push_back(
          Builder::LinkLat{gl.a, gl.b, geo_topo.link_latency(l), cells.line()});
    }
    for (net::SiteId s = 0; s < geo_topo.site_count(); ++s) {
      b.domains.push_back(
          Builder::DomainDecl{s, geo_topo.domain(s), cells.line()});
    }
  } else {
    cells.fail("unknown directive '" + directive + "'");
  }
  cells.done();
}

/// The topology rejects a vote total past `net::Vote`'s range; blame the
/// last `vote` line, the one that completed the total.
net::Topology build_topology(const Builder& b) {
  std::vector<net::Vote> votes(b.sites, b.default_vote);
  for (const auto& [site, v] : b.explicit_votes) votes[site] = v;
  try {
    return net::Topology(b.name, b.sites, b.links, std::move(votes));
  } catch (const std::invalid_argument& e) {
    throw ParseError(b.last_vote_line, e.what());
  }
}

} // namespace

SystemSpec load_system(std::istream& in) { return load_system(read_directives(in)); }

SystemSpec load_system(const std::vector<Directive>& directives) {
  Builder b;
  for (const Directive& d : directives) parse_directive(b, Cells(d));

  if (!b.sites_seen) throw ParseError(0, "missing 'sites' directive");
  SystemSpec spec{build_topology(b), {}, {}};

  if (b.any_rel) {
    spec.site_reliability.assign(b.sites, b.site_rel_default);
    for (const auto& [site, rel] : b.site_rels) spec.site_reliability[site] = rel;
    spec.link_reliability.assign(b.links.size(), b.link_rel_default);
    for (const Builder::LinkRel& lr : b.link_rels) {
      const auto key = std::minmax(lr.a, lr.b);
      bool found = false;
      for (std::size_t i = 0; i < b.links.size(); ++i) {
        if (std::minmax(b.links[i].a, b.links[i].b) == key) {
          spec.link_reliability[i] = lr.rel;
          found = true;
          break;
        }
      }
      if (!found) {
        throw ParseError(lr.line, "'link_rel' names a link that does not exist");
      }
    }
  }
  for (Builder::DomainDecl& d : b.domains) {
    try {
      spec.topology.set_domain(d.site, std::move(d.path));
    } catch (const std::invalid_argument& e) {
      throw ParseError(d.line, e.what());
    }
  }
  if (b.any_lat) {
    if (b.has_lat_default) {
      for (net::LinkId l = 0; l < spec.topology.link_count(); ++l) {
        spec.topology.set_link_latency(l, b.lat_default);
      }
    }
    for (const Builder::LinkLat& ll : b.link_lats) {
      const net::LinkId l = spec.topology.find_link(ll.a, ll.b);
      if (l == spec.topology.link_count()) {
        throw ParseError(ll.line, "'link_lat' names a link that does not exist");
      }
      spec.topology.set_link_latency(l, ll.lat);
    }
  }
  return spec;
}

SystemSpec load_system_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open topology file: " + path);
  return load_system(in);
}

net::Topology load_topology(std::istream& in) { return load_system(in).topology; }

net::Topology load_topology_file(const std::string& path) {
  return load_system_file(path).topology;
}

void save_topology(std::ostream& out, const net::Topology& topo) {
  out << "# quora topology\n";
  out << "sites " << topo.site_count() << '\n';
  out << "name " << topo.name() << '\n';
  for (net::SiteId s = 0; s < topo.site_count(); ++s) {
    if (topo.votes(s) != 1) out << "vote " << s << ' ' << topo.votes(s) << '\n';
  }
  for (const net::Link& l : topo.links()) {
    out << "link " << l.a << ' ' << l.b << '\n';
  }
  if (topo.has_domains()) {
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      if (!topo.domain(s).empty()) {
        out << "domain " << s << ' ' << topo.domain(s) << '\n';
      }
    }
  }
  if (topo.has_link_latencies()) {
    out << std::setprecision(17);
    for (net::LinkId l = 0; l < topo.link_count(); ++l) {
      const net::LinkLatency lat = topo.link_latency(l);
      out << "link_lat " << topo.link(l).a << ' ' << topo.link(l).b << ' '
          << lat.base << ' ' << lat.jitter << '\n';
    }
  }
}

void save_system(std::ostream& out, const SystemSpec& spec) {
  save_topology(out, spec.topology);
  const auto write_rels = [&out](const std::vector<double>& rels, auto emit) {
    for (std::size_t i = 0; i < rels.size(); ++i) emit(i, rels[i]);
  };
  out << std::setprecision(17);
  if (!spec.site_reliability.empty()) {
    write_rels(spec.site_reliability, [&](std::size_t i, double rel) {
      out << "site_rel " << i << ' ' << rel << '\n';
    });
  }
  if (!spec.link_reliability.empty()) {
    write_rels(spec.link_reliability, [&](std::size_t i, double rel) {
      const net::Link& l = spec.topology.link(static_cast<net::LinkId>(i));
      out << "link_rel " << l.a << ' ' << l.b << ' ' << rel << '\n';
    });
  }
}

} // namespace quora::io
