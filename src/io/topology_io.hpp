#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "io/directives.hpp"
#include "net/topology.hpp"

namespace quora::io {

/// A parsed system description: the topology plus optional heterogeneous
/// reliabilities (empty vectors = the uniform model of SimConfig).
/// Convert to a simulator profile with
/// `sim::FailureProfile::from_reliabilities`.
struct SystemSpec {
  net::Topology topology;
  std::vector<double> site_reliability;  // empty or one entry per site
  std::vector<double> link_reliability;  // empty or one entry per link

  bool has_reliabilities() const noexcept {
    return !site_reliability.empty() || !link_reliability.empty();
  }
};

/// Loads a system from the line-oriented text format:
///
/// ```
/// # comments and blank lines ignored
/// sites 101            # required, first directive
/// name my-network      # optional display name
/// ring                 # add ring links 0-1, 1-2, ..., n-1 - 0
/// chords 16            # add the first K spread chords (DESIGN.md rule)
/// complete             # add every missing pair
/// link 3 77            # one explicit link (duplicate links are errors)
/// vote 5 3             # site 5 holds 3 votes (default 1)
/// vote default 2       # change the default for sites not set explicitly
/// site_rel 0 0.99      # per-site reliability (default 0.96 via SimConfig)
/// site_rel default 0.9
/// link_rel 3 77 0.85   # per-link reliability; the link must exist by EOF
/// link_rel default 0.99
/// domain 5 rg0/dc1/rk0 # failure-domain path (last assignment wins)
/// link_lat 3 77 0.03 0.01   # latency class: base + Exp(jitter) seconds
/// link_lat default 0.002 0.001
/// geo 3 2 1 4          # geo builder: regions/dcs/racks/sites-per-rack;
///                      # must match `sites`, precede any link directive
/// ```
///
/// Builder directives (`ring`, `chords`, `complete`) skip links that
/// already exist; explicit `link` lines must be unique. Reliability
/// vectors are produced only when at least one `*_rel` directive appears.
/// Numbers are strict (see `io::Cells`): a count, site id or vote is a
/// whole unsigned integer with no sign, a reliability or latency a whole
/// finite number, and a line with tokens left over is rejected. Throws
/// `ParseError`, naming the offending line, on malformed input — also when
/// the votes sum past `net::Vote`'s range.
SystemSpec load_system(std::istream& in);
SystemSpec load_system_file(const std::string& path);
/// The same over directives already read, for dialects that embed the
/// system format and have claimed their own directives.
SystemSpec load_system(const std::vector<Directive>& directives);

/// Topology-only convenience wrappers over `load_system`.
net::Topology load_topology(std::istream& in);

/// Convenience file loader; throws std::runtime_error if unreadable.
net::Topology load_topology_file(const std::string& path);

/// Writes a topology in the same format (explicit `link` lines only, so
/// the output round-trips regardless of how the input was built).
void save_topology(std::ostream& out, const net::Topology& topo);

/// As above, plus `site_rel`/`link_rel` lines when the spec carries
/// reliabilities. Round-trips through `load_system`.
void save_system(std::ostream& out, const SystemSpec& spec);

} // namespace quora::io
