// quora_trace — summarize a structured trace transcript.
//
//   quora_trace FILE...
//
// Reads the compact text transcript written by the --trace flags of
// quora_cli, quora_chaos, and the bench binaries (one event per line:
// time, kind, site, request, a, x — see src/obs/trace.hpp for the
// payload taxonomy) and prints, per file:
//
//   - event counts by kind;
//   - top denial reasons (decoded from access-deny payloads);
//   - access latency (submit -> grant/deny) and coordination-round
//     latency (round-start -> round-finish) histograms, matched by
//     request id.
//
// Chrome JSON traces are for ui.perfetto.dev; point this tool at the
// text form. Exit status: 0 summarized, 2 usage, I/O, or parse errors.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "msg/cluster.hpp"
#include "obs/trace.hpp"

namespace {

using namespace quora;

struct ParsedEvent {
  double time = 0.0;
  std::string kind;
  std::uint32_t site = 0;
  std::uint64_t request = 0;
  std::uint64_t a = 0;
  unsigned x = 0;
};

/// Latency histogram on the cluster's bucket plan, plus overflow.
struct LatencyHist {
  static constexpr const auto& kBounds = msg::kLatencyBucketsSeconds;
  static constexpr std::size_t kBuckets = std::size(kBounds) + 1;
  std::uint64_t counts[kBuckets] = {};
  std::uint64_t total = 0;
  double sum = 0.0;
  double max = 0.0;

  void record(double v) {
    std::size_t b = 0;
    while (b < std::size(kBounds) && v > kBounds[b]) ++b;
    ++counts[b];
    ++total;
    sum += v;
    if (v > max) max = v;
  }

  void print(std::ostream& out, const char* title) const {
    out << "  " << title << ": " << total << " samples";
    if (total == 0) {
      out << '\n';
      return;
    }
    char line[96];
    std::snprintf(line, sizeof(line), ", mean=%.6fs max=%.6fs\n",
                  sum / static_cast<double>(total), max);
    out << line;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts[b] == 0) continue;
      if (b < std::size(kBounds)) {
        std::snprintf(line, sizeof(line), "    le=%-6g %10llu  ", kBounds[b],
                      static_cast<unsigned long long>(counts[b]));
      } else {
        std::snprintf(line, sizeof(line), "    le=+inf  %10llu  ",
                      static_cast<unsigned long long>(counts[b]));
      }
      out << line;
      // A 1-to-50-column bar scaled to the largest bucket.
      std::uint64_t peak = 0;
      for (const std::uint64_t c : counts) peak = c > peak ? c : peak;
      const auto width = static_cast<std::size_t>(
          50.0 * static_cast<double>(counts[b]) / static_cast<double>(peak));
      out << std::string(width == 0 ? 1 : width, '#') << '\n';
    }
  }
};

struct Summary {
  std::map<std::string, std::uint64_t> counts_by_kind;
  std::uint64_t denials_by_reason[msg::kDenyReasonCount] = {};
  std::uint64_t unknown_reason = 0;
  LatencyHist access_latency;
  LatencyHist round_latency;
  std::uint64_t events = 0;
  double t_first = 0.0;
  double t_last = 0.0;
  // Open intervals awaiting their closing event, keyed by request id.
  std::map<std::uint64_t, double> open_accesses;
  std::map<std::uint64_t, double> open_rounds;

  void add(const ParsedEvent& e) {
    if (events == 0) t_first = e.time;
    t_last = e.time;
    ++events;
    ++counts_by_kind[e.kind];
    if (e.kind == "access-submit") {
      open_accesses[e.request] = e.time;
    } else if (e.kind == "access-grant" || e.kind == "access-deny") {
      if (e.kind == "access-deny") {
        if (e.x < msg::kDenyReasonCount) {
          ++denials_by_reason[e.x];
        } else {
          ++unknown_reason;
        }
      }
      const auto it = open_accesses.find(e.request);
      if (it != open_accesses.end()) {
        access_latency.record(e.time - it->second);
        open_accesses.erase(it);
      }
    } else if (e.kind == "round-start") {
      if (e.a != 0) {
        // A retry: this round supersedes request id `a`. Chain the open
        // submit forward so the access latency spans every attempt, and
        // close the abandoned round.
        const auto prev = open_accesses.find(e.a);
        if (prev != open_accesses.end()) {
          open_accesses[e.request] = prev->second;
          open_accesses.erase(prev);
        }
        open_rounds.erase(e.a);
      }
      open_rounds[e.request] = e.time;
    } else if (e.kind == "round-finish") {
      const auto it = open_rounds.find(e.request);
      if (it != open_rounds.end()) {
        round_latency.record(e.time - it->second);
        open_rounds.erase(it);
      }
    }
  }
};

bool parse_line(const std::string& line, ParsedEvent& e) {
  std::istringstream in(line);
  if (!(in >> e.time >> e.kind >> e.site >> e.request >> e.a >> e.x)) {
    return false;
  }
  std::string rest;
  return !(in >> rest);  // trailing junk is a malformed line
}

int summarize(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "quora_trace: cannot open " << path << '\n';
    return 2;
  }

  Summary summary;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1 && line.front() == '{') {
      std::cerr << "quora_trace: " << path
                << " looks like a Chrome JSON trace; open it in "
                   "ui.perfetto.dev, or re-record without the .json "
                   "extension for the text transcript this tool reads\n";
      return 2;
    }
    ParsedEvent e;
    if (!parse_line(line, e)) {
      std::cerr << "quora_trace: " << path << ':' << line_no
                << ": malformed trace line: " << line << '\n';
      return 2;
    }
    summary.add(e);
  }

  std::cout << "== " << path << ": " << summary.events << " events";
  if (summary.events > 0) {
    char span[64];
    std::snprintf(span, sizeof(span), ", t=[%.6f, %.6f]", summary.t_first,
                  summary.t_last);
    std::cout << span;
  }
  std::cout << " ==\n";
  if (summary.events == 0) return 0;

  std::cout << "  events by kind:\n";
  for (const auto& [kind, count] : summary.counts_by_kind) {
    std::cout << "    " << kind;
    for (std::size_t pad = kind.size(); pad < 16; ++pad) std::cout << ' ';
    std::cout << count << '\n';
  }

  // Denial reasons, largest first (stable order among equals: reason code).
  std::vector<std::pair<std::uint64_t, std::size_t>> denies;
  std::uint64_t total_denies = summary.unknown_reason;
  for (std::size_t r = 1; r < msg::kDenyReasonCount; ++r) {
    total_denies += summary.denials_by_reason[r];
    if (summary.denials_by_reason[r] > 0) {
      denies.emplace_back(summary.denials_by_reason[r], r);
    }
  }
  if (total_denies > 0) {
    std::sort(denies.begin(), denies.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    std::cout << "  denials (" << total_denies << "):\n";
    char row[96];
    for (const auto& [count, reason] : denies) {
      std::snprintf(row, sizeof(row), "    %-20s %10llu  %5.1f%%\n",
                    msg::deny_reason_name(static_cast<msg::DenyReason>(reason)),
                    static_cast<unsigned long long>(count),
                    100.0 * static_cast<double>(count) /
                        static_cast<double>(total_denies));
      std::cout << row;
    }
    if (summary.unknown_reason > 0) {
      std::snprintf(row, sizeof(row), "    %-20s %10llu\n", "unknown-reason",
                    static_cast<unsigned long long>(summary.unknown_reason));
      std::cout << row;
    }
  }

  summary.access_latency.print(std::cout, "access latency (submit->decide)");
  summary.round_latency.print(std::cout, "round latency (start->finish)");
  if (!summary.open_accesses.empty() || !summary.open_rounds.empty()) {
    std::cout << "  unmatched: " << summary.open_accesses.size()
              << " accesses, " << summary.open_rounds.size()
              << " rounds still open (ring overflow or truncated run)\n";
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string_view(argv[1]) == "--help" ||
      std::string_view(argv[1]) == "-h") {
    std::cerr << "usage: quora_trace FILE...\n"
                 "Summarizes compact text traces recorded via --trace "
                 "(see docs/OBSERVABILITY.md).\n";
    return argc < 2 ? 2 : 0;
  }
  int status = 0;
  for (int i = 1; i < argc; ++i) {
    const int rc = summarize(argv[i]);
    if (rc != 0) status = rc;
    if (i + 1 < argc) std::cout << '\n';
  }
  return status;
}
