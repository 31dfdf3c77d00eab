#include "lint_types.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <tuple>

#include "io/config_audit.hpp"

namespace quora::lint {

namespace {

struct CodeRow {
  LintCode code;
  const char* tag;
  const char* name;
  const char* summary;
};

// Append-only; tags are what baselines and suppression comments store.
constexpr CodeRow kCodes[kLintCodeCount] = {
    {LintCode::kL001SideEffectObsArg, "L001", "obs-macro-side-effect",
     "argument to QUORA_TRACE / QUORA_METRIC_* has a side effect; the "
     "expression vanishes when QUORA_OBS=OFF, so the two builds diverge"},
    {LintCode::kL002SideEffectContractArg, "L002", "contract-side-effect",
     "argument to QUORA_ASSERT / QUORA_INVARIANT / QUORA_PRECONDITION has "
     "a side effect; contracts compile out in Release builds"},
    {LintCode::kL003ForbiddenEntropy, "L003", "forbidden-entropy-source",
     "nondeterministic source (std::random_device, rand, time, "
     "*_clock::now) in a deterministic layer; draw from the seeded "
     "rng:: streams instead"},
    {LintCode::kL004UnorderedIteration, "L004", "unordered-iteration",
     "iteration over an unordered container in transcript-feeding code; "
     "iteration order is unspecified and breaks byte-stable replays"},
    {LintCode::kL005RawObsCall, "L005", "raw-obs-call",
     "raw TraceRecorder / metric-handle call bypasses the QUORA_TRACE / "
     "QUORA_METRIC_* gating macros, so it survives QUORA_OBS=OFF builds"},
    {LintCode::kL006HotPathAllocation, "L006", "hot-path-allocation",
     "function reachable from a QUORA_HOT_PATH entry performs a heap "
     "allocation (new/delete, container growth, string construction); "
     "hot paths must be transitively allocation-free"},
    {LintCode::kL007CrossShardState, "L007", "cross-shard-state",
     "shard confinement violation: an annotated entry point reaches "
     "QUORA_SHARD_LOCAL state of a different domain, or the shard "
     "annotations on one symbol conflict"},
    {LintCode::kL008UnsharedGlobalState, "L008", "unshared-global-state",
     "mutable global/static state reachable from an annotated hot path "
     "is neither const nor QUORA_SHARD_SHARED; shared state must be "
     "declared before the parallel simulator can rely on it"},
    {LintCode::kL009RawConcurrencyPrimitive, "L009",
     "raw-concurrency-primitive",
     "raw std::mutex / std::atomic / thread_local in a protocol layer; "
     "the simulator and model checker own all scheduling, so ad-hoc "
     "synchronization hides interleavings from them — declare the state "
     "QUORA_SHARD_SHARED or keep it out of the protocol layers"},
};

const CodeRow& row(LintCode code) {
  return kCodes[static_cast<std::size_t>(code)];
}

} // namespace

const char* lint_code_tag(LintCode code) { return row(code).tag; }
const char* lint_code_name(LintCode code) { return row(code).name; }
const char* lint_code_summary(LintCode code) { return row(code).summary; }

bool parse_lint_code_tag(std::string_view tag, LintCode* out) {
  if (tag.size() != 4) return false;
  std::string upper(tag);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  for (const CodeRow& r : kCodes) {
    if (upper == r.tag) {
      if (out != nullptr) *out = r.code;
      return true;
    }
  }
  return false;
}

const char* lint_severity_name(LintSeverity severity) {
  return severity == LintSeverity::kError ? "error" : "warning";
}

bool finding_less(const Finding& a, const Finding& b) {
  return std::tie(a.path, a.line, a.column, a.code, a.message) <
         std::tie(b.path, b.line, b.column, b.code, b.message);
}

std::size_t unsuppressed_count(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed && !f.baselined) ++n;
  }
  return n;
}

void write_findings_text(std::ostream& out, const std::vector<Finding>& findings,
                         bool show_suppressed) {
  for (const Finding& f : findings) {
    if ((f.suppressed || f.baselined) && !show_suppressed) continue;
    out << f.path << ':' << f.line << ':' << f.column << ": "
        << lint_severity_name(f.severity) << ": [" << lint_code_tag(f.code)
        << ' ' << lint_code_name(f.code) << "] " << f.message;
    if (f.suppressed) out << " (suppressed)";
    if (f.baselined) out << " (baselined)";
    out << '\n';
  }
}

void write_findings_json(std::ostream& out, const std::vector<Finding>& findings,
                         bool include_all) {
  out << '[';
  bool first = true;
  for (const Finding& f : findings) {
    if ((f.suppressed || f.baselined) && !include_all) continue;
    out << (first ? "\n" : ",\n") << "  {\"code\": ";
    io::write_json_string(out, lint_code_name(f.code));
    out << ", \"tag\": ";
    io::write_json_string(out, lint_code_tag(f.code));
    out << ", \"severity\": ";
    io::write_json_string(out, lint_severity_name(f.severity));
    out << ", \"path\": ";
    io::write_json_string(out, f.path);
    out << ", \"line\": " << f.line << ", \"column\": " << f.column
        << ", \"message\": ";
    io::write_json_string(out, f.message);
    if (f.suppressed) out << ", \"suppressed\": true";
    if (f.baselined) out << ", \"baselined\": true";
    out << '}';
    first = false;
  }
  out << (first ? "]\n" : "\n]\n");
}

} // namespace quora::lint
