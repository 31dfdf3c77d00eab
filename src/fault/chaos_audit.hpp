#pragma once

#include <iosfwd>
#include <string>

#include "fault/fault_plan.hpp"
#include "io/config_audit.hpp"

namespace quora::fault {

/// Static audit of a `.chaos` fault plan, the chaos-side twin of
/// `io::audit_config`: parses the scenario, then validates the schedule
/// (horizon present, windows well-formed, probabilities in range,
/// partition groups disjoint — `io::AuditCode::kChaosBadSchedule`) and
/// every component reference against the embedded topology
/// (`kChaosUnknownTarget`). Quorum directives — the initial assignment and
/// every `reassign` target — reuse the existing quorum codes
/// (`kQuorumRange`, `kQuorumIntersection`, `kWriteWriteIntersection`), so
/// one report vocabulary covers both file kinds. This is what quora-check
/// runs when handed a `.chaos` file.
io::AuditReport audit_chaos(std::istream& in);
io::AuditReport audit_chaos_file(const std::string& path);
/// The audit of an already parsed scenario (no `kParseError` findings).
io::AuditReport audit_chaos(const ChaosSpec& spec);

} // namespace quora::fault
