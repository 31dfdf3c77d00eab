#pragma once

#include <cstdio>
#include <cstdlib>

/// Contract macros for the invariants the paper's correctness arguments
/// rest on (quorum intersection, vote conservation, QR version
/// monotonicity, probability-mass conservation).
///
/// Policy (see docs/STATIC_ANALYSIS.md):
///  - `QUORA_PRECONDITION` guards what a *caller* must establish,
///  - `QUORA_ASSERT` guards a local step inside an algorithm,
///  - `QUORA_INVARIANT` guards a structural property that must hold on
///    every exit path (postconditions included).
/// All three are active in Debug builds and in sanitizer builds
/// (`QUORA_SANITIZE` defines `QUORA_ENABLE_CONTRACTS=1`). In plain Release
/// builds the expression moves into an unevaluated `sizeof` operand: it
/// never runs — so contract expressions must be side-effect free — yet a
/// variable read only by a contract still counts as used, so Release warns
/// about exactly what Debug warns about. API-level validation that users
/// can trigger with bad input stays as thrown exceptions; contracts cover
/// what should be impossible once that validation passed.
///
/// `QUORA_ENABLE_CONTRACTS` may be pre-defined (0 or 1) by the build
/// system to override the NDEBUG default.
#if !defined(QUORA_ENABLE_CONTRACTS)
#if defined(NDEBUG)
#define QUORA_ENABLE_CONTRACTS 0
#else
#define QUORA_ENABLE_CONTRACTS 1
#endif
#endif

namespace quora::contracts {

/// True when contract macros expand to live checks in this translation
/// unit. Tests use this to decide whether to expect a death or a no-op.
inline constexpr bool kActive = QUORA_ENABLE_CONTRACTS != 0;

/// Reports a violated contract on stderr and aborts. Kept out-of-line of
/// the macro so every expansion is a single call; `noexcept` + `abort`
/// (rather than an exception) so a violated invariant can never be
/// swallowed by a catch block and keep running on corrupt state.
[[noreturn]] inline void violation_handler(const char* kind, const char* expr,
                                           const char* file, long line,
                                           const char* message) noexcept {
  std::fprintf(stderr, "quora: %s failed: %s\n  at %s:%ld\n  %s\n", kind, expr,
               file, line, message);
  std::fflush(stderr);
  std::abort();
}

} // namespace quora::contracts

#if QUORA_ENABLE_CONTRACTS
#define QUORA_CONTRACT_CHECK_(kind, expr, msg)                               \
  ((expr) ? static_cast<void>(0)                                             \
          : ::quora::contracts::violation_handler(kind, #expr, __FILE__,     \
                                                  __LINE__, msg))
#else
#define QUORA_CONTRACT_CHECK_(kind, expr, msg) \
  static_cast<void>(sizeof((expr) ? 1 : 0))
#endif

/// A local algorithmic step that must hold at this point.
#define QUORA_ASSERT(expr, msg) QUORA_CONTRACT_CHECK_("assertion", expr, msg)

/// A structural property of the data (quorum intersection, conserved
/// votes, monotone versions, unit probability mass).
#define QUORA_INVARIANT(expr, msg) QUORA_CONTRACT_CHECK_("invariant", expr, msg)

/// A condition the caller must have established before entry.
#define QUORA_PRECONDITION(expr, msg) \
  QUORA_CONTRACT_CHECK_("precondition", expr, msg)
