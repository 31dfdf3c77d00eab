#pragma once

#include <cstddef>
#include <cstdint>

#include "core/analysis_annotations.hpp"

namespace quora::conn::bits {

/// Packed-bitset word primitives for the liveness/connectivity data path.
///
/// Site liveness and the dense adjacency rows are stored as packed 64-bit
/// words (bit i of word i/64 = element i), so a single AND batches 64
/// neighbor-liveness tests and a popcount tallies 64 memberships.

using Word = std::uint64_t;
inline constexpr std::uint32_t kWordBits = 64;

/// Number of 64-bit words needed to hold `n` bits.
constexpr std::size_t word_count(std::size_t n) noexcept {
  return (n + kWordBits - 1) / kWordBits;
}

/// dst[i] |= a[i] & b[i] for i in [0, n). This is the word-parallel BFS
/// frontier step: `a` is an adjacency-row bitset, `b` the not-yet-assigned
/// liveness words, `dst` the next frontier.
QUORA_HOT_PATH inline void or_and(Word* dst, const Word* a, const Word* b,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= a[i] & b[i];
}

}  // namespace quora::conn::bits
