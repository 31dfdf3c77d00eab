#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/analysis_annotations.hpp"

namespace quora::conn::bits {

/// Packed-bitset word primitives for the liveness/connectivity data path.
///
/// Site liveness, the dense adjacency rows and the protocol's site sets
/// are packed 64-bit words (bit i of word i/64 = element i), addressed
/// through the helpers below: one AND batches 64 neighbor-liveness tests.

using Word = std::uint64_t;
inline constexpr std::uint32_t kWordBits = 64;

/// Number of 64-bit words needed to hold `n` bits.
constexpr std::size_t word_count(std::size_t n) noexcept {
  return (n + kWordBits - 1) / kWordBits;
}

/// True if bit `i` of the packed set at `w` is on.
constexpr bool test_bit(const Word* w, std::size_t i) noexcept {
  return ((w[i / kWordBits] >> (i % kWordBits)) & 1u) != 0;
}

/// Turns bit `i` of the packed set at `w` on, or off when `on` is false.
constexpr void set_bit(Word* w, std::size_t i, bool on = true) noexcept {
  const Word mask = Word{1} << (i % kWordBits);
  w[i / kWordBits] = (w[i / kWordBits] & ~mask) | (on ? mask : 0);
}

/// Number of bits set in `w`.
constexpr std::size_t count(std::span<const Word> w) noexcept {
  std::size_t n = 0;
  for (const Word x : w) n += static_cast<std::size_t>(std::popcount(x));
  return n;
}

/// Calls `f(i)` for every bit `i` set in `w`, in ascending order.
template <class F>
constexpr void for_each_bit(std::span<const Word> w, F&& f) {
  for (std::size_t k = 0; k < w.size(); ++k)
    for (Word x = w[k]; x != 0; x &= x - 1)
      f(k * kWordBits + static_cast<std::size_t>(std::countr_zero(x)));
}

/// dst[i] |= a[i] & b[i] for i in [0, n). This is the word-parallel BFS
/// frontier step: `a` is an adjacency-row bitset, `b` the not-yet-assigned
/// liveness words, `dst` the next frontier.
QUORA_HOT_PATH inline void or_and(Word* dst, const Word* a, const Word* b,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= a[i] & b[i];
}

}  // namespace quora::conn::bits
