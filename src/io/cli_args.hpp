#pragma once

#include <cstdint>
#include <string_view>

namespace quora::io {

/// Strict parse of one unsigned command-line value, shared by the tools
/// and benches so every numeric flag fails the same way: the whole token
/// must be an integer in [min, max], written in `base` (0 also accepts
/// 0x/0 prefixes). A sign, leading whitespace, trailing characters or a
/// value past 2^64-1 is rejected — std::stoull would wrap "-1" to 2^64-1
/// and read "5x" as 5. Throws std::invalid_argument("expects an integer
/// in [MIN, MAX], got \"TOKEN\"") for the caller to prefix with the flag.
std::uint64_t parse_uint(std::string_view token, std::uint64_t min,
                         std::uint64_t max, int base = 10);

/// The floating-point counterpart: the whole token must be a finite number
/// in [min, max]. Leading whitespace, trailing characters, "nan", "inf" and
/// values that overflow or underflow are rejected — std::stod reads "5x"
/// as 5. Throws std::invalid_argument("expects a number in [MIN, MAX], got
/// \"TOKEN\"") for the caller to prefix with the flag.
double parse_double(std::string_view token, double min, double max);

} // namespace quora::io
