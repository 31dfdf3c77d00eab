#include "io/cli_args.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace quora::io {
namespace {

/// Shortest round-trip spelling of a bound ("0", "1", "1e+09").
std::string format_bound(double value) {
  char buf[32];  // the longest shortest-form double takes 24 characters
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

} // namespace

std::uint64_t parse_uint(std::string_view token, std::uint64_t min,
                         std::uint64_t max, int base) {
  const std::string text(token);
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, base);
  // strtoull skips whitespace and takes a sign, so demand a leading digit.
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
      end != text.c_str() + text.size() || errno == ERANGE || parsed < min ||
      parsed > max) {
    throw std::invalid_argument("expects an integer in [" + std::to_string(min) +
                                ", " + std::to_string(max) + "], got \"" + text +
                                "\"");
  }
  return parsed;
}

double parse_double(std::string_view token, double min, double max) {
  const std::string text(token);
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  // strtod skips leading whitespace, so demand the token start on it.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0 ||
      end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(parsed) || parsed < min || parsed > max) {
    throw std::invalid_argument("expects a number in [" + format_bound(min) +
                                ", " + format_bound(max) + "], got \"" + text +
                                "\"");
  }
  return parsed;
}

} // namespace quora::io
