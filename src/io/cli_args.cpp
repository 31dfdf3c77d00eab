#include "io/cli_args.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace quora::io {

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

} // namespace quora::io
