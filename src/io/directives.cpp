#include "io/directives.hpp"

#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/cli_args.hpp"

namespace quora::io {

std::vector<Directive> read_directives(std::istream& in) {
  std::vector<Directive> directives;
  std::string raw;
  std::size_t line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::istringstream cells(raw.substr(0, raw.find('#')));
    Directive directive{line, {}};
    for (std::string token; cells >> token;) {
      directive.tokens.push_back(std::move(token));
    }
    if (!directive.tokens.empty()) directives.push_back(std::move(directive));
  }
  return directives;
}

const std::string& Cells::word(const std::string& error) {
  if (at_end()) fail(error);
  return directive_.tokens[next_++];
}

void Cells::expect(const std::string& keyword, const std::string& error) {
  if (word(error) != keyword) fail(error);
}

std::uint32_t Cells::u32(const std::string& error) {
  return static_cast<std::uint32_t>(
      uint(word(error), std::numeric_limits<std::uint32_t>::max(), error));
}

std::uint64_t Cells::u64(const std::string& error) {
  return uint(word(error), std::numeric_limits<std::uint64_t>::max(), error);
}

double Cells::number(const std::string& error) {
  const std::string& token = word(error);
  try {
    return parse_double(token, std::numeric_limits<double>::lowest(),
                        std::numeric_limits<double>::max());
  } catch (const std::invalid_argument&) {
    fail(error);
  }
}

std::uint64_t Cells::uint(const std::string& token, std::uint64_t max,
                          const std::string& error) const {
  try {
    return parse_uint(token, 0, max);
  } catch (const std::invalid_argument&) {
    fail(error);
  }
}

void Cells::done() const {
  if (!at_end()) fail("trailing junk '" + directive_.tokens[next_] + "'");
}

void Cells::fail(const std::string& what) const {
  throw ParseError(directive_.line, what);
}

} // namespace quora::io
