#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace quora::io {

/// Parse failure with 1-based line number context.
class ParseError : public std::runtime_error {
public:
  ParseError(std::size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  std::size_t line() const noexcept { return line_; }

private:
  std::size_t line_;
};

/// One directive of a line-oriented input file: the whitespace-separated
/// tokens of a non-blank line with its `#` comment removed. `tokens[0]` is
/// the keyword; `line` is the 1-based line in the file, kept so that every
/// dialect layered on the system format reports the file's own line.
struct Directive {
  std::size_t line = 0;
  std::vector<std::string> tokens;
};

/// Reads every directive of `in`, in file order. Blank and comment-only
/// lines produce none. This is the one scanner behind the system format,
/// `.quora`, `.chaos` and `.model`: each dialect claims its own keywords
/// and passes the remaining `Directive`s down unchanged.
std::vector<Directive> read_directives(std::istream& in);

/// Strict cursor over one directive's tokens after its keyword. Numbers go
/// through `io::parse_uint` / `io::parse_double`, the rule the CLI flags
/// use: the whole token must be the number, unsigned values take no sign.
/// Every failure throws `ParseError` at the directive's line with the
/// caller's message. The cursor refers to `directive`, which must outlive
/// it and every token reference it returns.
class Cells {
public:
  explicit Cells(const Directive& directive) : directive_(directive) {}

  const std::string& keyword() const { return directive_.tokens.front(); }
  std::size_t line() const { return directive_.line; }
  bool at_end() const { return next_ == directive_.tokens.size(); }

  /// The next token; fails with `error` when none is left.
  const std::string& word(const std::string& error);
  /// Consumes the next token, which must be `keyword`.
  void expect(const std::string& keyword, const std::string& error);
  std::uint32_t u32(const std::string& error);
  std::uint64_t u64(const std::string& error);
  /// Any finite double.
  double number(const std::string& error);
  /// Reads an already consumed `token` as an integer in [0, max].
  std::uint64_t uint(const std::string& token, std::uint64_t max,
                     const std::string& error) const;
  /// Fails with "trailing junk 'X'" unless every token was consumed.
  void done() const;
  [[noreturn]] void fail(const std::string& what) const;

private:
  const Directive& directive_;
  std::size_t next_ = 1;
};

} // namespace quora::io
