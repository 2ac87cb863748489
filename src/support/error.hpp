// Error handling primitives shared by every PEPPHER module.
//
// The library uses exceptions (derived from peppher::Error) for genuinely
// exceptional conditions (malformed descriptors, broken invariants, I/O
// failures) and plain return values / std::optional for expected "not found"
// cases, following the C++ Core Guidelines (E.2, E.3).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace peppher {

/// Coarse classification of a PEPPHER error, useful for tests and for
/// callers that want to react differently to user errors vs internal bugs.
enum class ErrorCode {
  kInvalidArgument,  ///< caller passed something nonsensical
  kParseError,       ///< malformed XML / declaration / descriptor text
  kNotFound,         ///< a named entity (interface, file, impl) is missing
  kInvalidState,     ///< API used out of order (e.g. runtime not started)
  kUnsupported,      ///< feature combination not supported
  kIoError,          ///< filesystem or process-level failure
  kInternal,         ///< invariant violation inside the library
};

/// Human-readable name of an ErrorCode ("parse_error", ...).
std::string_view to_string(ErrorCode code) noexcept;

/// Root exception type for the whole library.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(to_string(code)) + ": " + message),
        code_(code) {}

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Thrown when parsing XML descriptors or C declarations fails.
class ParseError : public Error {
 public:
  /// @param where human-readable location, e.g. "line 12".
  ParseError(const std::string& message, const std::string& where = {})
      : Error(ErrorCode::kParseError,
              where.empty() ? message : message + " (" + where + ")") {}

  /// Location-carrying form: the structured 1-based line/column survive
  /// rethrows, so diagnostics (PL000) can point at the offending character
  /// instead of just the file. 0 means unknown.
  ParseError(const std::string& message, int line, int column)
      : Error(ErrorCode::kParseError,
              message + " (line " + std::to_string(line) + ", column " +
                  std::to_string(column) + ")"),
        line_(line),
        column_(column) {}

  /// Rethrow form: adds `where` to the text while carrying over an already
  /// known structured line/column unchanged.
  ParseError(const std::string& message, const std::string& where, int line,
             int column)
      : Error(ErrorCode::kParseError,
              where.empty() ? message : message + " (" + where + ")"),
        line_(line),
        column_(column) {}

  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_ = 0;
  int column_ = 0;
};

/// Throws Error(kInternal) carrying `what`; the cold half of check().
[[noreturn]] void check_failed(std::string_view what);

/// Throws Error(kInternal) when `condition` is false. Used for internal
/// invariants that should hold regardless of user input; inline so that
/// the runtime's hot paths pay one predictable branch per check, cheap
/// enough to keep enabled in release builds.
inline void check(bool condition, std::string_view what) {
  if (!condition) [[unlikely]] check_failed(what);
}

}  // namespace peppher
