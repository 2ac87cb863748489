#include "support/error.hpp"

namespace peppher {

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kInvalidState: return "invalid_state";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kIoError: return "io_error";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

void check_failed(std::string_view what) {
  throw Error(ErrorCode::kInternal, std::string(what));
}

}  // namespace peppher
