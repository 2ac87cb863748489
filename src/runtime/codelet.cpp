#include "runtime/codelet.hpp"

#include <atomic>

#include "support/strings.hpp"

namespace peppher::rt {

Codelet::Codelet(std::string name) : name_(std::move(name)) {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

int Codelet::disable_impls(std::string_view what) {
  const std::string needle = strings::to_lower(strings::trim(what));
  int disabled = 0;
  for (auto& impl : impls_) {
    const bool arch_match = strings::to_lower(to_string(impl.arch)) == needle;
    const bool name_match = strings::to_lower(impl.name) == needle;
    if (arch_match || name_match) {
      if (impl.enabled) ++disabled;
      impl.enabled = false;
    }
  }
  return disabled;
}

}  // namespace peppher::rt
