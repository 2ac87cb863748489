#include "compose/dispatch.hpp"

#include <limits>
#include <set>

namespace peppher::compose {

rt::DispatchTable predict_dispatch(const ComponentNode& component,
                                   const std::vector<std::size_t>& scenario_bytes,
                                   const Predictor& predict) {
  rt::DispatchTable table;
  for (std::size_t bytes : scenario_bytes) {
    std::optional<rt::Arch> best;
    double best_seconds = std::numeric_limits<double>::infinity();
    for (const VariantNode* variant : component.enabled_variants()) {
      const std::optional<double> seconds = predict(variant->arch(), bytes);
      if (seconds.has_value() && *seconds < best_seconds) {
        best = variant->arch();
        best_seconds = *seconds;
      }
    }
    if (best.has_value()) table.train(component.interface.name, 0, -1, *best);
  }
  table.finalize();
  return table;
}

int narrow_with_table(ComponentNode& component, const rt::DispatchTable& table) {
  std::set<rt::Arch> voted;
  for (const rt::DispatchTable::Entry& entry : table.entries()) {
    if (entry.codelet == component.interface.name) voted.insert(entry.arch);
  }
  if (voted.empty()) return 0;
  int disabled = 0;
  for (VariantNode& variant : component.variants) {
    if (variant.enabled && voted.count(variant.arch()) == 0) {
      variant.enabled = false;
      variant.disabled_reason = "never selected by the static dispatch table";
      ++disabled;
    }
  }
  return disabled;
}

Predictor history_predictor(const rt::PerfRegistry& registry,
                            const std::string& component_name) {
  return [&registry, component_name](rt::Arch arch,
                                     std::size_t bytes) -> std::optional<double> {
    return registry.regression_estimate(component_name, arch, bytes);
  };
}

}  // namespace peppher::compose
