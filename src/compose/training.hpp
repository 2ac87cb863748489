// Training executions / microbenchmarking (§III step 2: the tool "looks up
// prediction data from the performance data repository or runs
// microbenchmarking code on the target platform") packaged as a library
// API: run every enabled variant of a component over a set of context
// scenarios, record the timings in the engine's performance registry
// (persisted via the engine's sampling directory), and derive a static
// dispatch table from the result.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "compose/dispatch.hpp"
#include "runtime/engine.hpp"

namespace peppher::compose {

/// Builds one training task for a scenario. The factory owns scenario
/// setup: it registers whatever operand data the component needs (keeping
/// it alive via `keepalive`) and returns the TaskSpec — without forced_arch,
/// which the trainer controls.
using TrainingTaskFactory = std::function<rt::TaskSpec(
    rt::Engine& engine, std::size_t scenario,
    std::vector<rt::DataHandlePtr>& keepalive)>;

/// One (architecture, scenario) measurement.
struct TrainingSample {
  rt::Arch arch = rt::Arch::kCpu;
  std::size_t scenario = 0;      ///< the scenario value given to the factory
  std::size_t total_bytes = 0;   ///< operand footprint of the built task
  double seconds = 0.0;          ///< mean virtual execution time
  std::uint64_t runs = 0;
};

struct TrainingReport {
  std::string component;
  std::vector<TrainingSample> samples;

  /// Scenario footprints (bytes) seen during training — the natural
  /// scenario set for predict_dispatch.
  std::vector<std::size_t> scenario_bytes() const;
};

/// Runs `repeats` executions of the component on every architecture that
/// has an enabled variant on the engine's machine, for every scenario, and
/// returns the measurements (which are also in engine.perf(), keyed by the
/// codelet name). Architectures whose variants cannot serve a scenario
/// (selectability constraints) are skipped for that scenario.
TrainingReport train_component(rt::Engine& engine, const rt::Codelet& codelet,
                               const TrainingTaskFactory& factory,
                               const std::vector<std::size_t>& scenarios,
                               int repeats = 3);

/// Convenience: train, then build the finalized dispatch table from the
/// recorded history at the training scenarios' footprints.
rt::DispatchTable train_and_build_table(
    rt::Engine& engine, ComponentNode& component, const rt::Codelet& codelet,
    const TrainingTaskFactory& factory,
    const std::vector<std::size_t>& scenarios, int repeats = 3);

}  // namespace peppher::compose
