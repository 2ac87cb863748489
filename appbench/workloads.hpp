// The benchmark's three application workloads. Each drives one application
// through the public API of runtime/engine.hpp from a single submitting
// thread, with a span around every call into the runtime, and checks its
// results against the application's serial reference.
//
// A *step* is the unit whose wall latency the benchmark reports: one RK step
// (ode_chain), one six-matrix SpMV pass (spmv_hybrid) or one fixed-sweep
// Jacobi solve (jacobi_halo). A *unit* is the smallest repeated piece with a
// well-defined virtual makespan: an ODE solve of kOdeStepsPerSolve steps, or
// one step for the other two workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "stats.hpp"

namespace appbench {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ode_chain", "spmv_hybrid",
                                                 "jacobi_halo"};
  return names;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs one step. Spans (if enabled) record every runtime call.
  virtual void step(Spans& spans) = 0;

  /// True when the last step's results match the serial reference (outside
  /// the timed region). Also false when the step saw a task error.
  virtual bool check_last() = 0;

  /// Runs one step's kernels with no runtime (the application's direct /
  /// serial path) and returns its wall seconds.
  virtual double direct_step_seconds() = 0;

  peppher::rt::Engine& engine() { return *engine_; }
  const peppher::rt::Engine& engine() const { return *engine_; }

  /// Virtual makespan of every unit completed so far, in seconds.
  const std::vector<double>& unit_makespans() const { return unit_makespans_; }
  int steps_per_unit() const { return steps_per_unit_; }

  /// PCIe / inter-node traffic summed over all steps (the engine's own
  /// counters are reset by the applications' per-unit clock resets).
  const peppher::rt::TransferStats& transfers() const { return transfers_; }

  /// Engine threads (workers plus prefetch thread) the engine started.
  int engine_threads() const { return engine_threads_; }

  /// One line describing the input and engine configuration.
  virtual std::string describe() const = 0;

 protected:
  /// Waits out in-flight tasks and prefetches. Every derived destructor
  /// calls it: the derived class's buffers die before the base's engine.
  void quiesce();
  /// False when tasks failed since the previous call (check_last's task
  /// error gate: a failed task's successors are cancelled, not rerun).
  bool no_new_task_failures();
  void add_transfers(const peppher::rt::TransferStats& delta);

  std::unique_ptr<peppher::rt::Engine> engine_;
  std::vector<double> unit_makespans_;
  int steps_per_unit_ = 1;
  peppher::rt::TransferStats transfers_;
  int engine_threads_ = 0;
  std::uint64_t tasks_failed_seen_ = 0;
};

/// Builds a workload: engine construction, input generation from `seed`,
/// registration and warm-up (history-model calibration) — the set-up the
/// benchmark times as setup_s. `trace` sets EngineConfig::enable_trace.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool trace);

}  // namespace appbench
