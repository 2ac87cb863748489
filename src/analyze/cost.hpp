// Cost domain of the static analyser (peppher-predict): intervals of
// virtual seconds plus a per-(component, architecture) execution-time
// evaluator backed by the runtime's own performance models.
//
// The evaluator deliberately reuses PerfRegistry::estimate_exec — the exact
// formula the dmda scheduler applies online — as its first choice, so that
// on fully-observed sizes the static per-task estimate and the scheduler's
// estimate agree to round-off (a test pins this). Only at unobserved sizes
// does it continue to the Extra-P-style multi-term model and the power-law
// regression.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/perfmodel.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"

namespace peppher::analyze {

/// A cost interval in virtual seconds: `est` is the trajectory estimate the
/// predictor reports (greedy dmda-like placement), [lo, hi] brackets it
/// with the best/worst feasible per-point choices.
struct CostInterval {
  double lo = 0.0;
  double est = 0.0;
  double hi = 0.0;

  static CostInterval point(double v) { return {v, v, v}; }

  CostInterval& operator+=(const CostInterval& other) {
    lo += other.lo;
    est += other.est;
    hi += other.hi;
    return *this;
  }

  CostInterval scaled(double factor) const {
    return {lo * factor, est * factor, hi * factor};
  }

  /// Interval hull of two alternatives (if-branch join); the estimate takes
  /// the pessimistic branch, matching the verifier's all-paths stance.
  static CostInterval hull(const CostInterval& a, const CostInterval& b);
};

/// How one execution-time figure was obtained, best to worst.
enum class EstimateSource {
  kCalibrated,  ///< exact-footprint mean (>= calibration_min samples)
  kMultiTerm,   ///< cross-validated multi-term model (Extra-P style)
  kRegression,  ///< power-law regression over recorded sizes
  kGuess,       ///< no history at all: neutral 1 ms guess
};

std::string_view to_string(EstimateSource source) noexcept;

/// Per-machine cost oracle: execution time per (component, arch) from the
/// loaded performance models, transfer time from the machine's link. It
/// keeps its own copy of the machine, so a temporary MachineConfig may be
/// passed; the models are referenced and must outlive it.
class CostEvaluator {
 public:
  /// Relative cross-validation error above which a multi-term estimate is
  /// flagged low-confidence (PL072).
  static constexpr double kCvErrorThreshold = 0.25;
  /// Extrapolation slack: a queried size outside the observed byte range
  /// by more than this factor is flagged low-confidence (PL072).
  static constexpr double kExtrapolationSlack = 2.0;
  /// Neutral guess when no history exists, matching the engine's fallback.
  static constexpr double kNeutralGuessSeconds = 1e-3;

  CostEvaluator(const sim::MachineConfig& machine,
                const rt::PerfRegistry& models, std::uint64_t calibration_min)
      : machine_(machine), models_(models), calibration_min_(calibration_min) {}

  /// True when the machine provides a worker for `arch`.
  bool arch_on_machine(rt::Arch arch) const;

  /// Abstract side (kHostSide / kDeviceSide) an architecture executes on.
  static int side_of(rt::Arch arch);

  struct Exec {
    double seconds = 0.0;
    EstimateSource source = EstimateSource::kGuess;
    bool low_confidence = false;  ///< extrapolated or poorly cross-validated
  };

  /// Execution-time estimate for one call of `codelet` on `arch` with the
  /// given operand footprint/total size.
  Exec exec_seconds(const std::string& codelet, rt::Arch arch,
                    std::uint64_t footprint, std::size_t total_bytes) const;

  /// One host<->accelerator hop of `bytes` over the machine's link.
  double transfer_seconds(std::size_t bytes) const {
    return sim::transfer_seconds(machine_.link, bytes);
  }

  /// Memory capacity (bytes) of the machine's smallest accelerator, or 0
  /// when the machine has none.
  std::size_t device_capacity_bytes() const;

  const sim::MachineConfig& machine() const { return machine_; }
  const rt::PerfRegistry& models() const { return models_; }

 private:
  const sim::MachineConfig machine_;
  const rt::PerfRegistry& models_;
  std::uint64_t calibration_min_;
};

}  // namespace peppher::analyze
