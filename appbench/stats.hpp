// Statistics and wall-clock spans of the application benchmark.
//
// Header-only so the self-test (stats_test.cpp) exercises exactly the code
// the benchmark runs. Percentiles use the nearest-rank definition: the p-th
// percentile of n sorted samples is the ceil(p/100 * n)-th smallest, so it
// is always one of the measured values.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace appbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

/// 1-based nearest rank of the p-th percentile of n samples, ceil(p/100 * n)
/// clamped to [1, n]. The small slack keeps e.g. 99.9% of 10000 at rank 9990
/// despite 99.9 having no exact binary representation.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return static_cast<std::size_t>(
      std::clamp(rank, 1.0, std::max(1.0, static_cast<double>(n))));
}

/// Nearest-rank percentile, p in (0, 100]; 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t index = nearest_rank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

/// Samples that lie strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest percentile of the ladder 50, 90, 95, 99, 99.9 that still has
/// at least `min_beyond` samples beyond it; 0 when even the median has not.
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

/// Uniform random sample of at most `capacity` values out of everything
/// added (reservoir sampling, Algorithm R), so a run's memory does not grow
/// with its step count. Deterministic for a given seed.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed = 1)
      : capacity_(capacity), state_(seed) {}

  void add(double value) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(value);
      return;
    }
    const std::uint64_t slot = next() % seen_;
    if (slot < capacity_) samples_[static_cast<std::size_t>(slot)] = value;
  }

  std::uint64_t seen() const noexcept { return seen_; }
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
};

/// Layers the benchmark puts spans around, named after their modules. kStep
/// is the root span of one workload step; its self time is host work the
/// benchmark did not attribute to a layer.
enum class Layer : std::uint8_t {
  kStep,
  kApp,         ///< apps: building task arguments/operands, reading results
  kRegister,    ///< runtime.engine: Engine::register_buffer
  kUnregister,  ///< runtime.engine: Engine::unregister
  kSubmit,      ///< runtime.engine: Engine::submit
  kWait,        ///< runtime.engine: Engine::wait_for_all
  kResetClock,  ///< runtime.engine: Engine::reset_virtual_time
  kAcquire,     ///< runtime.memory: Engine::acquire_host
  kPrefetch,    ///< runtime.memory: Engine::prefetch
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

inline const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kStep: return "step";
    case Layer::kApp: return "apps";
    case Layer::kRegister: return "engine.register";
    case Layer::kUnregister: return "engine.unregister";
    case Layer::kSubmit: return "engine.submit";
    case Layer::kWait: return "engine.wait";
    case Layer::kResetClock: return "engine.reset_virtual_time";
    case Layer::kAcquire: return "memory.acquire_host";
    case Layer::kPrefetch: return "memory.prefetch";
    case Layer::kCount: break;
  }
  return "?";
}

/// Seconds on the monotonic clock.
inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for one thread. Disabled recorders cost one
/// branch per span and record nothing (the untraced run).
class Spans {
 public:
  using Clock = double (*)();

  struct LayerStats {
    std::uint64_t count = 0;
    double total_s = 0.0;          ///< sum of span durations
    double self_s = 0.0;           ///< durations minus child-span cover
    std::vector<double> samples_s; ///< every span duration, in close order
  };

  explicit Spans(bool enabled, Clock clock = &steady_seconds)
      : enabled_(enabled), clock_(clock) {}

  void open(Layer layer) {
    if (!enabled_) return;
    stack_.push_back({layer, clock_(), 0.0});
  }

  void close() {
    if (!enabled_ || stack_.empty()) return;
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double duration = clock_() - frame.start;
    LayerStats& stats = stats_[static_cast<std::size_t>(frame.layer)];
    ++stats.count;
    stats.total_s += duration;
    stats.self_s += duration - frame.children_s;
    stats.samples_s.push_back(duration);
    if (!stack_.empty()) stack_.back().children_s += duration;
  }

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }

  /// Sum of every layer's self time. For spans that all nest under kStep
  /// roots this equals the summed root durations exactly.
  double total_self_s() const {
    double sum = 0.0;
    for (const LayerStats& stats : stats_) sum += stats.self_s;
    return sum;
  }

 private:
  struct Frame {
    Layer layer;
    double start;
    double children_s;
  };

  bool enabled_;
  Clock clock_;
  std::vector<Frame> stack_;
  std::array<LayerStats, kLayerCount> stats_{};
};

/// RAII span: open on construction, close on scope exit.
class Span {
 public:
  Span(Spans& spans, Layer layer) : spans_(spans) { spans_.open(layer); }
  ~Span() { spans_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
};

}  // namespace appbench
