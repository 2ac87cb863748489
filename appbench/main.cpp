// Application benchmark entry point. One workload per invocation:
//
//   appbench --workload <ode_chain|spmv_hybrid|jacobi_halo> --seed <n>
//            --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with every span off: set-up time
// (median of kSetups set-ups spread over the run), step latency through the
// runtime against the same kernels called directly, and peak RSS, plus the
// ungated step latency, task throughput, tail latency and virtual makespan.
// --trace 1 gives the per-layer table: it alternates short slices of an
// untraced engine, a traced engine (benchmark spans plus
// EngineConfig::enable_trace) and the application's direct path, so the
// tracing overhead and the runtime overhead come from the same time window.
//
// Before anything else the process confines itself to one CPU, runs as
// SCHED_BATCH and keeps freed heap memory (see configure_process), in both
// modes.
//
// Every step is checked against the application's serial reference. The
// last stdout line is one JSON object {correct, attempted, failed, metrics};
// the lines before it print every metric with its unit and clock, the host
// fingerprint and the per-unit virtual makespans.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace rt = peppher::rt;
using namespace appbench;

namespace {

constexpr int kSetups = 7;             ///< set-ups per run; setup_s is their median
constexpr std::size_t kMinSteps = 200; ///< p95 needs >= 10 samples beyond it
/// step_ms_p95 is the median of the p95 of consecutive windows of this many
/// steps: each window's p95 has exactly 10 samples beyond it, and the median
/// over windows keeps one burst of host noise from setting a run's tail.
constexpr std::size_t kTailWindowSteps = kMinSteps;
constexpr double kSliceSeconds = 0.25; ///< runtime slice; direct gets half
constexpr double kWarmupSeconds = 2.0; ///< untimed steps before step_ms_p50
constexpr double kUnattributedBound = 0.05;  ///< step self time / step time
constexpr double kRateWindowSeconds = 1.0;   ///< tasks_per_s window
constexpr std::size_t kStepSampleCap = 1 << 16;  ///< step-time reservoir

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  ///< wall, virtual or - (neither)
};

struct Args {
  std::string cpu;  ///< set by configure_process
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <ode_chain|spmv_hybrid|jacobi_halo> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      usage(argv[0]);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end() ||
      args.seconds <= 0.0) {
    usage(argv[0]);
  }
  return args;
}

/// Confines the process (and so every engine thread it starts later) to the
/// last CPU it may run on, makes it SCHED_BATCH, and makes malloc keep freed
/// memory. Returns the CPU for the fingerprint.
///
/// All three take noise of the guest out of step times; the runtime's own
/// work in a step is unchanged. A wake-up of a thread on another vCPU, a TLB
/// shootdown and a page fault are each an exit to the host, whose latency
/// follows the host's load. Left free, ode_chain's submitting thread and
/// GPU worker shared a vCPU in some runs and not in others, and the step
/// median moved 20-30% between runs with it. When the host was busy, a
/// jacobi_halo step on three CPUs slowed 40% more than its serial direct
/// path did; on one CPU both slow alike, and step_vs_direct stays put.
/// SCHED_BATCH keeps a wake-up from preempting the waker, so the submitting
/// thread issues a step's tasks in one go instead of trading the CPU with
/// the worker after each task. jacobi_halo frees and reallocates its device
/// replicas (about 2.6 MB) every step; with glibc's default thresholds the
/// heap returns those pages and every step faults them in again, about 660
/// faults a step. Kept mapped, a step faults none; the allocations
/// themselves still run and count.
std::string configure_process() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum on 64-bit hosts
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const sched_param batch{};
  if (sched_setscheduler(0, SCHED_BATCH, &batch) != 0) return "all";
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "all";
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(cpu, &chosen);
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0) return "all";
  return std::to_string(cpu);
}

/// Minor page faults of the process so far.
double minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

/// Peak resident memory of this program, from /proc/self/status VmHWM. (The
/// kernel carries ru_maxrss across exec, so it reports the launcher's peak
/// whenever that is larger, as a Python launcher's is.)
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

std::vector<double> to_ms(const std::vector<double>& seconds) {
  std::vector<double> ms;
  for (const double s : seconds) ms.push_back(1e3 * s);
  return ms;
}

/// Engine counters read at a point in time; deltas give the traced phase.
struct Counters {
  std::array<std::uint64_t, rt::kArchCount> arch{};
  double busy_vtime = 0.0;
  rt::Engine::PrefetchStats prefetch;
};

Counters read_counters(rt::Engine& engine) {
  Counters c;
  c.arch = engine.arch_task_counts();
  for (std::size_t w = 0; w < engine.workers().size(); ++w) {
    c.busy_vtime += engine.worker_stats(static_cast<rt::WorkerId>(w)).busy_vtime;
  }
  c.prefetch = engine.prefetch_stats();
  return c;
}

/// Step samples of one engine over a run. Memory stays bounded however many
/// steps run, so peak RSS does not depend on how fast the host was.
struct Phase {
  Reservoir step_s{kStepSampleCap};
  std::vector<double> rates;  ///< tasks/s of each kRateWindowSeconds window
  double window_s = 0.0;
  double window_tasks = 0.0;
  std::vector<double> tail_window;  ///< seconds of the current tail window
  std::vector<double> window_p95s;  ///< ms, one per kTailWindowSteps steps
  std::uint64_t tasks = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool aborted = false;

  void add(double seconds, std::uint64_t step_tasks) {
    step_s.add(seconds);
    tasks += step_tasks;
    window_s += seconds;
    window_tasks += static_cast<double>(step_tasks);
    if (window_s >= kRateWindowSeconds) {
      rates.push_back(window_tasks / window_s);
      window_s = window_tasks = 0.0;
    }
    tail_window.push_back(seconds);
    if (tail_window.size() == kTailWindowSteps) {
      window_p95s.push_back(1e3 * percentile(tail_window, 95.0));
      tail_window.clear();
    }
  }

  std::uint64_t steps() const { return step_s.seen(); }

  /// Step latencies in ms (the reservoir's sample).
  std::vector<double> step_ms() const { return to_ms(step_s.samples()); }

  /// Median window throughput; a run shorter than one window reports its
  /// partial window.
  double tasks_per_s() const {
    if (rates.empty()) return window_s > 0.0 ? window_tasks / window_s : 0.0;
    return median(rates);
  }
};

/// Runs steps of `w` for at least `seconds` (and, when `whole_units`, up to
/// a unit boundary), timing each step and checking its result untimed. A
/// step that throws ends the phase.
void run_steps(Workload& w, Spans& spans, double seconds, bool whole_units,
               std::size_t min_steps, Phase& phase) {
  const double start = steady_seconds();
  std::uint64_t steps = 0;
  while (!phase.aborted) {
    const bool boundary = !whole_units || steps % w.steps_per_unit() == 0;
    if (boundary && steady_seconds() - start >= seconds &&
        phase.steps() >= min_steps) {
      break;
    }
    const std::uint64_t tasks_before = w.engine().tasks_submitted();
    ++phase.attempted;
    ++steps;
    double elapsed = 0.0;
    try {
      const double t0 = steady_seconds();
      w.step(spans);
      elapsed = steady_seconds() - t0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "step failed: %s\n", error.what());
      ++phase.failed;
      phase.aborted = true;
      break;
    }
    phase.add(elapsed, w.engine().tasks_submitted() - tasks_before);
    if (!w.check_last()) ++phase.failed;
  }
}

std::size_t distinct(const std::vector<double>& values) {
  return std::set<double>(values.begin(), values.end()).size();
}

/// Runs the application's direct path (the step's kernels with no runtime)
/// for `seconds`, adding each step's wall seconds to `out`.
void run_direct(Workload& w, double seconds, Reservoir& out) {
  const double start = steady_seconds();
  while (steady_seconds() - start < seconds) out.add(w.direct_step_seconds());
}

std::vector<double> per_step_ms(const std::vector<double>& makespans,
                                int steps_per_unit) {
  std::vector<double> out;
  for (const double v : makespans) out.push_back(1e3 * v / steps_per_unit);
  return out;
}

void print_makespans(const std::vector<double>& makespans, int steps_per_unit) {
  std::map<double, int> counts;
  for (const double v : makespans) ++counts[v];
  std::printf("virtual makespans per unit (%d step%s): %zu units, %zu distinct\n",
              steps_per_unit, steps_per_unit == 1 ? "" : "s", makespans.size(),
              counts.size());
  int shown = 0;
  for (const auto& [value, count] : counts) {
    if (++shown > 12) {
      std::printf("  ... %zu more distinct values\n", counts.size() - 12);
      break;
    }
    std::printf("  %.9f ms x %d\n", 1e3 * value, count);
  }
}

void print_fingerprint(const Args& args, const Workload& w) {
  std::printf(
      "fingerprint: {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"cpu_model\": \"%s\", \"engine_threads\": %d, "
      "\"engine_workers\": %zu, \"submitting_threads\": 1, \"cpu\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %llu}\n",
      sysconf(_SC_NPROCESSORS_ONLN), APPBENCH_BUILD_TYPE,
      json_escape(__VERSION__).c_str(), json_escape(cpu_model()).c_str(),
      w.engine_threads(), w.engine().workers().size(), args.cpu.c_str(),
      args.workload.c_str(),
      static_cast<unsigned long long>(args.seed));
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& reported,
                  const std::vector<Metric>& info) {
  std::printf("\n%-34s %18s  %-9s %s\n", "metric", "value", "unit", "clock");
  for (const auto* list : {&reported, &info}) {
    for (const Metric& m : *list) {
      std::printf("%-34s %18.6f  %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.clock.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name.c_str(), reported[i].value,
                reported[i].unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_placement(const std::array<std::uint64_t, rt::kArchCount>& tasks) {
  std::printf("placement:");
  for (std::size_t a = 0; a < rt::kArchCount; ++a) {
    std::printf(" %s=%llu", rt::to_string(static_cast<rt::Arch>(a)).c_str(),
                static_cast<unsigned long long>(tasks[a]));
  }
  std::printf("\n");
}

int run_end_to_end(const Args& args) {
  // kSetups workload instances, one at a time, each set up (timed) and then
  // run for an equal share of the timed phase: set-up samples spread over the
  // whole run rather than its first moments. Within an instance, slices of
  // runtime steps alternate with slices of the direct path, so the two
  // medians step_vs_direct compares sample the same stretch of host time.
  Spans off(false);
  std::vector<double> setup_s;
  std::vector<double> makespans;
  std::array<std::uint64_t, rt::kArchCount> placed{};
  Phase warmup, phase;
  Reservoir direct_s{kStepSampleCap};
  double faults = 0.0;
  double timed_s = 0.0;
  int steps_per_unit = 1;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups && !warmup.aborted && !phase.aborted; ++i) {
    w.reset();  // one workload's memory at a time
    const double t0 = steady_seconds();
    w = make_workload(args.workload, args.seed, /*trace=*/false);
    setup_s.push_back(steady_seconds() - t0);
    if (i == 0) {
      std::printf("%s\n", w->describe().c_str());
      print_fingerprint(args, *w);
      // The first second of steps ran up to 60% slower than the rest (heap
      // growth, caches), so timing starts after kWarmupSeconds of steps.
      run_steps(*w, off, kWarmupSeconds, /*whole_units=*/true, 0, warmup);
    }
    const Counters before = read_counters(w->engine());
    const double faults_before = minor_faults();
    const double until = args.seconds * (i + 1) / kSetups;
    const bool last = i + 1 == kSetups;
    while (!phase.aborted &&
           (timed_s < until || (last && phase.steps() < kMinSteps))) {
      const double slice_start = steady_seconds();
      run_steps(*w, off, kSliceSeconds, /*whole_units=*/true, 0, phase);
      run_direct(*w, kSliceSeconds / 2, direct_s);
      timed_s += steady_seconds() - slice_start;
    }
    faults += minor_faults() - faults_before;
    const Counters after = read_counters(w->engine());
    for (std::size_t a = 0; a < rt::kArchCount; ++a) {
      placed[a] += after.arch[a] - before.arch[a];
    }
    makespans.insert(makespans.end(), w->unit_makespans().begin(),
                     w->unit_makespans().end());
    steps_per_unit = w->steps_per_unit();
  }
  print_makespans(makespans, steps_per_unit);
  print_placement(placed);

  const std::uint64_t n = phase.steps();
  const std::vector<double> step_ms = phase.step_ms();
  const std::vector<double> direct_ms = to_ms(direct_s.samples());
  const std::vector<Metric> reported = {
      {"setup_s", median(setup_s), "s", "wall"},
      {"step_vs_direct", ratio(median(step_ms), median(direct_ms)), "x", "wall"},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "-"},
  };
  const std::vector<Metric> info = {
      {"step_ms_p50", median(step_ms), "ms", "wall"},
      {"direct_step_ms_p50", median(direct_ms), "ms", "wall"},
      {"tasks_per_s", phase.tasks_per_s(), "tasks/s", "wall"},
      {"step_ms_p95", median(phase.window_p95s), "ms", "wall"},
      {"virtual_ms_p50", median(per_step_ms(makespans, steps_per_unit)), "vms",
       "virtual"},
      {"failed_ratio", ratio(static_cast<double>(phase.failed),
                             static_cast<double>(phase.attempted)),
       "fraction", "-"},
      {"setups", static_cast<double>(setup_s.size()), "count", "-"},
      {"step_samples", static_cast<double>(n), "count", "-"},
      {"direct_samples", static_cast<double>(direct_s.seen()), "count", "-"},
      {"warmup_steps", static_cast<double>(warmup.steps()), "count", "-"},
      {"page_faults_per_step", ratio(faults, static_cast<double>(n)), "count",
       "-"},
      {"step_ms_p95_windows", static_cast<double>(phase.window_p95s.size()),
       "count", "-"},
      {"step_ms_p95_whole_run", percentile(step_ms, 95.0), "ms", "wall"},
      {"step_samples_beyond_p95", static_cast<double>(samples_beyond(n, 95.0)),
       "count", "-"},
      {"highest_supported_percentile", highest_supported_percentile(n), "%",
       "-"},
  };
  const std::uint64_t attempted = warmup.attempted + phase.attempted;
  const std::uint64_t failed = warmup.failed + phase.failed;
  const bool correct =
      failed == 0 && !warmup.aborted && !phase.aborted && n >= kMinSteps;
  print_result(correct, attempted, failed, reported, info);
  return 0;
}

int run_traced(const Args& args) {
  auto plain = make_workload(args.workload, args.seed, /*trace=*/false);
  auto traced = make_workload(args.workload, args.seed, /*trace=*/true);
  std::printf("%s\n", traced->describe().c_str());
  print_fingerprint(args, *traced);
  rt::Engine& engine = traced->engine();

  Spans off(false);
  Spans spans(true);
  Phase untraced_phase, traced_phase;
  Reservoir direct_s{kStepSampleCap};
  std::uint64_t calibration_tasks = 0;
  const auto drain_trace = [&] {
    // Tracer::clear needs a quiescent engine; count calibration placements
    // before dropping the records so memory stays bounded.
    engine.wait_for_all();
    engine.drain_prefetches();
    for (const rt::DecisionRecord& d : engine.trace().decisions()) {
      if (d.explored) ++calibration_tasks;
    }
    engine.trace().clear();
  };

  const Counters before = read_counters(engine);
  const double start = steady_seconds();
  while ((steady_seconds() - start < args.seconds ||
          untraced_phase.steps() < kMinSteps ||
          traced_phase.steps() < kMinSteps) &&
         !untraced_phase.aborted && !traced_phase.aborted) {
    run_steps(*plain, off, kSliceSeconds, true, 0, untraced_phase);
    run_steps(*traced, spans, kSliceSeconds, true, 0, traced_phase);
    drain_trace();
    run_direct(*plain, kSliceSeconds / 2, direct_s);
  }
  const Counters after = read_counters(engine);
  print_makespans(traced->unit_makespans(), traced->steps_per_unit());

  const double steps = static_cast<double>(traced_phase.steps());
  const double tasks = static_cast<double>(traced_phase.tasks);
  const double step_total = spans.stats(Layer::kStep).total_s;
  const auto self_share = [&](Layer layer) {
    return ratio(spans.stats(layer).self_s, step_total);
  };
  const auto us_percentile = [&](Layer layer, double p) {
    return 1e6 * percentile(spans.stats(layer).samples_s, p);
  };
  const double workers = static_cast<double>(engine.workers().size());
  double vtime_total = 0.0;
  for (const double v : traced->unit_makespans()) vtime_total += v;
  const double busy = after.busy_vtime - before.busy_vtime;
  double arch_total = 0.0;
  for (std::size_t a = 0; a < rt::kArchCount; ++a) {
    arch_total += static_cast<double>(after.arch[a] - before.arch[a]);
  }
  const auto arch_share = [&](rt::Arch arch) {
    const auto a = static_cast<std::size_t>(arch);
    return ratio(static_cast<double>(after.arch[a] - before.arch[a]), arch_total);
  };
  const rt::TransferStats& tr = traced->transfers();
  const double hops = static_cast<double>(tr.total_count() + tr.internode_count);
  const double enqueued =
      static_cast<double>(after.prefetch.enqueued - before.prefetch.enqueued);
  const double useful =
      static_cast<double>(after.prefetch.completed - before.prefetch.completed);
  const double untraced_ms = median(untraced_phase.step_ms());
  const double traced_ms = median(traced_phase.step_ms());
  const double direct_p50 = median(to_ms(direct_s.samples()));
  const double unattributed = self_share(Layer::kStep);
  const double mb = 1e6;

  const std::vector<Metric> reported = {
      {"engine.submit_us_p50", us_percentile(Layer::kSubmit, 50.0), "us", "wall"},
      {"engine.submit_us_p99", us_percentile(Layer::kSubmit, 99.0), "us", "wall"},
      {"engine.submit_share", self_share(Layer::kSubmit), "fraction", "wall"},
      {"engine.wait_us_per_task",
       1e6 * ratio(spans.stats(Layer::kWait).self_s, tasks), "us", "wall"},
      {"engine.wait_share", self_share(Layer::kWait), "fraction", "wall"},
      {"engine.register_us_p50", us_percentile(Layer::kRegister, 50.0), "us",
       "wall"},
      {"engine.register_share", self_share(Layer::kRegister), "fraction", "wall"},
      {"engine.unregister_share", self_share(Layer::kUnregister), "fraction",
       "wall"},
      {"engine.tasks_per_step", ratio(tasks, steps), "count", "-"},
      {"scheduler.share_cpu", arch_share(rt::Arch::kCpu), "fraction", "-"},
      {"scheduler.share_omp", arch_share(rt::Arch::kCpuOmp), "fraction", "-"},
      {"scheduler.share_cuda", arch_share(rt::Arch::kCuda), "fraction", "-"},
      {"scheduler.busy_share", ratio(busy, vtime_total * workers), "fraction",
       "virtual"},
      {"scheduler.idle_ms_per_step",
       1e3 * ratio(vtime_total * workers - busy, steps), "vms", "virtual"},
      {"scheduler.distinct_makespans",
       static_cast<double>(distinct(traced->unit_makespans())), "count",
       "virtual"},
      {"memory.acquire_host_us_p50", us_percentile(Layer::kAcquire, 50.0), "us",
       "wall"},
      {"memory.acquire_share", self_share(Layer::kAcquire), "fraction", "wall"},
      {"memory.h2d_mb_per_step",
       ratio(static_cast<double>(tr.host_to_device_bytes) / mb, steps), "MB",
       "virtual"},
      {"memory.d2h_mb_per_step",
       ratio(static_cast<double>(tr.device_to_host_bytes) / mb, steps), "MB",
       "virtual"},
      {"memory.internode_mb_per_step",
       ratio(static_cast<double>(tr.internode_bytes) / mb, steps), "MB",
       "virtual"},
      {"memory.transfers_per_step", ratio(hops, steps), "count", "virtual"},
      {"memory.coalesced_ratio",
       ratio(static_cast<double>(tr.coalesced_transfers), hops), "fraction",
       "virtual"},
      {"memory.evictions", static_cast<double>(tr.evictions), "count", "virtual"},
      {"memory.prefetch_enqueued_per_step", ratio(enqueued, steps), "count", "-"},
      {"memory.prefetch_useful_ratio", ratio(useful, enqueued), "fraction", "-"},
      {"perfmodel.calibration_tasks", static_cast<double>(calibration_tasks),
       "count", "-"},
      {"trace.overhead_pct", 100.0 * (ratio(traced_ms, untraced_ms) - 1.0), "%",
       "wall"},
      {"sim.exec_ms_per_step", 1e3 * ratio(busy, steps), "vms", "virtual"},
      {"apps.direct_step_ms_p50", direct_p50, "ms", "wall"},
      {"apps.runtime_overhead_pct",
       100.0 * (ratio(untraced_ms, direct_p50) - 1.0), "%", "wall"},
      {"apps.self_share", self_share(Layer::kApp), "fraction", "wall"},
      {"virtual_ms_p50",
       median(per_step_ms(traced->unit_makespans(), traced->steps_per_unit())),
       "vms", "virtual"},
      {"step_ms_p50", untraced_ms, "ms", "wall"},
      {"step_ms_p95", median(untraced_phase.window_p95s), "ms", "wall"},
      {"tasks_per_s", untraced_phase.tasks_per_s(), "tasks/s", "wall"},
      {"failed_ratio",
       ratio(static_cast<double>(untraced_phase.failed + traced_phase.failed),
             static_cast<double>(untraced_phase.attempted +
                                 traced_phase.attempted)),
       "fraction", "-"},
      {"bench.unattributed_share", unattributed, "fraction", "wall"},
  };
  std::vector<Metric> info = {
      {"traced.step_ms_p50", traced_ms, "ms", "wall"},
      {"traced.steps", steps, "count", "-"},
      {"span.self_sum_over_step_time", ratio(spans.total_self_s(), step_total),
       "fraction", "wall"},
  };
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    info.push_back({std::string("span.") + layer_name(layer) + ".self_share",
                    self_share(layer), "fraction", "wall"});
  }
  std::printf("span accounting: step self time (unattributed) is %.2f%% of "
              "step wall time, bound %.0f%%: %s\n",
              100.0 * unattributed, 100.0 * kUnattributedBound,
              unattributed <= kUnattributedBound ? "within" : "EXCEEDED");

  const std::uint64_t attempted =
      untraced_phase.attempted + traced_phase.attempted;
  const std::uint64_t failed = untraced_phase.failed + traced_phase.failed;
  const bool correct = failed == 0 && !untraced_phase.aborted &&
                       !traced_phase.aborted;
  print_result(correct, attempted, failed, reported, info);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parse_args(argc, argv);
    args.cpu = configure_process();
    return args.trace ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "appbench: %s\n", error.what());
    return 1;
  }
}
