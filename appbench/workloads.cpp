#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "apps/common.hpp"
#include "apps/distributed.hpp"
#include "apps/ode.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "core/peppher.hpp"

namespace appbench {

namespace rt = peppher::rt;
namespace apps = peppher::apps;
using M = rt::AccessMode;

void Workload::quiesce() {
  engine_->wait_for_all();
  engine_->drain_prefetches();
}

bool Workload::no_new_task_failures() {
  const std::uint64_t failed = engine_->fault_stats().tasks_failed;
  const bool none = failed == tasks_failed_seen_;
  tasks_failed_seen_ = failed;
  return none;
}

void Workload::add_transfers(const rt::TransferStats& d) {
  transfers_.host_to_device_count += d.host_to_device_count;
  transfers_.device_to_host_count += d.device_to_host_count;
  transfers_.host_to_device_bytes += d.host_to_device_bytes;
  transfers_.device_to_host_bytes += d.device_to_host_bytes;
  transfers_.evictions += d.evictions;
  transfers_.overcommits += d.overcommits;
  transfers_.coalesced_transfers += d.coalesced_transfers;
  transfers_.internode_count += d.internode_count;
  transfers_.internode_bytes += d.internode_bytes;
}

namespace {

int thread_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

const rt::Codelet* codelet(const char* name) {
  const rt::Codelet* c = peppher::core::ComponentRegistry::global().find(name);
  if (c == nullptr) throw std::runtime_error(std::string("no codelet ") + name);
  return c;
}

/// True when every value is finite and within rel_tol * max(1, max |want|)
/// of the reference.
bool close(std::span<const float> got, std::span<const float> want,
           double rel_tol) {
  if (got.size() != want.size()) return false;
  double scale = 1.0;
  for (const float v : want) scale = std::max(scale, std::fabs(double{v}));
  for (const float v : got) {
    if (!std::isfinite(v)) return false;
  }
  return apps::max_abs_diff(got, want) <= rel_tol * scale;
}

template <typename T>
rt::DataHandlePtr register_span(rt::Engine& engine, Spans& spans, T* data,
                                std::size_t count,
                                std::size_t element_size = sizeof(T)) {
  Span span(spans, Layer::kRegister);
  return engine.register_buffer(data, count * sizeof(T), element_size);
}

void unregister_all(rt::Engine& engine, Spans& spans,
                    std::vector<rt::DataHandlePtr>& handles) {
  for (const rt::DataHandlePtr& handle : handles) {
    Span span(spans, Layer::kUnregister);
    engine.unregister(handle);
  }
  handles.clear();
}

/// Runs the engine's constructor and records the threads it started.
std::unique_ptr<rt::Engine> start_engine(const rt::EngineConfig& config,
                                         int& threads) {
  const int before = thread_count();
  auto engine = std::make_unique<rt::Engine>(config);
  threads = thread_count() - before;
  return engine;
}

// ---------------------------------------------------------------------------
// ode_chain: the Figure 7 LibSolve RK4 structure, 9 dependent tasks per step
// ---------------------------------------------------------------------------

constexpr std::uint32_t kOdeSize = 64;
constexpr int kOdeStepsPerSolve = 100;
constexpr int kOdeWarmupSolves = 3;

class OdeChain final : public Workload {
 public:
  OdeChain(std::uint64_t seed, bool trace) : seed_(seed) {
    apps::ode::register_components();
    problem_ = apps::ode::make_problem(kOdeSize, kOdeStepsPerSolve, seed);
    reference_y_ = apps::ode::reference(problem_);
    for (std::size_t i = 0; i < kNames.size(); ++i) codelets_[i] = codelet(kNames[i]);

    // Runtime defaults (c2050, dmda, history models calibrated below), with
    // every task pinned to the GPU as in Figure 7's "Composition Tool - CUDA"
    // series. Left to dmda, the rhs tasks land on the CPU or the combined
    // OpenMP worker depending on how calibration raced the host clock, and
    // an OpenMP rhs spawns three threads per call: step wall time then
    // changes about 4x between runs and measures thread creation instead of
    // the runtime's task path.
    rt::EngineConfig config;
    config.enable_trace = trace;
    engine_ = start_engine(config, engine_threads_);
    steps_per_unit_ = kOdeStepsPerSolve;

    const std::uint32_t n = problem_.n;
    for (auto* v : {&y_, &k1_, &k2_, &k3_, &k4_, &t_}) v->assign(n, 0.0f);

    // Warm-up calibrates the history models. The first solve (checked
    // against the reference) fixes the per-step error estimates that every
    // later solve, from the same y0 with the same kernels, must reproduce.
    Spans off(false);
    for (int s = 0; s < kOdeWarmupSolves; ++s) {
      for (int k = 0; k < kOdeStepsPerSolve; ++k) {
        step(off);
        if (!check_last()) throw std::runtime_error("ode_chain: warm-up mismatch");
        if (s == 0) err_reference_.push_back(err_);
      }
    }
    unit_makespans_.clear();
    transfers_ = {};
  }

  ~OdeChain() override { quiesce(); }

  void step(Spans& spans) override {
    Span root(spans, Layer::kStep);
    if (k_ == 0) begin_solve(spans);

    // Classical RK4 tableau; the error task weighs k1..k4 by the difference
    // to the Euler weights (the embedded estimate of apps/ode.cpp).
    constexpr float b1 = 1.0f / 6.0f, b2 = 1.0f / 3.0f;
    constexpr M R = M::kRead, W = M::kWrite;
    submit(spans, kRhs, {{kJ, R}, {kY, R}, {kK1, W}}, {});
    submit(spans, kStage2, {{kY, R}, {kK1, R}, {kT, W}}, {0.5f, 0, 0, 0});
    submit(spans, kRhs, {{kJ, R}, {kT, R}, {kK2, W}}, {});
    submit(spans, kStage3, {{kY, R}, {kK1, R}, {kK2, R}, {kT, W}},
           {0, 0.5f, 0, 0});
    submit(spans, kRhs, {{kJ, R}, {kT, R}, {kK3, W}}, {});
    submit(spans, kStage4, {{kY, R}, {kK1, R}, {kK2, R}, {kK3, R}, {kT, W}},
           {0, 0, 1.0f, 0});
    submit(spans, kRhs, {{kJ, R}, {kT, R}, {kK4, W}}, {});
    submit(spans, kCombine,
           {{kY, M::kReadWrite}, {kK1, R}, {kK2, R}, {kK3, R}, {kK4, R}},
           {b1, b2, b2, b1});
    submit(spans, kError, {{kK1, R}, {kK2, R}, {kK3, R}, {kK4, R}, {kErr, W}},
           {b1 - 1.0f, b2, b2, b1});
    // Adaptive step control reads the error estimate back after every step.
    {
      Span span(spans, Layer::kAcquire);
      engine_->acquire_host(handles_[kErr], M::kRead);
    }
    {
      Span span(spans, Layer::kApp);
      err_ = err_host_;
    }
    last_step_ = k_;
    if (++k_ == kOdeStepsPerSolve) end_solve(spans);
  }

  bool check_last() override {
    if (!no_new_task_failures() || !std::isfinite(err_)) return false;
    if (static_cast<std::size_t>(last_step_) < err_reference_.size() &&
        std::fabs(err_ - err_reference_[last_step_]) >
            1e-6f * std::max(1.0f, std::fabs(err_reference_[last_step_]))) {
      return false;
    }
    if (last_step_ + 1 == kOdeStepsPerSolve) {
      return close(y_, reference_y_, 1e-5);
    }
    return true;
  }

  double direct_step_seconds() override {
    const double start = steady_seconds();
    const auto direct = apps::ode::run_direct(problem_, rt::Arch::kCpu,
                                              engine_->config().machine);
    const double elapsed = steady_seconds() - start;
    if (direct.invocations == 0) throw std::runtime_error("ode: no direct steps");
    return elapsed / kOdeStepsPerSolve;
  }

  std::string describe() const override {
    return "ode_chain: RK4 n=" + std::to_string(kOdeSize) + ", " +
           std::to_string(kOdeStepsPerSolve) +
           " steps per solve, 9 tasks per step pinned to the C2050, err read "
           "back every step, dmda + history models, seed " +
           std::to_string(seed_);
  }

 private:
  enum Component { kRhs, kStage2, kStage3, kStage4, kCombine, kError };
  static constexpr std::array<const char*, 6> kNames = {
      "ode_rhs", "ode_stage2", "ode_stage3", "ode_stage4", "ode_combine",
      "ode_error"};
  /// Index into handles_, in registration order.
  enum Slot { kJ, kY, kK1, kK2, kK3, kK4, kT, kErr };
  struct Operand {
    Slot slot;
    M mode;
  };

  void submit(Spans& spans, Component component,
              std::initializer_list<Operand> operands,
              std::array<float, 4> coefficients) {
    rt::TaskSpec spec;
    {
      Span span(spans, Layer::kApp);
      spec.operands.reserve(operands.size());
      for (const Operand& op : operands) {
        spec.operands.push_back({handles_[op.slot], op.mode});
      }
      auto args = std::make_shared<apps::ode::OdeVecArgs>();
      args->n = problem_.n;
      args->h = problem_.h;
      args->c1 = coefficients[0];
      args->c2 = coefficients[1];
      args->c3 = coefficients[2];
      args->c4 = coefficients[3];
      spec.codelet = codelets_[component];
      spec.arg = std::shared_ptr<const void>(args, args.get());
      spec.forced_arch = rt::Arch::kCuda;
    }
    Span span(spans, Layer::kSubmit);
    engine_->submit(std::move(spec));
  }

  void begin_solve(Spans& spans) {
    {
      Span span(spans, Layer::kApp);
      std::copy(problem_.y0.begin(), problem_.y0.end(), y_.begin());
    }
    {
      Span span(spans, Layer::kResetClock);
      engine_->reset_virtual_time();
      engine_->reset_transfer_stats();
    }
    rt::Engine& e = *engine_;
    const std::size_t n = problem_.n;
    handles_ = {register_span(e, spans, problem_.jacobian.data(), n * n),
                register_span(e, spans, y_.data(), n),
                register_span(e, spans, k1_.data(), n),
                register_span(e, spans, k2_.data(), n),
                register_span(e, spans, k3_.data(), n),
                register_span(e, spans, k4_.data(), n),
                register_span(e, spans, t_.data(), n),
                register_span(e, spans, &err_host_, 1)};
  }

  void end_solve(Spans& spans) {
    {
      Span span(spans, Layer::kAcquire);
      engine_->acquire_host(handles_[kY], M::kRead);
    }
    {
      Span span(spans, Layer::kWait);
      engine_->wait_for_all();
    }
    {
      Span span(spans, Layer::kApp);
      unit_makespans_.push_back(engine_->virtual_makespan());
      add_transfers(engine_->transfer_stats());
    }
    unregister_all(*engine_, spans, handles_);
    k_ = 0;
  }

  std::uint64_t seed_;
  apps::ode::Problem problem_;
  std::vector<float> reference_y_;
  std::vector<float> err_reference_;  ///< per step of a solve
  std::array<const rt::Codelet*, 6> codelets_{};
  std::vector<float> y_, k1_, k2_, k3_, k4_, t_;
  float err_host_ = 0.0f;  ///< registered; read only after acquire_host
  float err_ = 0.0f;       ///< copy of the last step's estimate
  std::vector<rt::DataHandlePtr> handles_;
  int k_ = 0;          ///< next step within the solve
  int last_step_ = 0;  ///< step index the last step() ran
};

// ---------------------------------------------------------------------------
// spmv_hybrid: the Figure 5 pass over the six UF-class matrices
// ---------------------------------------------------------------------------

constexpr int kSpmvChunks = 12;  // as bench_fig5_spmv_hybrid
constexpr int kSpmvWarmupPasses = 2;

class SpmvHybrid final : public Workload {
 public:
  SpmvHybrid(std::uint64_t seed, bool trace) : seed_(seed) {
    apps::spmv::register_components();
    codelet_ = codelet("spmv");
    // Hybrid execution over the four per-core CPU workers and the GPU, as
    // in Figure 5: the composition tool's disableImpls narrows away the
    // OpenMP variant, which spawns three threads per chunk.
    peppher::core::ComponentRegistry::global().find("spmv")->disable_impls(
        "openmp");
    for (const auto& spec : apps::sparse::uf_matrix_table()) {
      Matrix m;
      m.problem = apps::spmv::make_problem(spec.matrix_class, 1.0, seed);
      m.reference = apps::spmv::reference(m.problem);
      m.y.assign(m.problem.A.nrows, 0.0f);
      m.regularity = m.problem.regularity();
      split(m);
      matrices_.push_back(std::move(m));
    }

    // Cost-hint placement (the fig5 configuration) with automatic prefetch.
    rt::EngineConfig config;
    config.use_history_models = false;
    config.enable_prefetch = true;
    config.enable_trace = trace;
    engine_ = start_engine(config, engine_threads_);

    Spans off(false);
    for (int p = 0; p < kSpmvWarmupPasses; ++p) {
      step(off);
      if (!check_last()) throw std::runtime_error("spmv_hybrid: warm-up mismatch");
    }
    unit_makespans_.clear();
    transfers_ = {};
  }

  ~SpmvHybrid() override { quiesce(); }

  void step(Spans& spans) override {
    Span root(spans, Layer::kStep);
    double pass_vtime = 0.0;
    for (Matrix& m : matrices_) pass_vtime += multiply(spans, m);
    unit_makespans_.push_back(pass_vtime);
  }

  bool check_last() override {
    if (!no_new_task_failures()) return false;
    for (const Matrix& m : matrices_) {
      if (!close(m.y, m.reference, 1e-5)) return false;
    }
    return true;
  }

  double direct_step_seconds() override {
    const double start = steady_seconds();
    std::size_t rows = 0;
    for (const Matrix& m : matrices_) rows += apps::spmv::reference(m.problem).size();
    const double elapsed = steady_seconds() - start;
    if (rows == 0) throw std::runtime_error("spmv: empty direct pass");
    return elapsed;
  }

  std::string describe() const override {
    std::size_t nnz = 0;
    for (const Matrix& m : matrices_) nnz += m.problem.A.nnz();
    return "spmv_hybrid: 6 UF-class matrices, " + std::to_string(nnz) +
           " nnz per pass, " + std::to_string(kSpmvChunks) +
           " nnz-balanced chunks each, c2050 dmda + cost hints + prefetch, "
           "seed " + std::to_string(seed_);
  }

 private:
  struct Chunk {
    std::uint32_t r0 = 0, r1 = 0;  ///< row range
    std::uint32_t k0 = 0;          ///< first non-zero
    std::size_t nnz = 0;
    std::vector<std::uint32_t> rowptr;  ///< rebased to k0
  };
  struct Matrix {
    apps::spmv::Problem problem;
    std::vector<float> reference;
    std::vector<float> y;
    float regularity = 0.5f;
    std::vector<Chunk> chunks;
  };

  /// The nnz-balanced row split of spmv::run_hybrid, computed once.
  static void split(Matrix& m) {
    const auto& A = m.problem.A;
    const std::size_t per_chunk = (A.nnz() + kSpmvChunks - 1) / kSpmvChunks;
    std::vector<std::uint32_t> bounds{0};
    std::size_t next_target = per_chunk;
    for (std::uint32_t r = 0; r < A.nrows; ++r) {
      if (A.rowptr[r + 1] >= next_target &&
          bounds.size() < static_cast<std::size_t>(kSpmvChunks)) {
        bounds.push_back(r + 1);
        next_target += per_chunk;
      }
    }
    bounds.push_back(A.nrows);
    for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
      if (bounds[c] == bounds[c + 1]) continue;
      Chunk chunk;
      chunk.r0 = bounds[c];
      chunk.r1 = bounds[c + 1];
      chunk.k0 = A.rowptr[chunk.r0];
      chunk.nnz = std::max<std::size_t>(1, A.rowptr[chunk.r1] - chunk.k0);
      for (std::uint32_t r = chunk.r0; r <= chunk.r1; ++r) {
        chunk.rowptr.push_back(A.rowptr[r] - chunk.k0);
      }
      m.chunks.push_back(std::move(chunk));
    }
  }

  /// One hybrid product y = A*x; returns its virtual makespan.
  double multiply(Spans& spans, Matrix& m) {
    rt::Engine& e = *engine_;
    auto& A = m.problem.A;
    {
      // Poison y so a chunk that never wrote back fails the check.
      Span span(spans, Layer::kApp);
      std::fill(m.y.begin(), m.y.end(), std::nanf(""));
    }
    {
      Span span(spans, Layer::kResetClock);
      e.reset_transfer_stats();
      e.reset_virtual_time();
    }
    std::vector<rt::DataHandlePtr> handles;
    std::vector<rt::DataHandlePtr> outputs;
    const rt::DataHandlePtr x = register_span(e, spans, m.problem.x.data(),
                                              m.problem.x.size());
    handles.push_back(x);
    // Warm every accelerator's x replica up front, as run_hybrid does.
    for (int a = 0; a < e.accelerator_count(); ++a) {
      Span span(spans, Layer::kPrefetch);
      e.prefetch(x, static_cast<rt::MemoryNodeId>(1 + a));
    }
    for (Chunk& chunk : m.chunks) {
      const auto values = register_span(e, spans, A.values.data() + chunk.k0, chunk.nnz);
      const auto colidx = register_span(e, spans, A.colidx.data() + chunk.k0, chunk.nnz);
      const auto rowptr = register_span(e, spans, chunk.rowptr.data(), chunk.rowptr.size());
      const auto y = register_span(e, spans, m.y.data() + chunk.r0, chunk.r1 - chunk.r0);
      rt::TaskSpec spec;
      {
        Span span(spans, Layer::kApp);
        handles.insert(handles.end(), {values, colidx, rowptr, y});
        outputs.push_back(y);
        auto args = std::make_shared<apps::spmv::SpmvArgs>();
        args->nrows = chunk.r1 - chunk.r0;
        args->regularity = m.regularity;
        spec.codelet = codelet_;
        spec.operands = {{values, M::kRead}, {colidx, M::kRead},
                         {rowptr, M::kRead}, {x, M::kRead}, {y, M::kWrite}};
        spec.arg = std::shared_ptr<const void>(args, args.get());
      }
      Span span(spans, Layer::kSubmit);
      e.submit(std::move(spec));
    }
    for (const rt::DataHandlePtr& y : outputs) {
      Span span(spans, Layer::kAcquire);
      e.acquire_host(y, M::kRead);
    }
    {
      Span span(spans, Layer::kWait);
      e.wait_for_all();
    }
    double vtime = 0.0;
    {
      Span span(spans, Layer::kApp);
      vtime = e.virtual_makespan();
      add_transfers(e.transfer_stats());
    }
    unregister_all(e, spans, handles);
    return vtime;
  }

  std::uint64_t seed_;
  const rt::Codelet* codelet_ = nullptr;
  std::vector<Matrix> matrices_;
};

// ---------------------------------------------------------------------------
// jacobi_halo: 2-D Jacobi over two simulated nodes with overlapped halos
// ---------------------------------------------------------------------------

constexpr std::size_t kJacobiRows = 512;
constexpr std::size_t kJacobiCols = 512;
constexpr int kJacobiSweeps = 10;
constexpr int kJacobiNodes = 2;
constexpr int kJacobiWarmupSolves = 2;

/// Argument block of the "jacobi_band" codelet (apps/distributed.cpp): the
/// operands are [above?, band, below?, dst, dependency-only reads...].
struct JacobiBandArgs {
  std::uint32_t cols = 0;
  std::uint32_t above_rows = 0;
  std::uint32_t band_rows = 0;
  std::uint32_t below_rows = 0;
};

class JacobiHalo final : public Workload {
 public:
  JacobiHalo(std::uint64_t seed, bool trace) : seed_(seed) {
    apps::dist::register_components();
    band_ = codelet("jacobi_band");
    copy_ = codelet("halo_copy");
    apps::dist::JacobiConfig jc;
    jc.rows = kJacobiRows;
    jc.cols = kJacobiCols;
    jc.iterations = 0;
    initial_ = apps::dist::jacobi_reference(jc);  // the app's initial field
    jc.iterations = kJacobiSweeps;
    reference_ = apps::dist::jacobi_reference(jc);

    // Two uniform nodes of 1 CPU core + C2050 each.
    auto machine = peppher::sim::MachineConfig::platform_c2050();
    machine.cpu_cores = 1;
    rt::EngineConfig config;
    config.cluster = peppher::sim::ClusterConfig::uniform(kJacobiNodes, machine);
    // Automatic prefetch stays off: with it on, about one 30-second run in
    // ten aborted with "internal: mark_written on a non-owned replica".
    // Engine::service_prefetch checks for an in-flight writer under the
    // graph lock but copies under the handle lock, so a writer that starts
    // in between has its owned replica downgraded to shared by the copy.
    // Halo regions are read by one sweep and written by the next, which
    // opens that window; spmv's prefetched operands are never written.
    config.enable_prefetch = false;
    config.enable_trace = trace;
    engine_ = start_engine(config, engine_threads_);

    for (auto& buf : bufs_) buf.assign(kJacobiRows * kJacobiCols, 0.0f);
    for (int b = 0; b < 2; ++b) {
      ghost_top_[b].assign(kJacobiNodes, std::vector<float>(kJacobiCols));
      ghost_bot_[b].assign(kJacobiNodes, std::vector<float>(kJacobiCols));
    }
    for (int p = 0; p < kJacobiNodes; ++p) {
      compute_[p] = apps::dist::compute_worker(*engine_, p);
      exchange_[p] = apps::dist::exchange_worker(*engine_, p);
      owned_begin_[p] = kJacobiRows * p / kJacobiNodes;
      owned_end_[p] = kJacobiRows * (p + 1) / kJacobiNodes;
    }

    Spans off(false);
    for (int s = 0; s < kJacobiWarmupSolves; ++s) {
      step(off);
      if (!check_last()) throw std::runtime_error("jacobi_halo: warm-up mismatch");
    }
    unit_makespans_.clear();
    transfers_ = {};
  }

  ~JacobiHalo() override { quiesce(); }

  void step(Spans& spans) override {
    Span root(spans, Layer::kStep);
    rt::Engine& e = *engine_;
    {
      Span span(spans, Layer::kApp);
      for (auto& buf : bufs_) std::copy(initial_.begin(), initial_.end(), buf.begin());
    }
    register_regions(spans);
    // A distributed field starts resident where it is owned: stage every
    // partition on its compute worker's memory, then start the clocks (the
    // run_jacobi convention; only the sweeps' traffic is charged).
    for (int b = 0; b < 2; ++b) {
      for (int p = 0; p < kJacobiNodes; ++p) {
        const rt::MemoryNodeId node =
            e.workers()[static_cast<std::size_t>(compute_[p])].node;
        for (const auto* h : {&regions_[b][p].top, &regions_[b][p].mid,
                              &regions_[b][p].bot}) {
          Span span(spans, Layer::kPrefetch);
          e.prefetch(*h, node);
        }
      }
    }
    {
      Span span(spans, Layer::kResetClock);
      e.reset_transfer_stats();
      e.reset_virtual_time();
    }
    for (int it = 0; it < kJacobiSweeps; ++it) sweep(spans, it % 2);
    {
      Span span(spans, Layer::kWait);
      e.wait_for_all();
    }
    {
      // Makespan before the gather, as run_jacobi reports it.
      Span span(spans, Layer::kApp);
      unit_makespans_.push_back(e.virtual_makespan());
    }
    const int final_buf = kJacobiSweeps % 2;
    for (int p = 0; p < kJacobiNodes; ++p) {
      for (const auto* h : {&regions_[final_buf][p].top,
                            &regions_[final_buf][p].mid,
                            &regions_[final_buf][p].bot}) {
        Span span(spans, Layer::kAcquire);
        e.acquire_host(*h, M::kRead);
      }
    }
    {
      Span span(spans, Layer::kApp);
      add_transfers(e.transfer_stats());
    }
    unregister_all(e, spans, handles_);
  }

  bool check_last() override {
    return no_new_task_failures() &&
           close(bufs_[kJacobiSweeps % 2], reference_, 1e-6);
  }

  double direct_step_seconds() override {
    apps::dist::JacobiConfig jc;
    jc.rows = kJacobiRows;
    jc.cols = kJacobiCols;
    jc.iterations = kJacobiSweeps;
    const double start = steady_seconds();
    const auto grid = apps::dist::jacobi_reference(jc);
    const double elapsed = steady_seconds() - start;
    if (grid.empty()) throw std::runtime_error("jacobi: empty direct solve");
    return elapsed;
  }

  std::string describe() const override {
    return "jacobi_halo: " + std::to_string(kJacobiRows) + "x" +
           std::to_string(kJacobiCols) + " grid, " +
           std::to_string(kJacobiSweeps) + " sweeps per solve, " +
           std::to_string(kJacobiNodes) +
           " nodes x (1 CPU core + C2050), overlapped halo exchange, fixed "
           "placement; the app's initial field does not depend on the seed "
           "(" + std::to_string(seed_) + ")";
  }

 private:
  struct Regions {
    rt::DataHandlePtr top, mid, bot, g_top, g_bot;
  };

  void register_regions(Spans& spans) {
    rt::Engine& e = *engine_;
    const auto rows = [&](std::vector<float>& buf, std::size_t r0,
                          std::size_t count) {
      auto h = register_span(e, spans, buf.data() + r0 * kJacobiCols,
                             count * kJacobiCols, kJacobiCols * sizeof(float));
      handles_.push_back(h);
      return h;
    };
    for (int b = 0; b < 2; ++b) {
      for (int p = 0; p < kJacobiNodes; ++p) {
        Regions& r = regions_[b][p];
        r.top = rows(bufs_[b], owned_begin_[p], 1);
        r.mid = rows(bufs_[b], owned_begin_[p] + 1,
                     owned_end_[p] - owned_begin_[p] - 2);
        r.bot = rows(bufs_[b], owned_end_[p] - 1, 1);
        r.g_top = p > 0 ? rows(ghost_top_[b][p], 0, 1) : nullptr;
        r.g_bot = p + 1 < kJacobiNodes ? rows(ghost_bot_[b][p], 0, 1) : nullptr;
      }
    }
  }

  void submit(Spans& spans, const rt::Codelet* codelet,
              std::vector<rt::TaskOperand> operands,
              std::shared_ptr<const void> arg, rt::WorkerId worker,
              int priority) {
    rt::TaskSpec spec;
    {
      Span span(spans, Layer::kApp);
      spec.codelet = codelet;
      spec.operands = std::move(operands);
      spec.arg = std::move(arg);
      spec.forced_worker = worker;
      spec.priority = priority;
    }
    Span span(spans, Layer::kSubmit);
    engine_->submit(std::move(spec));
  }

  std::shared_ptr<const void> band_args(std::uint32_t above, std::uint32_t band,
                                        std::uint32_t below) {
    auto args = std::make_shared<JacobiBandArgs>();
    args->cols = static_cast<std::uint32_t>(kJacobiCols);
    args->above_rows = above;
    args->band_rows = band;
    args->below_rows = below;
    return std::shared_ptr<const void>(args, args.get());
  }

  /// One sweep src -> 1 - src: halo pulls on the exchange workers (priority
  /// 1, critical path), interior on the compute worker overlapping them,
  /// then the two boundary bands, exactly the task graph of run_jacobi.
  void sweep(Spans& spans, int src) {
    const int dst = 1 - src;
    for (int p = 0; p < kJacobiNodes; ++p) {
      if (p > 0) {
        submit(spans, copy_, {{regions_[src][p - 1].bot, M::kRead},
                              {regions_[src][p].g_top, M::kWrite}},
               nullptr, exchange_[p], 1);
      }
      if (p + 1 < kJacobiNodes) {
        submit(spans, copy_, {{regions_[src][p + 1].top, M::kRead},
                              {regions_[src][p].g_bot, M::kWrite}},
               nullptr, exchange_[p], 1);
      }
    }
    for (int p = 0; p < kJacobiNodes; ++p) {
      const Regions& s = regions_[src][p];
      const Regions& d = regions_[dst][p];
      const auto mid_rows =
          static_cast<std::uint32_t>(owned_end_[p] - owned_begin_[p] - 2);
      submit(spans, band_,
             {{s.top, M::kRead}, {s.mid, M::kRead}, {s.bot, M::kRead},
              {d.mid, M::kWrite}},
             band_args(1, mid_rows, 1), compute_[p], 0);
      std::vector<rt::TaskOperand> top;
      if (s.g_top != nullptr) top.push_back({s.g_top, M::kRead});
      top.insert(top.end(), {{s.top, M::kRead}, {s.mid, M::kRead},
                             {d.top, M::kWrite}, {d.mid, M::kRead}});
      submit(spans, band_, std::move(top),
             band_args(s.g_top != nullptr ? 1 : 0, 1, mid_rows), compute_[p], 1);
      std::vector<rt::TaskOperand> bot = {{s.mid, M::kRead}, {s.bot, M::kRead}};
      if (s.g_bot != nullptr) bot.push_back({s.g_bot, M::kRead});
      bot.insert(bot.end(), {{d.bot, M::kWrite}, {d.mid, M::kRead}});
      submit(spans, band_, std::move(bot),
             band_args(mid_rows, 1, s.g_bot != nullptr ? 1 : 0), compute_[p], 1);
    }
  }

  std::uint64_t seed_;
  const rt::Codelet* band_ = nullptr;
  const rt::Codelet* copy_ = nullptr;
  std::vector<float> initial_, reference_;
  std::vector<float> bufs_[2];
  std::vector<std::vector<float>> ghost_top_[2], ghost_bot_[2];
  Regions regions_[2][kJacobiNodes];
  std::vector<rt::DataHandlePtr> handles_;
  rt::WorkerId compute_[kJacobiNodes] = {};
  rt::WorkerId exchange_[kJacobiNodes] = {};
  std::size_t owned_begin_[kJacobiNodes] = {};
  std::size_t owned_end_[kJacobiNodes] = {};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool trace) {
  if (name == "ode_chain") return std::make_unique<OdeChain>(seed, trace);
  if (name == "spmv_hybrid") return std::make_unique<SpmvHybrid>(seed, trace);
  if (name == "jacobi_halo") return std::make_unique<JacobiHalo>(seed, trace);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace appbench
