// Allocation and recycling tests of the task path. A counting global
// operator new (this binary only) measures what the engine allocates per
// task once its caches are warm; Task::create's free list must hand out
// fully reset tasks; and a TaskPtr may outlive the Engine that made it.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/engine.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler does not pair an inlined free() with the
// new-expression it cannot see is malloc-backed.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace peppher::rt {
namespace {

using M = AccessMode;

Codelet make_codelet(const char* name) {
  Codelet codelet(name);
  codelet.add_impl(Implementation(
      Arch::kCpu, std::string(name) + "_cpu", [](ExecContext&) {},
      [](const std::vector<std::size_t>& bytes, const void*) {
        sim::KernelCost cost;
        cost.flops = 1000.0 * static_cast<double>(bytes.size());
        cost.bytes = 1024.0;
        return cost;
      }));
  return codelet;
}

/// The RK4 step of the ODE solver (Figure 7): nine dependent tasks over
/// J, y, k1..k4, a stage temporary and the error estimate, then a host
/// read of the error — with every TaskSpec built before the step runs.
class Rk4Chain {
 public:
  explicit Rk4Chain(Engine& engine) : engine_(engine) {
    handles_.push_back(engine.register_buffer(j_.data(), sizeof(j_), 4));
    for (auto& v : vectors_) {
      handles_.push_back(engine.register_buffer(v.data(), sizeof(v), 4));
    }
  }

  /// Specs of `steps` steps, pinned to worker 0.
  std::vector<TaskSpec> build(int steps) const {
    constexpr M R = M::kRead, W = M::kWrite, RW = M::kReadWrite;
    const std::array<std::pair<int, std::vector<std::pair<int, M>>>, 9> step =
        {{{0, {{kJ, R}, {kY, R}, {kK1, W}}},
          {1, {{kY, R}, {kK1, R}, {kT, W}}},
          {0, {{kJ, R}, {kT, R}, {kK2, W}}},
          {2, {{kY, R}, {kK1, R}, {kK2, R}, {kT, W}}},
          {0, {{kJ, R}, {kT, R}, {kK3, W}}},
          {3, {{kY, R}, {kK1, R}, {kK2, R}, {kK3, R}, {kT, W}}},
          {0, {{kJ, R}, {kT, R}, {kK4, W}}},
          {4, {{kY, RW}, {kK1, R}, {kK2, R}, {kK3, R}, {kK4, R}}},
          {5, {{kK1, R}, {kK2, R}, {kK3, R}, {kK4, R}, {kErr, W}}}}};
    std::vector<TaskSpec> specs;
    specs.reserve(static_cast<std::size_t>(steps) * step.size());
    for (int s = 0; s < steps; ++s) {
      for (const auto& [component, operands] : step) {
        TaskSpec spec;
        spec.codelet = &codelets_[static_cast<std::size_t>(component)];
        for (const auto& [slot, mode] : operands) {
          spec.operands.push_back({handles_[static_cast<std::size_t>(slot)], mode});
        }
        spec.arg = std::make_shared<std::array<float, 6>>();
        spec.forced_worker = 0;
        specs.push_back(std::move(spec));
      }
    }
    return specs;
  }

  /// Submits the specs step by step, reading the error back after each.
  void run(std::vector<TaskSpec>& specs) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      engine_.submit(std::move(specs[i]));
      if (i % 9 == 8) engine_.acquire_host(handles_[kErr], M::kRead);
    }
  }

 private:
  enum Slot { kJ, kY, kK1, kK2, kK3, kK4, kT, kErr };

  Engine& engine_;
  std::array<Codelet, 6> codelets_ = {
      make_codelet("rk4_rhs"),    make_codelet("rk4_stage2"),
      make_codelet("rk4_stage3"), make_codelet("rk4_stage4"),
      make_codelet("rk4_combine"), make_codelet("rk4_error")};
  std::array<float, 64 * 64> j_{};
  std::array<std::array<float, 64>, 7> vectors_{};
  std::vector<DataHandlePtr> handles_;
};

TEST(TaskAlloc, SteadyRk4ChainAllocatesAlmostNothingPerTask) {
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  Engine engine(config);
  Rk4Chain chain(engine);

  std::vector<TaskSpec> warmup = chain.build(100);
  chain.run(warmup);
  constexpr int kSteps = 150;  // 1350 tasks
  std::vector<TaskSpec> measured = chain.build(kSteps);

  g_allocations.store(0);
  g_counting.store(true);
  chain.run(measured);
  engine.wait_for_all();
  g_counting.store(false);

  const double per_task =
      static_cast<double>(g_allocations.load()) / (kSteps * 9.0);
  EXPECT_LE(per_task, 0.1) << g_allocations.load() << " allocations for "
                           << kSteps * 9 << " tasks";
  EXPECT_EQ(engine.fault_stats().tasks_failed, 0u);
}

TEST(TaskAlloc, RecycledTaskCarriesNothingFromItsPreviousUse) {
  Codelet codelet = make_codelet("recycle_probe");
  auto arg = std::make_shared<int>(7);
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.name = "first use";
  spec.arg = arg;
  spec.priority = 3;
  spec.forced_arch = Arch::kCuda;
  spec.forced_worker = 2;
  spec.synchronous = true;
  spec.max_retries = 5;
  spec.verify_point = 9;
  spec.on_complete = [arg](const Task&) {};
  TaskPtr first = Task::create(std::move(spec), 41);
  Task* const address = first.get();

  // Everything a submission, a failed attempt and a completion write.
  first->operand_bytes = {256, 16384, 256};
  first->footprint = 99;
  first->total_bytes = 16896;
  first->impl_for_arch[0] = &codelet.impls()[0];
  first->dispatch_keys = {1, 2, 3, 4};
  first->has_dispatch_keys = true;
  first->replay_arch = 2;
  first->ready_eligible_mask = 0b101;
  first->eligible_workers = 0b111;
  first->unmet_dependencies = 2;
  first->successors.push_back(Task::create(TaskSpec{}, 42));
  first->max_pred_end = 1.5;
  first->linking_successor = 42;
  first->retries_left = 1;
  first->attempts = 2;
  first->excluded_archs = arch_bit(Arch::kCuda);
  first->first_failed_arch = Arch::kCuda;
  first->state.store(TaskState::kDone);
  first->waiters.store(3);
  first->error = std::make_exception_ptr(std::runtime_error("first failure"));
  first->executed_on = 4;
  first->executed_arch = Arch::kCuda;
  first->executed_variant = &codelet.impls()[0];
  first->vstart = 2.0;
  first->vend = 3.0;
  first->exec_seconds = 1.0;
  const std::size_t operand_capacity = first->operand_bytes.capacity();

  first.reset();
  EXPECT_EQ(arg.use_count(), 1) << "the spec's argument and callback are dropped";

  TaskSpec next_spec;
  next_spec.codelet = &codelet;
  const TaskPtr next = Task::create(std::move(next_spec), 43);
  ASSERT_EQ(next.get(), address) << "the released task is reused";
  const Task& t = *next;
  EXPECT_EQ(t.sequence, 43u);
  EXPECT_EQ(t.spec.codelet, &codelet);
  EXPECT_TRUE(t.spec.operands.empty());
  EXPECT_EQ(t.spec.arg, nullptr);
  EXPECT_EQ(t.spec.priority, 0);
  EXPECT_TRUE(t.spec.name.empty());
  EXPECT_FALSE(t.spec.forced_arch.has_value());
  EXPECT_FALSE(t.spec.forced_worker.has_value());
  EXPECT_FALSE(t.spec.synchronous);
  EXPECT_EQ(t.spec.max_retries, -1);
  EXPECT_EQ(t.spec.verify_point, -1);
  EXPECT_FALSE(static_cast<bool>(t.spec.on_complete));
  EXPECT_TRUE(t.operand_bytes.empty());
  EXPECT_GE(t.operand_bytes.capacity(), operand_capacity);
  EXPECT_EQ(t.footprint, 0u);
  EXPECT_EQ(t.total_bytes, 0u);
  for (const Implementation* impl : t.impl_for_arch) EXPECT_EQ(impl, nullptr);
  for (std::uint64_t key : t.dispatch_keys) EXPECT_EQ(key, 0u);
  EXPECT_FALSE(t.has_dispatch_keys);
  EXPECT_EQ(t.replay_arch, -1);
  EXPECT_EQ(t.ready_eligible_mask, 0u);
  EXPECT_EQ(t.eligible_workers, 0u);
  EXPECT_EQ(t.unmet_dependencies, 0);
  EXPECT_TRUE(t.successors.empty());
  EXPECT_EQ(t.max_pred_end, 0.0);
  EXPECT_EQ(t.linking_successor, ~std::uint64_t{0});
  EXPECT_EQ(t.retries_left, 0);
  EXPECT_EQ(t.attempts, 0);
  EXPECT_EQ(t.excluded_archs, 0u);
  EXPECT_FALSE(t.first_failed_arch.has_value());
  EXPECT_EQ(t.state.load(), TaskState::kBlocked);
  EXPECT_EQ(t.waiters.load(), 0);
  EXPECT_FALSE(t.failed());
  EXPECT_EQ(t.executed_on, -1);
  EXPECT_EQ(t.executed_arch, Arch::kCpu);
  EXPECT_EQ(t.executed_variant, nullptr);
  EXPECT_TRUE(t.executed_impl().empty());
  EXPECT_EQ(t.vstart, 0.0);
  EXPECT_EQ(t.vend, 0.0);
  EXPECT_EQ(t.exec_seconds, 0.0);
}

TEST(TaskAlloc, TaskPtrOutlivesItsEngine) {
  Codelet codelet("outlive_doubler");
  codelet.add_impl(Implementation(Arch::kCpu, "outlive_doubler_cpu",
                                  [](ExecContext& ctx) {
                                    float* v = ctx.buffer_as<float>(0);
                                    for (std::size_t i = 0; i < ctx.elements(0); ++i) {
                                      v[i] *= 2.0f;
                                    }
                                  }));
  std::vector<float> data(32, 1.0f);
  TaskPtr here;
  TaskPtr elsewhere;
  {
    EngineConfig config;
    config.machine = sim::MachineConfig::cpu_only(2);
    Engine engine(config);
    const DataHandlePtr handle = engine.register_buffer(
        data.data(), data.size() * sizeof(float), sizeof(float));
    for (TaskPtr* slot : {&here, &elsewhere}) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handle, AccessMode::kReadWrite}};
      *slot = engine.submit(std::move(spec));
    }
    engine.wait(elsewhere);
    engine.unregister(handle);  // the handle no longer names the tasks
  }
  // The engine and its workers are gone; the tasks and the handle their
  // operands keep alive are not.
  for (const TaskPtr& task : {here, elsewhere}) {
    EXPECT_EQ(task->state.load(), TaskState::kDone);
    EXPECT_FALSE(task->failed());
    EXPECT_EQ(task->executed_impl(), "outlive_doubler_cpu");
    EXPECT_EQ(task->spec.operands.size(), 1u);
  }
  EXPECT_LT(here->sequence, elsewhere->sequence);
  EXPECT_EQ(data[0], 4.0f);
  // Released on a thread of its own, a task is recycled there and freed
  // when that thread exits; released here, it joins this thread's list.
  std::thread([task = std::move(elsewhere)]() mutable { task.reset(); }).join();
  here.reset();
  EXPECT_EQ(here, nullptr);
}

}  // namespace
}  // namespace peppher::rt
