// Tasks: one component invocation translated by a generated entry-wrapper
// into a unit of work for the runtime. Tasks are stateless (the paper §II);
// the data they operate on is carried by DataHandles.
//
// A Task is owned through TaskPtr, an intrusive reference count: no
// separate control block, and a task whose last reference goes away is
// recycled through a bounded per-thread free list instead of being
// destroyed, so its operand-size and successor vectors keep their
// capacity for the next submission (see Task::create).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/codelet.hpp"
#include "runtime/types.hpp"

namespace peppher::rt {

class DataHandle;
using DataHandlePtr = std::shared_ptr<DataHandle>;

class Task;

/// Owning handle to a Task (intrusive reference count). Copying costs one
/// atomic increment; the last release recycles the task. A TaskPtr may
/// outlive the Engine that created it: the task stays readable and is
/// recycled or freed by whichever thread drops it last.
class TaskPtr {
 public:
  constexpr TaskPtr() noexcept = default;
  constexpr TaskPtr(std::nullptr_t) noexcept {}
  TaskPtr(const TaskPtr& other) noexcept;
  TaskPtr(TaskPtr&& other) noexcept
      : task_(std::exchange(other.task_, nullptr)) {}
  TaskPtr& operator=(const TaskPtr& other) noexcept {
    TaskPtr(other).swap(*this);
    return *this;
  }
  TaskPtr& operator=(TaskPtr&& other) noexcept {
    TaskPtr(std::move(other)).swap(*this);
    return *this;
  }
  ~TaskPtr();

  Task* get() const noexcept { return task_; }
  Task& operator*() const noexcept { return *task_; }
  Task* operator->() const noexcept { return task_; }
  explicit operator bool() const noexcept { return task_ != nullptr; }

  void reset() noexcept { TaskPtr().swap(*this); }
  void swap(TaskPtr& other) noexcept { std::swap(task_, other.task_); }

  friend bool operator==(const TaskPtr& a, const TaskPtr& b) noexcept {
    return a.task_ == b.task_;
  }
  friend bool operator==(const TaskPtr& a, std::nullptr_t) noexcept {
    return a.task_ == nullptr;
  }

 private:
  friend class Task;
  /// Adopts one reference already counted on `task`.
  explicit TaskPtr(Task* task) noexcept : task_(task) {}

  Task* task_ = nullptr;
};

/// One data operand of a task.
struct TaskOperand {
  DataHandlePtr handle;
  AccessMode mode = AccessMode::kRead;
};

enum class TaskState : std::uint8_t {
  kBlocked,  ///< waiting on data dependencies
  kReady,    ///< in a scheduler queue
  kRunning,
  kDone,     ///< finished (successfully, or failed — see Task::error)
};

/// What a caller fills in to submit a task; everything else is derived.
struct TaskSpec {
  const Codelet* codelet = nullptr;
  std::vector<TaskOperand> operands;

  /// Type-erased argument blob passed to the implementation; the shared_ptr
  /// keeps it alive until the task finishes.
  std::shared_ptr<const void> arg;

  int priority = 0;
  std::string name;  ///< label for logs; defaults to the codelet name

  /// User-guided static composition: restrict execution to one architecture
  /// (the entry-wrapper sets this when the descriptor pins a platform).
  std::optional<Arch> forced_arch;
  /// Pin to one specific worker (used by the "direct" baselines).
  std::optional<WorkerId> forced_worker;

  /// Synchronous submission: submit() blocks until the task completes.
  bool synchronous = false;

  /// Per-task override of EngineConfig::max_retries (-1 = engine default,
  /// 0 = fail fast on the first failed attempt).
  int max_retries = -1;

  /// Program point of the main module's declared call sequence this task
  /// corresponds to (-1 = untagged). Only consumed by the verify_shadow
  /// observation log, which uses it to match concrete coherence states
  /// against the static verifier's abstract state for the same point.
  int verify_point = -1;

  /// Invoked once after the task completes (successfully or failed), from
  /// the completing worker thread, outside engine locks. Must not block on
  /// other tasks of the same engine.
  std::function<void(const Task&)> on_complete;
};

/// A submitted task. Owned via TaskPtr by the engine, scheduler queues,
/// dependency edges and the application.
class Task {
 public:
  /// A task for `spec` with submission number `sequence`, in the state of
  /// a fresh submission: taken from this thread's free list when it has
  /// one (every field reset, vectors keeping their capacity), else newly
  /// allocated.
  static TaskPtr create(TaskSpec spec, std::uint64_t sequence);

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  TaskSpec spec;
  std::uint64_t sequence = 0;  ///< submission order, for determinism

  // -- hot-path caches (computed once in Engine::submit, immutable after) ---
  //
  // Operand sizes, their footprint hash and the per-architecture variant
  // resolution are consulted by every scheduling estimate for every
  // candidate worker; caching them here keeps the (task, worker) inner loop
  // allocation-free. The implementation cache snapshots the codelet's
  // enabled variants and evaluates selectability predicates against the
  // operand sizes at submission time — toggling a variant while the task is
  // in flight no longer affects it (it never affected a queued decision
  // deterministically before either).
  std::vector<std::size_t> operand_bytes;
  std::uint64_t footprint = 0;     ///< footprint_of(operand_bytes)
  std::size_t total_bytes = 0;     ///< sum of operand_bytes
  std::array<const Implementation*, kArchCount> impl_for_arch{};

  /// Static-composition replay: probe keys into the dispatch table, from
  /// most to least specific — (codelet, footprint, point), (codelet,
  /// footprint, any), (codelet, any, point), (codelet, any, any). Computed
  /// once at submit when a replay table is loaded, so the scheduler's
  /// hot-path lookup does no hashing. Empty (has_dispatch_keys = false)
  /// when replay is off.
  std::array<std::uint64_t, 4> dispatch_keys{};
  bool has_dispatch_keys = false;

  /// The table's answer for the most specific matching key, resolved once
  /// at submit (the replay table is immutable after load). -1 when no key
  /// matches. The scheduler's replay fast path reads this instead of
  /// probing the table; the key chain above remains the slow-path fallback
  /// when the resolved architecture has no eligible worker (blacklist).
  int replay_arch = -1;

  /// Eligible-worker bitmask snapshotted by the engine immediately before
  /// each scheduler push (bit w = worker w may run this task, workers 0-63).
  /// 0 = not snapshotted (direct scheduler unit tests): callers fall back
  /// to the SchedEnv eligibility callback. Refreshed on every re-push, so a
  /// post-blacklist re-dispatch never sees the dead worker's bit.
  std::uint64_t ready_eligible_mask = 0;

  /// Workers 0-63 that have a variant for this task, with forced worker,
  /// forced architecture and excluded architectures applied but blacklisting
  /// not: computed at submission and after each failed attempt, so the
  /// eligibility tests of dispatch and completion are one mask operation.
  std::uint64_t eligible_workers = 0;

  // -- dependency bookkeeping (all guarded by the Engine's graph mutex) -----
  int unmet_dependencies = 0;
  std::vector<TaskPtr> successors;
  VirtualTime max_pred_end = 0.0;  ///< latest vend among finished predecessors

  /// Sequence number of the successor task currently being linked against
  /// this one — O(1) duplicate-edge detection during submission without a
  /// per-submit hash set (sequence numbers are never reused, unlike task
  /// addresses).
  std::uint64_t linking_successor = ~std::uint64_t{0};

  // -- retry bookkeeping ----------------------------------------------------
  //
  // Written only by the worker currently executing the task (which owns it
  // until it re-pushes or completes it); the scheduler-queue locks and the
  // kDone publication order those writes for every later reader.

  /// Retries still allowed after a failed attempt (initialised from the
  /// spec/engine policy at submission).
  int retries_left = 0;
  /// Failed execution attempts so far (a successful task that needed one
  /// retry finishes with attempts == 1).
  int attempts = 0;
  /// Architectures whose variant already failed this task; never retried.
  ArchMask excluded_archs = 0;
  /// Architecture of the first failed attempt (fallback accounting).
  std::optional<Arch> first_failed_arch;

  // -- execution results ----------------------------------------------------

  /// Lifecycle state. Atomic because waiters poll it outside the engine's
  /// graph lock; the kDone store (made after all result fields are written)
  /// is what publishes the results below to waiters.
  std::atomic<TaskState> state{TaskState::kBlocked};

  /// Threads blocked in Engine::wait() on this task. Completion takes the
  /// engine's done mutex to wake them only when this is non-zero.
  std::atomic<int> waiters{0};

  /// Set if the implementation threw or a predecessor failed; rethrown by
  /// Engine::wait(). Failed tasks complete (waiters wake) but their
  /// successors are failed transitively without running.
  std::exception_ptr error;

  bool failed() const noexcept { return error != nullptr; }
  WorkerId executed_on = -1;
  Arch executed_arch = Arch::kCpu;
  /// Variant that ran the last attempt (nullptr before the first one).
  /// Points into the codelet's variant list, like TaskSpec::codelet.
  const Implementation* executed_variant = nullptr;
  /// Name of executed_variant; empty before the first attempt.
  const std::string& executed_impl() const noexcept;
  VirtualTime vstart = 0.0;
  VirtualTime vend = 0.0;
  double exec_seconds = 0.0;  ///< virtual execution time (excl. transfers)

 private:
  friend class TaskPtr;

  Task() = default;
  ~Task() = default;

  /// Drops what the task holds (operands, argument, callback, error,
  /// edges) and resets every field to its initial value; vectors keep
  /// their capacity. Then parks the task on this thread's free list, or
  /// deletes it when the list is full. Called on the last release.
  static void recycle(Task* task) noexcept;

  /// This thread's recycled tasks: a list linked through next_free_,
  /// capped in length. Its destructor (thread exit) frees what it holds.
  struct FreeList;
  static thread_local FreeList t_free_;
  /// Set once t_free_ is destroyed: later releases on this thread (static
  /// destructors of the main thread) delete instead.
  static thread_local bool t_free_gone_;

  std::atomic<std::uint32_t> refs_{0};
  Task* next_free_ = nullptr;  ///< free-list link while recycled
};

inline TaskPtr::TaskPtr(const TaskPtr& other) noexcept : task_(other.task_) {
  if (task_ != nullptr) task_->refs_.fetch_add(1, std::memory_order_relaxed);
}

inline TaskPtr::~TaskPtr() {
  if (task_ != nullptr &&
      task_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Task::recycle(task_);
  }
}

}  // namespace peppher::rt
