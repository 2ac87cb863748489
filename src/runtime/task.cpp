#include "runtime/task.hpp"

namespace peppher::rt {

namespace {

/// Recycled tasks kept per thread: a few steps' worth of a fine-grained
/// chain. A thread that releases more tasks than it creates (a worker
/// finishing what another thread submitted) deletes the surplus, so no
/// thread holds more than this many.
constexpr std::size_t kFreeListCap = 64;

}  // namespace

struct Task::FreeList {
  Task* head = nullptr;
  std::size_t size = 0;

  ~FreeList() {
    t_free_gone_ = true;
    while (head != nullptr) {
      Task* task = head;
      head = task->next_free_;
      delete task;
    }
  }
};

thread_local Task::FreeList Task::t_free_;
thread_local bool Task::t_free_gone_ = false;

TaskPtr Task::create(TaskSpec spec, std::uint64_t sequence) {
  Task* task = nullptr;
  if (!t_free_gone_ && t_free_.head != nullptr) {
    task = t_free_.head;
    t_free_.head = task->next_free_;
    task->next_free_ = nullptr;
    --t_free_.size;
  } else {
    task = new Task();
  }
  task->spec = std::move(spec);
  task->sequence = sequence;
  task->refs_.store(1, std::memory_order_relaxed);
  return TaskPtr(task);
}

void Task::recycle(Task* task) noexcept {
  // Dropping the spec's operands, argument and edges can release the last
  // reference to other tasks (a handle's last writer); they recycle first.
  TaskSpec& spec = task->spec;
  spec.codelet = nullptr;
  spec.operands.clear();
  spec.arg.reset();
  spec.priority = 0;
  spec.name.clear();
  spec.forced_arch.reset();
  spec.forced_worker.reset();
  spec.synchronous = false;
  spec.max_retries = -1;
  spec.verify_point = -1;
  spec.on_complete = nullptr;
  task->sequence = 0;
  task->operand_bytes.clear();
  task->footprint = 0;
  task->total_bytes = 0;
  task->impl_for_arch = {};
  task->dispatch_keys = {};
  task->has_dispatch_keys = false;
  task->replay_arch = -1;
  task->ready_eligible_mask = 0;
  task->eligible_workers = 0;
  task->unmet_dependencies = 0;
  task->successors.clear();
  task->max_pred_end = 0.0;
  task->linking_successor = ~std::uint64_t{0};
  task->retries_left = 0;
  task->attempts = 0;
  task->excluded_archs = 0;
  task->first_failed_arch.reset();
  task->state.store(TaskState::kBlocked, std::memory_order_relaxed);
  task->waiters.store(0, std::memory_order_relaxed);
  task->error = nullptr;
  task->executed_on = -1;
  task->executed_arch = Arch::kCpu;
  task->executed_variant = nullptr;
  task->vstart = 0.0;
  task->vend = 0.0;
  task->exec_seconds = 0.0;

  if (t_free_gone_ || t_free_.size >= kFreeListCap) {
    delete task;
    return;
  }
  task->next_free_ = t_free_.head;
  t_free_.head = task;
  ++t_free_.size;
}

const std::string& Task::executed_impl() const noexcept {
  static const std::string kNone;
  return executed_variant != nullptr ? executed_variant->name : kNone;
}

}  // namespace peppher::rt
