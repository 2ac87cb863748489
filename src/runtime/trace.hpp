// Execution tracing: per-task records of what ran where and when (virtual
// time), plus — when EngineConfig::enable_trace is set — transfer events
// (link lane, bytes, coalesced-burst id), prefetch events (enqueued /
// completed / skipped with reason), scheduler-decision events (candidate
// completion estimates per architecture and the chosen placement) and
// engine phase markers. Exportable as a chrome://tracing JSON file, a text
// Gantt chart, or the versioned machine-readable schema Engine::trace_json
// renders for the peppher-perf analyzer (see docs/perf.md).
//
// StarPU ships the equivalent FxT/Vite tracing; here it doubles as the
// ground truth for the virtual-time consistency tests, the differential
// counter cross-checks in tests/test_perf.cpp, and as a debugging aid for
// scheduling decisions.
//
// Concurrency: recording goes through chunked append-only logs — a writer
// claims a slot with one atomic fetch_add, fills it, and publishes it with
// a release store. Chunks are recycled by clear(), so the steady state of
// the task hot path stays allocation-free (record_task stores the TaskPtr
// and Implementation pointer instead of copying strings; names are
// materialised only when a snapshot is taken).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/task.hpp"
#include "runtime/types.hpp"

namespace peppher::rt {

struct Implementation;

/// One task execution attempt. A task retried after a failed attempt emits
/// several records: one per failed attempt (failed = true) plus the final
/// one (its `attempt` index counts the preceding failures).
struct TaskRecord {
  std::uint64_t sequence = 0;   ///< submission order
  std::string name;             ///< task/component name
  std::string impl;             ///< chosen variant
  Arch arch = Arch::kCpu;
  WorkerId worker = -1;
  VirtualTime vstart = 0.0;
  VirtualTime vend = 0.0;
  int attempt = 0;              ///< 0 = first attempt, n = n-th retry
  bool failed = false;          ///< this attempt ended in an error
  double exec_seconds = 0.0;    ///< virtual execution time (excl. transfers)
  int verify_point = -1;        ///< program point (TaskSpec::verify_point)
  std::vector<std::uint64_t> data;  ///< operand data-handle ids
};

/// One link-lane occupancy interval charged by DataManager::charge_link:
/// exactly one record per transferred hop (device<->device via host counts
/// as two hops, matching TransferStats::record_transfer).
struct TransferRecord {
  int lane = 0;                      ///< link lane index (see docs/perf.md)
  std::uint64_t lane_sequence = 0;   ///< per-lane monotonic order
  MemoryNodeId from = kHostNode;
  MemoryNodeId to = kHostNode;
  std::uint64_t bytes = 0;
  VirtualTime vstart = 0.0;
  VirtualTime vend = 0.0;
  bool coalesced = false;  ///< joined an in-flight burst on this lane
  std::uint64_t burst = 0; ///< coalesced-burst id (0 = simulated, no host ptr)
  std::uint64_t data = 0;  ///< data-handle id
  int from_node = 0;       ///< simulated cluster node of `from`
  int to_node = 0;         ///< simulated cluster node of `to`
};

enum class PrefetchEvent : std::uint8_t { kEnqueued, kCompleted, kSkipped };

/// Why a prefetch request was skipped instead of fetched.
enum class PrefetchSkipReason : std::uint8_t {
  kNone,            ///< not skipped (enqueued / completed events)
  kWriterRace,      ///< a writer claimed the data before the fetch ran
  kPartitioned,     ///< the handle was partitioned in the meantime
  kDetached,        ///< the handle was unregistered in the meantime
  kTransferFailed,  ///< the fetch itself threw
  kShutdown,        ///< engine drain stopped the prefetch thread
};

const char* to_string(PrefetchEvent event);
const char* to_string(PrefetchSkipReason reason);

/// One prefetch lifecycle event (enqueued, then completed or skipped).
struct PrefetchRecord {
  PrefetchEvent event = PrefetchEvent::kEnqueued;
  PrefetchSkipReason reason = PrefetchSkipReason::kNone;
  std::uint64_t task_sequence = 0;  ///< task whose placement committed it
  MemoryNodeId node = kHostNode;    ///< destination memory node
  int sim_node = 0;                 ///< simulated cluster node of `node`
  std::uint64_t data = 0;           ///< data-handle id
  std::uint64_t bytes = 0;
};

/// One scheduler placement decision (policies that choose a concrete
/// worker; centrally queued policies emit none). Model-based policies also
/// report their candidate completion estimates so the analyzer can compare
/// prediction against the traced outcome (PF005).
struct DecisionRecord {
  std::uint64_t task_sequence = 0;
  WorkerId chosen = -1;
  bool explored = false;          ///< calibration placement, not model-based
  double chosen_estimate = -1.0;  ///< predicted completion vtime (<0 = none)
  /// Best predicted completion vtime per architecture; +infinity where no
  /// eligible worker of that architecture exists.
  std::array<double, kArchCount> arch_estimate{};
};

/// A named engine phase marker (Engine::trace_phase) at a virtual time.
struct PhaseRecord {
  std::string label;
  VirtualTime vtime = 0.0;
};

/// One lookahead window-planning decision: which ready tasks were batched
/// and what the joint plan predicted for them, so peppher-perf can
/// diagnose mispredicted windows the same way PF005 checks per-task
/// estimates. Other policies emit none.
struct WindowRecord {
  std::uint64_t id = 0;            ///< monotonic window index
  int size = 0;                    ///< tasks planned in this window
  double estimate = 0.0;           ///< predicted window makespan (vtime)
  bool improved = false;           ///< branch-and-bound beat the greedy plan
  std::uint64_t explored = 0;      ///< search nodes expanded
  std::vector<std::uint64_t> tasks;  ///< task sequences, plan order
};

/// Thread-safe trace collector (attached to an Engine when
/// EngineConfig::enable_trace is set).
class Tracer {
 public:
  /// Records a fully materialised task record (tests / external tooling).
  void record(TaskRecord record);

  /// Hot-path task recording: snapshots the task's timing fields and keeps
  /// pointers instead of copying names (no allocation in the steady state).
  void record_task(const TaskPtr& task,
                   const Implementation* impl, WorkerId worker, int attempt,
                   bool failed);

  void record_transfer(const TransferRecord& record);
  void record_prefetch(const PrefetchRecord& record);
  void record_decision(const DecisionRecord& record);
  void record_window(WindowRecord record);
  void record_phase(std::string label, VirtualTime vtime);

  /// Snapshot of all task records so far, in completion order.
  std::vector<TaskRecord> records() const;

  /// Snapshots of the other event streams, in recording order.
  std::vector<TransferRecord> transfers() const;
  std::vector<PrefetchRecord> prefetches() const;
  std::vector<DecisionRecord> decisions() const;
  std::vector<WindowRecord> windows() const;
  std::vector<PhaseRecord> phases() const;

  /// Drops all records (benchmark repetition). Quiescent use only: no
  /// concurrent recording may be in flight.
  void clear();

  /// Number of task records (the other streams have their own snapshots).
  std::size_t size() const;

  /// chrome://tracing ("Trace Event Format") JSON: one complete event per
  /// task attempt (pid 1, one row per worker) and one per transfer hop
  /// (pid 2, one row per link lane); durations in microseconds of virtual
  /// time. Rows are sorted by (sequence, attempt) / (lane, lane order), so
  /// equal inputs render byte-identical files.
  std::string to_chrome_json() const;

  /// Quick text Gantt chart: one line per worker, `columns` characters wide
  /// over [0, makespan]. Each task paints its span with the first letter of
  /// its name; idle time is '.'.
  std::string to_text_gantt(int columns = 80) const;

 private:
  /// Append-only event log: slots are claimed with one atomic fetch_add and
  /// published with a release store; chunks are allocated on first touch and
  /// recycled across clear() so steady-state appends never allocate.
  template <typename T>
  class ChunkedLog {
   public:
    static constexpr std::size_t kChunkShift = 10;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kMaxChunks = 4096;  ///< 4M events

    ChunkedLog() = default;
    ChunkedLog(const ChunkedLog&) = delete;
    ChunkedLog& operator=(const ChunkedLog&) = delete;
    ~ChunkedLog() {
      for (auto& entry : chunks_) delete entry.load(std::memory_order_acquire);
    }

    template <typename U>
    void append(U&& value) {
      const std::size_t index = count_.fetch_add(1, std::memory_order_relaxed);
      if (index >= kChunkSize * kMaxChunks) return;  // full: drop (4M events)
      Slot& slot = slot_at(index);
      slot.value = std::forward<U>(value);
      slot.committed.store(true, std::memory_order_release);
    }

    /// Claims a slot and lets `fill` write the value in place — no temporary
    /// T is constructed or moved. The slot is default-valued (fresh chunk or
    /// reset by clear()); `fill` only needs to set the fields it cares about.
    template <typename Fill>
    void emplace_with(Fill&& fill) {
      const std::size_t index = count_.fetch_add(1, std::memory_order_relaxed);
      if (index >= kChunkSize * kMaxChunks) return;  // full: drop (4M events)
      Slot& slot = slot_at(index);
      fill(slot.value);
      slot.committed.store(true, std::memory_order_release);
    }

    std::size_t size() const {
      return std::min(count_.load(std::memory_order_acquire),
                      kChunkSize * kMaxChunks);
    }

    /// Copies out every committed slot. Claimed-but-unpublished slots are
    /// awaited briefly (the writer is between fetch_add and its release
    /// store, a handful of instructions).
    std::vector<T> snapshot() const {
      const std::size_t n = size();
      std::vector<T> out;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t chunk_index = i >> kChunkShift;
        const Chunk* chunk = nullptr;
        while ((chunk = chunks_[chunk_index].load(
                    std::memory_order_acquire)) == nullptr) {
          std::this_thread::yield();
        }
        const Slot& slot = (*chunk)[i & (kChunkSize - 1)];
        while (!slot.committed.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        out.push_back(slot.value);
      }
      return out;
    }

    /// Quiescent-only reset: keeps the chunks for reuse.
    void clear() {
      const std::size_t n = size();
      for (std::size_t i = 0; i < n; ++i) {
        Chunk* chunk = chunks_[i >> kChunkShift].load(std::memory_order_acquire);
        if (chunk == nullptr) break;
        Slot& slot = (*chunk)[i & (kChunkSize - 1)];
        slot.value = T{};
        slot.committed.store(false, std::memory_order_relaxed);
      }
      count_.store(0, std::memory_order_release);
    }

   private:
    struct Slot {
      T value{};
      std::atomic<bool> committed{false};
    };
    using Chunk = std::array<Slot, kChunkSize>;

    Slot& slot_at(std::size_t index) {
      const std::size_t chunk_index = index >> kChunkShift;
      Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
      if (chunk == nullptr) {
        std::lock_guard<std::mutex> lock(grow_mutex_);
        chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
        if (chunk == nullptr) {
          chunk = new Chunk();
          chunks_[chunk_index].store(chunk, std::memory_order_release);
        }
      }
      return (*chunk)[index & (kChunkSize - 1)];
    }

    std::atomic<std::size_t> count_{0};
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
    std::mutex grow_mutex_;  ///< chunk allocation only
  };

  /// Operand ids captured inline by the slim hot path (more spill to the
  /// keep-the-task-alive fallback, as do names too long for the string's
  /// in-situ buffer).
  static constexpr std::size_t kInlineOperands = 4;
  /// Names at most this long are assumed to fit std::string's small-string
  /// buffer (15 on libstdc++; merely a perf assumption, never a correctness
  /// one).
  static constexpr std::size_t kInlineName = 15;

  /// One task event: a fully materialised record (legacy record()), a slim
  /// hot-path capture (name + operand ids stored inline, nothing kept
  /// alive), or a fallback that keeps the TaskPtr and resolves the strings
  /// and ids when a snapshot is taken.
  struct TaskEventSlot {
    TaskRecord record;
    TaskPtr task;
    const Implementation* impl = nullptr;
    std::array<std::uint64_t, kInlineOperands> inline_data{};
    std::uint8_t inline_count = 0;
    bool slim = false;
  };

  static TaskRecord materialize(const TaskEventSlot& slot);

  ChunkedLog<TaskEventSlot> tasks_;
  ChunkedLog<TransferRecord> transfers_;
  ChunkedLog<PrefetchRecord> prefetches_;
  ChunkedLog<DecisionRecord> decisions_;
  ChunkedLog<WindowRecord> windows_;
  ChunkedLog<PhaseRecord> phases_;
};

}  // namespace peppher::rt
