#include "runtime/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "runtime/memory.hpp"
#include "runtime/task.hpp"
#include "support/strings.hpp"

namespace peppher::rt {

const char* to_string(PrefetchEvent event) {
  switch (event) {
    case PrefetchEvent::kEnqueued: return "enqueued";
    case PrefetchEvent::kCompleted: return "completed";
    case PrefetchEvent::kSkipped: return "skipped";
  }
  return "unknown";
}

const char* to_string(PrefetchSkipReason reason) {
  switch (reason) {
    case PrefetchSkipReason::kNone: return "none";
    case PrefetchSkipReason::kWriterRace: return "writer_race";
    case PrefetchSkipReason::kPartitioned: return "partitioned";
    case PrefetchSkipReason::kDetached: return "detached";
    case PrefetchSkipReason::kTransferFailed: return "transfer_failed";
    case PrefetchSkipReason::kShutdown: return "shutdown";
  }
  return "unknown";
}

void Tracer::record(TaskRecord record) {
  TaskEventSlot slot;
  slot.record = std::move(record);
  tasks_.append(std::move(slot));
}

void Tracer::record_task(const TaskPtr& task,
                         const Implementation* impl, WorkerId worker,
                         int attempt, bool failed) {
  // Snapshot the per-attempt numerics now (a retry overwrites them on the
  // task). The common case captures the name and operand ids inline too —
  // a short-string copy plus a few stores, no allocation, no refcount
  // traffic, and the task can die the moment it completes. Long names or
  // wide operand lists fall back to keeping the TaskPtr and resolving the
  // strings/ids when a snapshot is taken.
  const TaskSpec& spec = task->spec;
  const std::size_t operand_count = spec.operands.size();
  if (spec.name.size() <= kInlineName && operand_count <= kInlineOperands) {
    tasks_.emplace_with([&](TaskEventSlot& slot) {
      slot.slim = true;
      slot.record.sequence = task->sequence;
      slot.record.name = spec.name;  // fits the in-situ buffer: no alloc
      slot.record.verify_point = spec.verify_point;
      slot.record.worker = worker;
      slot.record.vstart = task->vstart;
      slot.record.vend = task->vend;
      slot.record.attempt = attempt;
      slot.record.failed = failed;
      slot.record.exec_seconds = task->exec_seconds;
      slot.impl = impl;
      for (std::size_t i = 0; i < operand_count; ++i) {
        slot.inline_data[i] = spec.operands[i].handle->id();
      }
      slot.inline_count = static_cast<std::uint8_t>(operand_count);
    });
    return;
  }
  tasks_.emplace_with([&](TaskEventSlot& slot) {
    slot.record.worker = worker;
    slot.record.vstart = task->vstart;
    slot.record.vend = task->vend;
    slot.record.attempt = attempt;
    slot.record.failed = failed;
    slot.record.exec_seconds = task->exec_seconds;
    slot.task = task;
    slot.impl = impl;
  });
}

void Tracer::record_transfer(const TransferRecord& record) {
  transfers_.append(record);
}

void Tracer::record_prefetch(const PrefetchRecord& record) {
  prefetches_.append(record);
}

void Tracer::record_decision(const DecisionRecord& record) {
  decisions_.append(record);
}

void Tracer::record_window(WindowRecord record) {
  windows_.append(std::move(record));
}

void Tracer::record_phase(std::string label, VirtualTime vtime) {
  PhaseRecord record;
  record.label = std::move(label);
  record.vtime = vtime;
  phases_.append(std::move(record));
}

TaskRecord Tracer::materialize(const TaskEventSlot& slot) {
  TaskRecord record = slot.record;
  if (slot.slim) {
    record.data.assign(slot.inline_data.begin(),
                       slot.inline_data.begin() + slot.inline_count);
  } else if (slot.task != nullptr) {
    const Task& task = *slot.task;
    record.sequence = task.sequence;
    record.name = task.spec.name;
    record.verify_point = task.spec.verify_point;
    record.data.reserve(task.spec.operands.size());
    for (const TaskOperand& operand : task.spec.operands) {
      record.data.push_back(operand.handle->id());
    }
  }
  if (slot.impl != nullptr) {
    record.impl = slot.impl->name;
    record.arch = slot.impl->arch;
  }
  return record;
}

std::vector<TaskRecord> Tracer::records() const {
  std::vector<TaskRecord> out;
  for (const TaskEventSlot& slot : tasks_.snapshot()) {
    out.push_back(materialize(slot));
  }
  return out;
}

std::vector<TransferRecord> Tracer::transfers() const {
  return transfers_.snapshot();
}

std::vector<PrefetchRecord> Tracer::prefetches() const {
  return prefetches_.snapshot();
}

std::vector<DecisionRecord> Tracer::decisions() const {
  return decisions_.snapshot();
}

std::vector<WindowRecord> Tracer::windows() const {
  return windows_.snapshot();
}

std::vector<PhaseRecord> Tracer::phases() const { return phases_.snapshot(); }

void Tracer::clear() {
  tasks_.clear();
  transfers_.clear();
  prefetches_.clear();
  decisions_.clear();
  windows_.clear();
  phases_.clear();
}

std::size_t Tracer::size() const { return tasks_.size(); }

std::string Tracer::to_chrome_json() const {
  std::vector<TaskRecord> snapshot = records();
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TaskRecord& a, const TaskRecord& b) {
                     if (a.sequence != b.sequence) return a.sequence < b.sequence;
                     return a.attempt < b.attempt;
                   });
  std::vector<TransferRecord> moves = transfers();
  std::stable_sort(moves.begin(), moves.end(),
                   [](const TransferRecord& a, const TransferRecord& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     return a.lane_sequence < b.lane_sequence;
                   });
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "[\n";
  bool first = true;
  for (const TaskRecord& r : snapshot) {
    if (!first) out << ",\n";
    first = false;
    // "X" = complete event; ts/dur in microseconds.
    out << "  {\"name\": \"" << strings::replace_all(r.name, "\"", "'")
        << "\", \"cat\": \"" << to_string(r.arch)
        << "\", \"ph\": \"X\", \"ts\": " << r.vstart * 1e6
        << ", \"dur\": " << (r.vend - r.vstart) * 1e6
        << ", \"pid\": 1, \"tid\": " << r.worker << ", \"args\": {\"impl\": \""
        << strings::replace_all(r.impl, "\"", "'") << "\", \"sequence\": "
        << r.sequence << ", \"attempt\": " << r.attempt << ", \"failed\": "
        << (r.failed ? "true" : "false") << "}}";
  }
  for (const TransferRecord& t : moves) {
    if (!first) out << ",\n";
    first = false;
    // Transfers render as their own process (pid 2), one row per link lane.
    // Inter-node hops ("n2n") are distinguished from the PCIe directions;
    // on a single host from_node == to_node always and the labels are the
    // historical ones.
    out << "  {\"name\": \""
        << (t.from_node != t.to_node ? "n2n"
                                     : (t.to == kHostNode ? "d2h" : "h2d"))
        << "\", \"cat\": \"transfer\", \"ph\": \"X\", \"ts\": "
        << t.vstart * 1e6 << ", \"dur\": " << (t.vend - t.vstart) * 1e6
        << ", \"pid\": 2, \"tid\": " << t.lane << ", \"args\": {\"from\": "
        << t.from << ", \"to\": " << t.to << ", \"bytes\": " << t.bytes
        << ", \"coalesced\": " << (t.coalesced ? "true" : "false")
        << ", \"burst\": " << t.burst << ", \"data\": " << t.data
        << ", \"order\": " << t.lane_sequence << "}}";
  }
  out << "\n]\n";
  return std::move(out).str();
}

std::string Tracer::to_text_gantt(int columns) const {
  const std::vector<TaskRecord> snapshot = records();
  if (snapshot.empty() || columns <= 0) return "";
  double makespan = 0.0;
  std::map<WorkerId, std::string> rows;
  for (const TaskRecord& r : snapshot) {
    makespan = std::max(makespan, r.vend);
    rows.emplace(r.worker, std::string());
  }
  if (makespan <= 0.0) return "";
  for (auto& [worker, row] : rows) {
    row.assign(static_cast<std::size_t>(columns), '.');
  }
  for (const TaskRecord& r : snapshot) {
    std::string& row = rows[r.worker];
    const auto col = [&](double t) {
      return std::min<std::size_t>(
          static_cast<std::size_t>(columns) - 1,
          static_cast<std::size_t>(t / makespan * columns));
    };
    const char mark = r.failed ? 'x' : (r.name.empty() ? '#' : r.name[0]);
    for (std::size_t c = col(r.vstart); c <= col(r.vend); ++c) row[c] = mark;
  }
  std::ostringstream out;
  out << "virtual makespan: " << makespan << " s\n";
  for (const auto& [worker, row] : rows) {
    out << "worker " << worker << " |" << row << "|\n";
  }
  return std::move(out).str();
}

}  // namespace peppher::rt
