// Data management of the PEPPHER runtime: registered data handles with
// MSI-style coherence over multiple memory nodes (host RAM + one node per
// simulated accelerator), lazy transfers over a contended PCIe link, and
// StarPU-style partitioning into sub-handles for hybrid execution.
//
// This is the machinery behind the paper's "smart containers" discussion
// (§IV-D/E/H and Figure 3): multiple copies of the same data may exist on
// different memory units; transfers are delayed until actually necessary;
// copies are invalidated, not discarded, on writes elsewhere.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/task.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"

namespace peppher::rt {

class DataManager;
class Tracer;

/// Coherence state of one replica of a handle's data on one memory node.
enum class ReplicaState : std::uint8_t {
  kInvalid,  ///< no valid copy on this node
  kShared,   ///< valid copy, other valid copies may exist
  kOwned,    ///< the only valid copy (was modified here)
};

std::string to_string(ReplicaState state);

/// Counters for the data-traffic measurements of Figure 5 and the smart
/// container ablation (2-copies-vs-7 example of Figure 3).
struct TransferStats {
  std::uint64_t host_to_device_count = 0;
  std::uint64_t device_to_host_count = 0;
  std::uint64_t host_to_device_bytes = 0;
  std::uint64_t device_to_host_bytes = 0;
  std::uint64_t evictions = 0;    ///< device replicas dropped under pressure
  std::uint64_t overcommits = 0;  ///< allocations exceeding device capacity
  std::uint64_t coalesced_transfers = 0;  ///< charges that joined an open burst
                                          ///< (paid no link latency)
  std::uint64_t internode_count = 0;  ///< host(i) -> host(j) hops (clusters)
  std::uint64_t internode_bytes = 0;

  std::uint64_t total_count() const noexcept {
    return host_to_device_count + device_to_host_count;
  }
  std::uint64_t total_bytes() const noexcept {
    return host_to_device_bytes + device_to_host_bytes;
  }
};

/// A registered piece of application data. Created through
/// DataManager::register_buffer (never directly); always lives in a
/// shared_ptr because tasks keep operands alive.
class DataHandle : public std::enable_shared_from_this<DataHandle> {
 public:
  ~DataHandle();

  DataHandle(const DataHandle&) = delete;
  DataHandle& operator=(const DataHandle&) = delete;

  std::size_t bytes() const noexcept { return bytes_; }
  std::size_t element_size() const noexcept { return element_size_; }
  std::size_t elements() const noexcept { return bytes_ / element_size_; }

  /// Stable per-manager id (children get their own); keys trace events.
  std::uint64_t id() const noexcept { return id_; }

  /// True for a sub-handle created by partition().
  bool is_child() const noexcept { return parent_ != nullptr; }
  /// True while this handle has live children (it must not be accessed).
  /// Lock-free unless the handle was partitioned and not unpartitioned.
  bool is_partitioned() const noexcept;

  /// True for a sub-handle whose parent was unpartitioned (permanently
  /// unusable). Lock-free.
  bool detached() const noexcept {
    return detached_.load(std::memory_order_acquire);
  }

  /// Ensures a valid replica on `node` for the given access and returns its
  /// pointer. Performs any needed allocation and (real) copy, updates MSI
  /// states, charges the transfer to the PCIe link in virtual time, and
  /// returns via `data_ready` the virtual time at which the data is valid
  /// on `node`. Device replicas are *pinned* until release(node) — pinned
  /// replicas are never evicted under memory pressure. Thread safe per
  /// handle. A read of a replica that is already valid takes no lock (see
  /// acquire_resident_read).
  void* acquire(MemoryNodeId node, AccessMode mode, VirtualTime* data_ready);

  /// Unpins the replica on `node` (one release per acquire). The data stays
  /// resident (§IV-H) but becomes evictable if the device runs short of
  /// memory (§IV-D). Lock-free: the pin count is atomic, and try_evict
  /// reads it under the handle lock, where a stale non-zero count only
  /// skips an eviction.
  void release(MemoryNodeId node);

  /// mark_written(node, vend) and release(node) under one lock: how a task
  /// ends a write-mode acquire.
  void release_written(MemoryNodeId node, VirtualTime vend);

  /// Tries to drop this handle's replica on `node` to free device memory:
  /// fails if the replica is pinned, invalid, host-side, or this handle is
  /// busy. An Owned replica is flushed to the host first. Called by the
  /// DataManager under memory pressure.
  bool try_evict(MemoryNodeId node);

  /// Records that a task finished writing this handle on `node` at virtual
  /// time `vend` (refreshes the replica's validity timestamp). Ends the
  /// write that a write-mode acquire(node) began.
  void mark_written(MemoryNodeId node, VirtualTime vend);

  /// Background prefetch: makes a valid, unpinned replica on `node`, like
  /// acquire(node, kRead) + release(node), unless a write-mode acquire of
  /// this handle is outstanding on any node (host included) — copying
  /// then would downgrade the writer's owned replica under it. Decided
  /// and copied under the handle lock. Returns false when refused.
  bool prefetch(MemoryNodeId node);

  /// Zeroes every replica's validity timestamp. Called by the manager's
  /// reset_virtual_time(): `valid_at` is a virtual time, so pre-staged data
  /// must not appear to arrive *after* the reset epoch.
  void reset_virtual_time();

  /// Estimated seconds of transfer needed to make the data valid on `node`
  /// for `mode`, *without* changing any state. Used by the dmda scheduler.
  ///
  /// Read-only operands amortise: a handle that has been read by many tasks
  /// is expected to be read by many more, so its one-time transfer cost is
  /// divided by the observed reuse (capped). This is what lets greedy
  /// per-task scheduling eventually move a heavily reused read-only operand
  /// (e.g. the ODE solver's Jacobian, §IV-H) to the device where its
  /// consumers run fastest, instead of being stuck behind a transfer bill
  /// no single task can justify.
  double estimate_fetch_seconds(MemoryNodeId node, AccessMode mode) const;

  /// Where a valid replica currently lives (host preferred); kHostNode if
  /// the handle was never touched.
  MemoryNodeId preferred_source() const;

  ReplicaState replica_state(MemoryNodeId node) const;

  /// replica_state(node) != kInvalid as of the last coherence event, read
  /// without the handle lock: a hint for scheduling estimates and prefetch
  /// decisions, which act on a snapshot anyway.
  bool valid_on(MemoryNodeId node) const noexcept;

  // -- prefetch accounting (scheduler-driven prefetch, §IV-H) ---------------

  /// Marks a background prefetch of this handle to `node` as queued. Until
  /// the matching note_prefetch_done(), estimate_fetch_seconds(node, read)
  /// reports 0 for an invalid replica — the transfer is already paid for by
  /// the prefetch path, so dmda must not double-charge it.
  void note_prefetch_queued(MemoryNodeId node);
  void note_prefetch_done(MemoryNodeId node);

  // -- partitioning (hybrid execution, §IV-F) -------------------------------

  /// Splits the handle into `parts` contiguous element-aligned children that
  /// alias the same host memory. The parent is unusable until
  /// unpartition(). Children must not outlive the parent.
  std::vector<std::shared_ptr<DataHandle>> partition(std::size_t parts);

  /// Gathers children back: flushes each child to host and revalidates the
  /// parent. All child handles become permanently invalid.
  void unpartition();

  // -- dependency metadata (used by the Engine under its submission lock) ---

  TaskPtr last_writer;
  /// Readers submitted since the last write that the next writer must
  /// order after. Successful readers that completed are pruned from the
  /// back as new readers arrive; `pruned_readers_vend` keeps the latest
  /// vend among them, which still bounds the next writer's start.
  std::vector<TaskPtr> readers_since_last_write;
  VirtualTime pruned_readers_vend = 0.0;

 private:
  friend class DataManager;
  DataHandle(DataManager* manager, void* host_ptr, std::size_t bytes,
             std::size_t element_size);

  struct Replica {
    ReplicaState state = ReplicaState::kInvalid;
    std::unique_ptr<std::byte[]> storage;  ///< device nodes only
    void* ptr = nullptr;
    VirtualTime valid_at = 0.0;
    /// Active acquires; pinned replicas are not evictable. Raised under
    /// mutex_ or by acquire_resident_read (which then re-checks validity),
    /// lowered by release() without the lock.
    std::atomic<int> pins{0};
    int prefetch_pending = 0;  ///< queued background prefetches targeting here
  };

  /// Copies `bytes_` from the replica on `from` to the one on `to`;
  /// allocates the destination if needed; accounts virtual link time.
  /// Caller holds mutex_. Returns the vtime at which the copy is complete.
  VirtualTime copy_replica(MemoryNodeId from, MemoryNodeId to);

  /// Nearest-first fetch source for `node` (the exact ordering of
  /// msi::pick_source with the manager's topology; host-first on a single
  /// host). Caller holds mutex_; -1 when no valid replica exists.
  MemoryNodeId pick_source_locked(MemoryNodeId node) const;

  void* replica_ptr(MemoryNodeId node);
  void ensure_allocated(MemoryNodeId node);

  /// acquire() without the lock and the pin. Caller holds mutex_.
  void* acquire_locked(MemoryNodeId node, AccessMode mode,
                       VirtualTime* data_ready);

  /// acquire(node, kRead) of a replica that is valid already, without the
  /// lock: pins the replica, then confirms in valid_mask_ that it is still
  /// valid (try_evict hides a replica there before it reads the pins, so
  /// one of the two sees the other). nullptr when the locked path must run
  /// instead: replica not valid, node past the mask, handle partitioned or
  /// detached, or shadow checking on.
  void* acquire_resident_read(MemoryNodeId node, VirtualTime* data_ready);

  /// Counts one task read for the reuse amortisation of
  /// estimate_fetch_seconds, saturating at kReuseCap.
  void note_read_use() noexcept {
    if (read_uses_.load(std::memory_order_relaxed) < kReuseCap) {
      read_uses_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// mark_written() without the lock. Caller holds mutex_.
  void mark_written_locked(MemoryNodeId node, VirtualTime vend);

  /// Drops one pin of the replica on `node` (not the host's).
  void unpin(MemoryNodeId node);

  /// Republishes valid_mask_ from the replica states. Caller holds mutex_
  /// and calls it after every change of a replica state.
  void publish_states_locked() noexcept;

  /// Shadow coherence checking (EngineConfig::verify_shadow): `shadow_` is
  /// an independent state vector advanced through the pure transition rules
  /// of runtime/msi.hpp at every coherence event, then compared against the
  /// actual replica states. A mismatch throws Error(kInternal): either the
  /// coherence machinery or the shared model (which the static verifier also
  /// runs on) is wrong. Empty unless the manager has shadow checking on.
  /// Caller holds mutex_.
  void shadow_transition_locked(const char* event, MemoryNodeId node,
                                AccessMode mode);
  void shadow_check_locked(const char* event);

  DataManager* manager_;
  void* host_ptr_;
  std::size_t bytes_;
  std::size_t element_size_;
  std::uint64_t id_ = 0;

  mutable std::mutex mutex_;
  std::vector<Replica> replicas_;  ///< indexed by MemoryNodeId
  /// Bit n set while the replica on memory node n is valid (nodes 0-63;
  /// valid_on() locks for the others). Written under mutex_.
  std::atomic<std::uint64_t> valid_mask_{0};
  std::vector<ReplicaState> shadow_;  ///< empty unless shadow checking

  /// Reads over which a fetch estimate amortises a read-only transfer.
  static constexpr std::uint32_t kReuseCap = 64;
  /// Task reads of this handle, counted up to kReuseCap.
  std::atomic<std::uint32_t> read_uses_{0};
  /// Write-mode acquires not yet ended by mark_written. Guarded by mutex_.
  int writes_outstanding_ = 0;

  DataHandle* parent_ = nullptr;
  std::size_t parent_offset_bytes_ = 0;
  std::vector<std::weak_ptr<DataHandle>> children_;
  /// Set (under mutex_) by partition(), cleared by unpartition(): while it
  /// is false the handle has no children and is_partitioned() takes no
  /// lock.
  std::atomic<bool> partitioned_{false};
  /// Set on children (under their mutex_) after unpartition().
  std::atomic<bool> detached_{false};
};

using DataHandlePtr = std::shared_ptr<DataHandle>;

/// Owns the memory-node table, the PCIe link lanes and the transfer
/// statistics. One per Engine.
///
/// Link contention model: unless LinkProfile::shared_bus is set, every
/// device node gets two independent *lanes* — host-to-device and
/// device-to-host — each with its own mutex and virtual clock, so
/// concurrent transfers to different devices (or in opposite directions)
/// never contend, in code or in virtual time. shared_bus collapses all
/// traffic onto one lane: the legacy half-duplex model.
class DataManager {
 public:
  /// Single-host manager: @param node_count host + one per accelerator.
  DataManager(int node_count, sim::LinkProfile link);

  /// Cluster manager: `topo` lays out the memory nodes (hosts + devices of
  /// every simulated node), `link` prices intra-node (PCIe) hops and
  /// `internode` prices host(i) <-> host(j) hops. Each direction of each
  /// node pair gets its own inter-node lane clock (duplex, like PCIe). A
  /// single-node topology is identical to the single-host constructor.
  DataManager(MemTopology topo, sim::LinkProfile link,
              sim::LinkProfile internode);

  /// Registers application memory of `bytes` bytes (element granularity
  /// `element_size`, used by partitioning). The host replica starts Owned:
  /// freshly registered data is valid on the host, nowhere else.
  DataHandlePtr register_buffer(void* host_ptr, std::size_t bytes,
                                std::size_t element_size);

  int node_count() const noexcept { return node_count_; }

  /// Sets a device node's memory capacity in bytes (0 = unlimited, the
  /// default). Allocations beyond the capacity trigger eviction of
  /// unpinned replicas of other handles; if nothing is evictable the
  /// allocation overcommits (counted in stats).
  void set_node_capacity(MemoryNodeId node, std::size_t bytes);

  std::size_t node_allocated(MemoryNodeId node) const;

  /// Allocation accounting + eviction, called by handles when they allocate
  /// or free a device replica of `bytes` bytes.
  void on_allocate(MemoryNodeId node, std::size_t bytes,
                   const std::shared_ptr<DataHandle>& owner);
  void on_free(MemoryNodeId node, std::size_t bytes);
  void record_eviction();

  /// Next DataHandle::id (monotonic per manager, starts at 1).
  std::uint64_t allocate_data_id() noexcept {
    return next_data_id_.fetch_add(1, std::memory_order_relaxed);
  }

  const sim::LinkProfile& link() const noexcept { return link_; }
  const sim::LinkProfile& internode_link() const noexcept {
    return internode_;
  }

  /// The memory-hierarchy map (hosts, devices, routes).
  const MemTopology& topo() const noexcept { return topo_; }

  /// Link profile pricing the direct hop from -> to (PCIe for intra-node
  /// hops, the inter-node profile for host <-> host hops across nodes).
  const sim::LinkProfile& hop_profile(MemoryNodeId from,
                                      MemoryNodeId to) const noexcept {
    return topo_.sim_node(from) != topo_.sim_node(to) ? internode_ : link_;
  }

  /// Advances the `from`→`to` lane clock by a transfer of `bytes` starting
  /// no earlier than `ready`; returns completion vtime. `host_ptr` is the
  /// host-side address of the data (source for H2D, destination for D2H);
  /// when coalescing is enabled, a transfer that continues a still-open
  /// contiguous burst on the same lane joins it and pays only the bandwidth
  /// term — the hybrid chunk-upload pattern.
  /// `data_id` identifies the transferred handle in trace records
  /// (0 = untracked).
  VirtualTime charge_link(MemoryNodeId from, MemoryNodeId to,
                          std::size_t bytes, VirtualTime ready,
                          const void* host_ptr = nullptr,
                          std::uint64_t data_id = 0);

  /// Estimate of the same, without advancing the clock.
  double estimate_link_seconds(std::size_t bytes) const;

  TransferStats stats() const;
  void record_transfer(MemoryNodeId from, MemoryNodeId to, std::size_t bytes);
  void reset_stats();

  /// Fault-injection hook, invoked once per single-hop replica copy before
  /// any state changes; may throw to simulate a failed transfer. Called
  /// under the handle's mutex, so the hook must not take engine locks. Set
  /// once by the Engine before worker threads start.
  using TransferHook =
      std::function<void(MemoryNodeId from, MemoryNodeId to, std::size_t bytes)>;
  void set_transfer_fault_hook(TransferHook hook) {
    transfer_hook_ = std::move(hook);
  }
  void notify_transfer_attempt(MemoryNodeId from, MemoryNodeId to,
                               std::size_t bytes) const {
    if (transfer_hook_) transfer_hook_(from, to, bytes);
  }

  /// Resets the link lane clocks, open bursts, and every live handle's
  /// replica validity timestamps (benchmark repetition: measured sweeps
  /// start at vtime 0 even when their inputs were pre-staged before the
  /// reset). Lane sequence and burst counters stay monotonic across resets.
  void reset_virtual_time();

  /// Tracks a live handle for whole-manager sweeps such as
  /// reset_virtual_time(). Called on registration and for partition
  /// children; entries are weak and compacted amortised.
  void note_handle(const DataHandlePtr& handle);

  /// Attaches a tracer: every charge_link emits one TransferRecord. Set
  /// once by the Engine before worker threads start (like the fault hook).
  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Lane-table index for a `from`→`to` transfer (the `lane` field of
  /// TransferRecord and the per-lane rows of the Chrome export).
  std::size_t lane_index(MemoryNodeId from, MemoryNodeId to) const;

  // -- shadow coherence checking (EngineConfig::verify_shadow) --------------

  /// Turns on per-handle shadow state vectors for handles registered from
  /// now on. Set once by the Engine before worker threads start.
  void enable_shadow_checking() noexcept { shadow_checking_ = true; }
  bool shadow_checking() const noexcept { return shadow_checking_; }

  /// Number of coherence events cross-checked against the shadow model.
  std::uint64_t shadow_checks() const noexcept {
    return shadow_checks_.load(std::memory_order_relaxed);
  }
  void record_shadow_check() noexcept {
    shadow_checks_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// One directed transfer lane: its own clock, plus a small ring of open
  /// burst streams for coalescing (several interleaved contiguous uploads
  /// can each continue their own burst).
  struct Lane {
    std::mutex mutex;
    VirtualTime free_at = 0.0;
    struct Stream {
      const std::byte* next = nullptr;  ///< host address one past the burst end
      VirtualTime end = 0.0;            ///< vtime the burst's last chunk lands
      std::uint64_t burst = 0;          ///< burst id carried by joiners
    };
    std::array<Stream, 4> streams{};
    std::size_t next_stream = 0;  ///< round-robin replacement cursor
    std::uint64_t next_seq = 0;    ///< per-lane trace-record order
    std::uint64_t next_burst = 0;  ///< burst-id allocator
  };

  Lane& lane_for(MemoryNodeId from, MemoryNodeId to);

  /// Link profile of a lane-table entry: intra lanes price PCIe, appended
  /// inter-node lanes price the cluster link.
  const sim::LinkProfile& lane_profile(std::size_t lane) const noexcept {
    return lane < intra_lane_count_ ? link_ : internode_;
  }

  MemTopology topo_;
  int node_count_;
  sim::LinkProfile link_;
  sim::LinkProfile internode_;
  std::size_t intra_lane_count_ = 1;
  TransferHook transfer_hook_;  ///< immutable once workers run
  Tracer* tracer_ = nullptr;      ///< immutable once workers run
  bool shadow_checking_ = false;  ///< immutable once workers run
  std::atomic<std::uint64_t> shadow_checks_{0};
  std::atomic<std::uint64_t> next_data_id_{1};  ///< DataHandle::id allocator

  /// Lane table, fixed at construction: index 0 in shared-bus mode, else
  /// 2*ordinal for H2D and 2*ordinal+1 for D2H of the device with that
  /// global ordinal (= node-1 on a single host). Clusters append two
  /// directed inter-node lanes per node pair after the intra lanes.
  /// unique_ptr because a mutex is immovable.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::uint64_t> coalesced_{0};

  /// Amortised compaction of resident_handles_: compact when the list
  /// reaches this size, then re-arm at 2x the surviving entries.
  std::size_t compact_at_ = 16;  ///< guarded by mutex_
  void compact_residents_locked();

  mutable std::mutex mutex_;
  TransferStats stats_;
  std::vector<std::size_t> capacities_;  ///< per node; 0 = unlimited
  std::vector<std::size_t> allocated_;   ///< per node
  /// Handles with live device allocations, in rough allocation order (the
  /// eviction scan order — oldest allocations are tried first). Weak: a
  /// dying handle frees its allocations itself.
  std::vector<std::weak_ptr<DataHandle>> resident_handles_;
  /// Every live handle (parents and partition children), for whole-manager
  /// sweeps. Weak, compacted amortised like resident_handles_.
  std::vector<std::weak_ptr<DataHandle>> all_handles_;
  std::size_t handles_compact_at_ = 16;  ///< guarded by mutex_
};

}  // namespace peppher::rt
