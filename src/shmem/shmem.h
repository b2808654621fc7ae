// MiniSHMEM: an OpenSHMEM-like PGAS runtime on the simulated cluster.
//
// The survey's characterization (§II-C): SPMD launch of a fixed set of PEs,
// a symmetric heap addressable from every PE, one-sided put/get that map to
// RDMA (target CPU uninvolved), remote atomics, point-to-point
// synchronization via wait_until, and collectives. MiniSHMEM is
// "particularly advantageous for applications with many small put/get
// operations and/or irregular communication" — the ablation benchmark
// (bench/ablation_shmem) measures exactly that against MiniMPI two-sided.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/engine.h"

namespace pstk::shmem {

struct ShmemOptions {
  SimTime startup_cost = Millis(600);
  /// SHMEM exists to exploit RDMA; override only in tests.
  std::optional<net::TransportParams> transport;
  /// Explicit PE->node placement (size must equal npes); empty means
  /// block placement from node 0. Set by pstk::sched for gang launches.
  std::vector<int> placement;
  /// Prefix for spawned process names.
  std::string name = "shmem";
};

/// Typed offset into the symmetric heap; valid on every PE.
template <typename T>
struct SymPtr {
  Bytes offset = 0;
  std::size_t count = 0;
  [[nodiscard]] SymPtr<T> at(std::size_t index) const {
    return SymPtr<T>{offset + index * sizeof(T), count - index};
  }
};

enum class Cmp { kEq, kNe, kGt, kGe, kLt, kLe };

class ShmemWorld;

/// One processing element's handle (the `shmem_*` API surface).
class Pe {
 public:
  [[nodiscard]] int my_pe() const { return pe_; }
  [[nodiscard]] int n_pes() const;
  [[nodiscard]] sim::Context& ctx() { return ctx_; }

  /// Symmetric allocation (collective: every PE must allocate in the same
  /// order with the same size — checked).
  template <typename T>
  SymPtr<T> Malloc(std::size_t count) {
    const Bytes offset = SymMalloc(count * sizeof(T), alignof(T));
    return SymPtr<T>{offset, count};
  }

  /// Local address of symmetric data on *this* PE.
  template <typename T>
  T* Local(SymPtr<T> ptr) {
    return reinterpret_cast<T*>(HeapAt(pe_, ptr.offset));
  }

  // --- one-sided RMA -------------------------------------------------------

  /// Non-blocking put: returns after local completion; remote delivery is
  /// complete after Quiet()/BarrierAll().
  template <typename T>
  void Put(SymPtr<T> dest, std::span<const T> src, int target_pe) {
    RawPut(dest.offset, src.data(), src.size_bytes(), target_pe);
  }
  template <typename T>
  void PutValue(SymPtr<T> dest, const T& value, int target_pe) {
    RawPut(dest.offset, &value, sizeof(T), target_pe);
  }

  /// Blocking get: returns when data is locally available.
  template <typename T>
  void Get(std::span<T> dest, SymPtr<T> src, int target_pe) {
    RawGet(dest.data(), src.offset, dest.size_bytes(), target_pe);
  }
  template <typename T>
  T GetValue(SymPtr<T> src, int target_pe) {
    T value;
    RawGet(&value, src.offset, sizeof(T), target_pe);
    return value;
  }

  /// Complete all outstanding puts from this PE (shmem_quiet).
  void Quiet();
  /// Order puts to each PE (modeled identically to Quiet here).
  void Fence() { Quiet(); }

  // --- remote atomics (NIC-executed, blocking fetch) ------------------------

  std::int64_t AtomicFetchAdd(SymPtr<std::int64_t> target, std::int64_t value,
                              int target_pe);
  std::int64_t AtomicCompareSwap(SymPtr<std::int64_t> target,
                                 std::int64_t expected, std::int64_t desired,
                                 int target_pe);

  // --- point-to-point synchronization ---------------------------------------

  /// Block until the local symmetric variable satisfies the comparison
  /// (shmem_wait_until). Remote puts/atomics to this PE wake the wait.
  void WaitUntil(SymPtr<std::int64_t> ivar, Cmp cmp, std::int64_t value);

  // --- collectives -----------------------------------------------------------

  void BarrierAll();
  /// Broadcast `count` elements of symmetric data from root to all PEs.
  template <typename T>
  void BroadcastAll(SymPtr<T> data, int root) {
    RawBroadcast(data.offset, data.count * sizeof(T), root);
  }
  /// Element-wise sum reduction over all PEs into `dest` on every PE.
  void SumToAll(SymPtr<std::int64_t> dest, SymPtr<std::int64_t> source,
                std::size_t count);
  void SumToAll(SymPtr<double> dest, SymPtr<double> source,
                std::size_t count);

 private:
  friend class ShmemWorld;
  Pe(ShmemWorld& world, sim::Context& ctx, int pe)
      : world_(world), ctx_(ctx), pe_(pe) {}

  Bytes SymMalloc(Bytes bytes, Bytes align);
  std::uint8_t* HeapAt(int pe, Bytes offset);
  void RawPut(Bytes offset, const void* src, Bytes bytes, int target_pe);
  void RawGet(void* dest, Bytes offset, Bytes bytes, int target_pe);
  void RawBroadcast(Bytes offset, Bytes bytes, int root);
  template <typename T>
  void SumToAllImpl(Bytes dest_off, Bytes src_off, std::size_t count);
  net::Endpoint& endpoint();

  ShmemWorld& world_;
  sim::Context& ctx_;
  int pe_;
  SimTime last_put_completion_ = 0;
  std::uint32_t coll_seq_ = 0;
};

/// The SHMEM job: symmetric heap owner and SPMD launcher.
class ShmemWorld {
 public:
  using PeBody = std::function<void(Pe&)>;

  ShmemWorld(cluster::Cluster& cluster, int npes, int pes_per_node,
             ShmemOptions options = {});

  void SpawnPes(PeBody body);
  /// Spawn + run; returns job makespan or failure.
  Result<SimTime> RunSpmd(PeBody body);

  /// Fires once, when the last PE leaves shmem_finalize (for mid-run
  /// launchers that cannot wait for the engine to drain).
  void OnAllPesDone(std::function<void(SimTime)> callback) {
    on_done_ = std::move(callback);
  }

  [[nodiscard]] int npes() const { return npes_; }
  [[nodiscard]] int NodeOfPe(int pe) const {
    if (!options_.placement.empty()) return options_.placement[pe];
    return pe / pes_per_node_;
  }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  /// Virtual time the last PE exited (valid after the engine ran); lets
  /// callers that drive the engine directly (ckpt::RestartManager) read
  /// the job makespan without RunSpmd.
  [[nodiscard]] SimTime job_end_time() const { return job_end_; }

 private:
  friend class Pe;

  struct Allocation {
    Bytes offset;
    Bytes bytes;
  };

  cluster::Cluster& cluster_;
  ShmemOptions options_;
  int npes_;
  int pes_per_node_;
  int verify_job_;  // this job's number on the engine's verify hub
  std::shared_ptr<net::Fabric> fabric_;
  std::unique_ptr<net::Network> network_;

  std::vector<std::vector<std::uint8_t>> heaps_;  // one per PE
  std::vector<Allocation> layout_;  // symmetric allocation sequence
  std::vector<std::size_t> alloc_cursor_;  // per PE: next layout slot
  Bytes heap_top_ = 0;

  // wait_until support: the parked waiter per PE, if any.
  std::vector<sim::Pid> waiters_;

  SimTime job_end_ = 0;
  int pes_done_ = 0;
  std::function<void(SimTime)> on_done_;
};

}  // namespace pstk::shmem
