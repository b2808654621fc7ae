// Cluster assembly: node specifications, the Comet preset (paper Table I),
// and the wiring of engine + fabrics + per-node disks/filesystems that all
// runtimes (MiniMPI, MiniSHMEM, MiniMR, MiniSpark) share.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "storage/disk.h"
#include "storage/localfs.h"

namespace pstk::cluster {

struct NodeSpec {
  int cores = 24;                 // 2 sockets x 12 cores
  double clock_ghz = 2.5;
  double peak_flops = 960e9;      // Table I: 960 GFlop/s
  Bytes memory = 128 * kGiB;      // DDR4 DRAM
  Bytes scratch_capacity = 320 * kGiB;
  storage::DiskParams scratch = storage::DiskParams::CometScratchSsd();
};

struct ClusterSpec {
  std::string name = "cluster";
  std::size_t nodes = 8;
  NodeSpec node;
  /// Default interconnect transport for fabrics created on demand.
  net::TransportParams transport = net::TransportParams::RdmaFdr();

  /// SDSC Comet (Table I): Xeon E5-2680v3, FDR InfiniBand hybrid fat-tree,
  /// 320 GB local SSD scratch.
  static ClusterSpec Comet(std::size_t nodes);
};

/// Owns the simulated hardware of one cluster run.
class Cluster {
 public:
  /// `data_scale` in (0,1]: benchmarks stage data at actual = logical *
  /// data_scale and every cost model charges logical (modeled) bytes.
  Cluster(sim::Engine& engine, ClusterSpec spec, double data_scale = 1.0);

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const ClusterSpec& spec() const { return spec_; }
  [[nodiscard]] int nodes() const { return static_cast<int>(spec_.nodes); }
  [[nodiscard]] int cores_per_node() const { return spec_.node.cores; }
  [[nodiscard]] double data_scale() const { return data_scale_; }
  [[nodiscard]] Bytes Modeled(Bytes actual) const {
    return static_cast<Bytes>(static_cast<double>(actual) / data_scale_);
  }

  /// The fabric for the cluster's default transport.
  [[nodiscard]] std::shared_ptr<net::Fabric> fabric();
  /// A fabric over a specific transport (created on first use). Fabrics for
  /// different transports have independent NIC timelines — a simplification
  /// documented in DESIGN.md.
  [[nodiscard]] std::shared_ptr<net::Fabric> fabric(
      const net::TransportParams& transport);

  /// Per-node scratch filesystem (the paper's local SSD scratch).
  [[nodiscard]] storage::LocalFs& scratch(int node);
  [[nodiscard]] std::shared_ptr<storage::Disk> scratch_disk(int node);

  /// Time to execute `flops` floating-point work on `threads` cores of one
  /// node (simple linear model with a parallel-efficiency knee).
  [[nodiscard]] SimTime ComputeTime(double flops, int threads = 1) const;

  /// Fault injection: at virtual time `t`, fail the node's disk and kill
  /// every process placed on it.
  void FailNode(int node, SimTime t);
  /// Repair: at virtual time `t`, the node (and its disk) comes back.
  /// Processes killed by the failure are NOT respawned — that is runtime
  /// policy (e.g. Spark's executor reacquisition, MPI's restart manager).
  void RestoreNode(int node, SimTime t);
  [[nodiscard]] bool NodeFailed(int node) const { return failed_[node]; }
  /// Node failures so far (monotonic; repairs do not decrement it), so a
  /// runtime can tell cheaply whether any node failed since it last looked.
  [[nodiscard]] std::uint64_t node_failures() const { return node_failures_; }

  /// Schedule every event of a fault plan (failures and, for transient
  /// events, the matching repairs).
  void ApplyFaultPlan(const sim::FaultPlan& plan);

  /// Subscribe to node failures; callbacks fire inside the scheduled fail
  /// event, after the cluster state flipped. MiniDFS uses it for
  /// re-replication; ckpt::RestartManager uses it to drop snapshot copies
  /// hosted on the lost node.
  using NodeEventCallback = std::function<void(int node, SimTime t)>;
  void SubscribeNodeFailure(NodeEventCallback callback);

  // --- Core occupancy -------------------------------------------------------
  // Nodes are allocatable at per-core granularity so several jobs can share a
  // node (pstk::sched's elastic placement) while gang placement still gets
  // whole nodes by reserving all cores. Bookkeeping is per (owner, node) so
  // over-release and release-twice are hard errors, not silent corruption.

  /// Reserve `count` cores on `node` for `owner`. All-or-nothing: returns
  /// false (reserving nothing) if fewer than `count` cores are free or the
  /// node is down.
  [[nodiscard]] bool ReserveCores(int node, int count, int owner);
  /// Release `count` of `owner`'s cores on `node`. PSTK_CHECKs that the owner
  /// actually holds that many (catches double-release).
  void ReleaseCores(int node, int count, int owner);
  /// Release everything `owner` holds, across all nodes.
  void ReleaseAllCores(int owner);
  /// Cores not currently reserved on `node` (0 if the node is down).
  [[nodiscard]] int FreeCores(int node) const;
  /// Cores reserved by `owner` on `node`.
  [[nodiscard]] int CoresHeldBy(int owner, int node) const;
  /// Total reserved cores across the cluster (failed nodes included — a
  /// failed node's reservations persist until the owner releases them).
  [[nodiscard]] int UsedCores() const;
  [[nodiscard]] int TotalCores() const {
    return nodes() * cores_per_node();
  }

 private:
  sim::Engine& engine_;
  ClusterSpec spec_;
  double data_scale_;
  std::map<std::string, std::shared_ptr<net::Fabric>> fabrics_;
  std::vector<std::shared_ptr<storage::Disk>> disks_;
  std::vector<std::unique_ptr<storage::LocalFs>> scratch_;
  std::vector<bool> failed_;
  std::uint64_t node_failures_ = 0;
  std::vector<NodeEventCallback> on_failure_;
  std::vector<int> used_cores_;                    // per node
  std::map<std::pair<int, int>, int> held_cores_;  // (owner, node) -> count
};

}  // namespace pstk::cluster
