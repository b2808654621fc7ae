// pstk::ckpt — coordinated checkpoint/restart for the HPC runtimes.
//
// The paper's fault-tolerance axis (§VI-D) is qualitative: Spark recovers
// from lineage, Hadoop re-executes tasks, MPI aborts. This module gives the
// HPC side a real recovery path so the gap can be *measured*
// (bench/ablation_recovery.cc, "Fig. FT"): MPI/SHMEM jobs opt into a
// `CkptPolicy`, snapshot registered application state at collective
// boundaries, and a `RestartManager` replays the job from the last
// restorable snapshot after a node failure instead of today's
// whole-job abort (which stays the default).
//
// Protocol note — why not Chandy–Lamport: a distributed snapshot algorithm
// exists to capture a consistent cut of an *asynchronous* computation,
// where channels may hold in-flight messages when the marker arrives. Our
// checkpoints are taken only at collective boundaries (right after
// Barrier/Allreduce/SumToAll return on every rank). MiniMPI collectives
// complete only after every participant contributed and all collective
// traffic has been consumed, so at the boundary every channel is empty and
// the set of per-rank states IS a consistent cut by construction. A
// blocking coordinated checkpoint (the scheme used by BLCR/SCR-era MPI
// codes, which also quiesce at a barrier) is therefore sufficient; marker
// flooding would add cost and no safety. What still needs care is
// *atomicity across ranks*: an epoch becomes restorable only once every
// rank's fragment is durably written (2-phase: write-all, then commit),
// and restart must pick an epoch whose every fragment survived — both are
// enforced here and asserted by verify's ckpt-consistency checker.
//
// Snapshot durability model (mirrors SCR's storage hierarchy on Table II
// disks): `Target::kLocalSsd` writes each rank's fragment to its node's
// scratch SSD — fast, but fragments die with the node, so an un-replicated
// local snapshot usually degrades restart to epoch 0 (= abort-rerun with
// extra overhead). `replicate` adds a buddy copy on the next node (SCR
// "partner" scheme): one fabric transfer + one remote SSD write buys
// single-failure survivability. `Target::kNfs` writes all fragments to one
// shared NFS server disk, inheriting Table II's NFS bandwidth *and* the
// contention model — checkpoint cost grows with job width, which is what
// makes the Young/Daly interval trade-off non-trivial.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/units.h"
#include "mpi/mpi.h"
#include "serde/serde.h"
#include "shmem/shmem.h"
#include "sim/fault.h"
#include "storage/disk.h"

namespace pstk::ckpt {

/// Where snapshot fragments are written.
enum class Target {
  kLocalSsd,  // per-node scratch SSD (fragments lost with the node)
  kNfs,       // one shared NFS server (survives node loss; contended)
};

/// Opt-in checkpoint/restart configuration for one HPC job.
struct CkptPolicy {
  /// Minimum virtual time between snapshots; <= 0 disables checkpointing
  /// (the RestartManager then models abort + full rerun).
  SimTime interval = 0;
  Target target_disk = Target::kLocalSsd;
  /// Buddy-replicate each local-SSD fragment to the next node.
  bool replicate = false;
  /// Scheduler requeue + relaunch penalty charged per restart (the cost
  /// lineage-based recovery avoids entirely).
  SimTime restart_delay = Seconds(60);
  int max_restarts = 64;
  /// CPU cost of serializing/deserializing state (≈ memcpy + encode).
  SimTime serialize_cpu_per_byte = 1.0 / 2e9;
};

/// Young's (and Daly's first-order) optimal checkpoint interval:
/// sqrt(2 * C * MTBF) for per-checkpoint cost C. Clamped below by C.
[[nodiscard]] SimTime YoungDalyInterval(SimTime write_cost, SimTime mtbf);

/// Snapshot state that outlives restart attempts (the durable storage
/// contents, tracked logically). Each epoch holds one serialized fragment
/// per rank plus the set of nodes hosting copies of it; an epoch is
/// restorable while every fragment has >= 1 surviving copy.
class SnapshotStore {
 public:
  /// Node id marking a copy on the NFS server (never dropped).
  static constexpr int kNfsNode = -1;

  explicit SnapshotStore(int nranks);

  [[nodiscard]] int nranks() const { return nranks_; }

  /// Record rank's fragment for `epoch`. Returns true when this write
  /// completed the epoch (all ranks present) — the commit point.
  bool RecordWrite(int epoch, int rank, serde::Buffer fragment,
                   std::vector<int> copies);

  /// All copies hosted on `node` are gone (node failure wipes scratch).
  void DropNode(int node);

  /// Latest epoch restorable right now, or nullopt to start from scratch.
  [[nodiscard]] std::optional<int> LatestRestorableEpoch() const;

  [[nodiscard]] const serde::Buffer* Fragment(int epoch, int rank) const;
  /// Nodes (or kNfsNode) still holding copies of the fragment.
  [[nodiscard]] const std::vector<int>& FragmentCopies(int epoch,
                                                       int rank) const;

 private:
  struct FragmentEntry {
    serde::Buffer data;
    std::vector<int> copies;  // node ids (or kNfsNode) holding it
    bool written = false;
  };
  struct Epoch {
    std::vector<FragmentEntry> fragments;  // by rank
    int written = 0;
  };

  int nranks_;
  std::map<int, Epoch> epochs_;
};

/// Per-attempt checkpoint service shared by all ranks of one SPMD job.
/// Every rank calls `Checkpoint(ctx, rank, node, epoch, state)` at the same
/// collective boundary; the first arrival decides whether the epoch is due
/// (policy interval elapsed) and the rest follow that decision, so the
/// choice is uniform across ranks by construction. A rank that skips the
/// boundary leaves the epoch uncommitted; under --verify the
/// `ckpt-consistency` checker reports partial commits, epoch regressions
/// and diverging restore epochs.
class CheckpointCoordinator {
 public:
  CheckpointCoordinator(cluster::Cluster& cluster, SnapshotStore& store,
                        const CkptPolicy& policy);

  /// Epoch this attempt restores from (nullopt = fresh start at epoch 0).
  [[nodiscard]] std::optional<int> restore_epoch() const {
    return restore_epoch_;
  }

  /// Fetch + charge the restore of this rank's fragment (disk read on the
  /// snapshot target, deserialize CPU). Returns nullptr on a fresh start.
  const serde::Buffer* Restore(sim::Context& ctx, int rank, int node);

  /// Maybe-snapshot at a collective boundary. No-op unless the epoch is
  /// due per the policy interval; when due, serializes (CPU), writes the
  /// fragment to the target disk (+ optional buddy replica), and commits
  /// the epoch once the last rank's fragment landed.
  void Checkpoint(sim::Context& ctx, int rank, int node, int epoch,
                  const serde::Buffer& state);

  // --- attempt stats ------------------------------------------------------
  [[nodiscard]] int commits() const { return commits_; }
  [[nodiscard]] Bytes bytes_written() const { return bytes_written_; }
  /// Local commit time of the given epoch, if it committed this attempt.
  [[nodiscard]] std::optional<SimTime> CommitTime(int epoch) const;

 private:
  [[nodiscard]] std::shared_ptr<storage::Disk> TargetDisk(int node);

  cluster::Cluster& cluster_;
  SnapshotStore& store_;
  CkptPolicy policy_;
  std::shared_ptr<storage::Disk> nfs_;      // lazily built for Target::kNfs
  std::shared_ptr<net::Fabric> fabric_;     // for buddy replication
  std::optional<int> restore_epoch_;
  std::map<int, bool> due_;                 // epoch -> first-arrival decision
  std::optional<SimTime> last_due_time_;    // interval anchor
  std::map<int, SimTime> commit_times_;
  int commits_ = 0;
  Bytes bytes_written_ = 0;
  struct Tags {
    obs::TagId writes = obs::kNoTag;
    obs::TagId bytes = obs::kNoTag;
    obs::TagId replica_bytes = obs::kNoTag;
    obs::TagId commits = obs::kNoTag;
    obs::TagId restores = obs::kNoTag;
    obs::TagId write_time = obs::kNoTag;  // histogram: ckpt.time.write
  };
  Tags tags_;
};

/// Outcome of a checkpointed (or abort-rerun) job under a fault plan.
struct RecoveryOutcome {
  bool completed = false;  // false: still failing after max_restarts
  int attempts = 0;
  int restarts = 0;
  int checkpoints_committed = 0;
  Bytes snapshot_bytes = 0;
  /// Global time-to-solution: every attempt's span + restart delays.
  SimTime time_to_solution = 0;
  /// Virtual seconds of computed-then-lost work replayed after rollbacks.
  SimTime rollback_work = 0;
};

/// Cluster shape + per-attempt hooks for a recoverable HPC job.
struct HpcJob {
  cluster::ClusterSpec spec;
  int procs = 0;
  int procs_per_node = 0;
  /// Called after engine+cluster construction, before ranks spawn — attach
  /// observability, install checkers, stage data.
  std::function<void(sim::Engine&, cluster::Cluster&)> on_attempt;
  /// Called after each attempt's engine ran (inspect obs/verify state).
  std::function<void(sim::Engine&, int attempt, bool completed)>
      on_attempt_end;
};

/// Drives restart attempts for a gang-scheduled SPMD job under a fault
/// plan (fault times are global, measured from first submission). Each
/// attempt runs in a fresh engine on the same allocation: the failed node
/// comes back rebooted after `restart_delay` — with its scratch (and any
/// snapshot fragments on it) wiped, which is exactly why `replicate` /
/// `Target::kNfs` matter. Only the earliest not-yet-consumed fault is
/// injected per attempt: once it kills the job, later faults belong to
/// later attempts; faults landing between attempts (while the job sits in
/// the requeue) hit no processes, matching gang-scheduler semantics.
class RestartManager {
 public:
  RestartManager(CkptPolicy policy, sim::FaultPlan faults);

  using MpiBody = std::function<void(mpi::Comm&, CheckpointCoordinator&)>;
  using ShmemBody = std::function<void(shmem::Pe&, CheckpointCoordinator&)>;

  Result<RecoveryOutcome> RunMpi(const HpcJob& job, const MpiBody& body,
                                 const mpi::MpiOptions& options = {});
  Result<RecoveryOutcome> RunShmem(const HpcJob& job, const ShmemBody& body,
                                   const shmem::ShmemOptions& options = {});

 private:
  /// Shared attempt loop; `spawn` wires the runtime-specific world and
  /// returns its job-end accessor.
  Result<RecoveryOutcome> RunLoop(
      const HpcJob& job,
      const std::function<std::function<SimTime()>(
          sim::Engine&, cluster::Cluster&, CheckpointCoordinator&)>& spawn);

  CkptPolicy policy_;
  sim::FaultPlan faults_;
};

}  // namespace pstk::ckpt
