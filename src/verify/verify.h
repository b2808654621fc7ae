// Runtime verification: the per-engine hub that framework hooks (MPI,
// SHMEM, Spark/MR, checkpoint/restart) and the engine's deadlock explainer
// report into.
//
// Layering: this header is intentionally self-contained (plain-data hook
// signatures, no sim/framework includes) so that `sim::Engine` can own a
// Hub by value. Every hook is an inline test that returns at once until
// Enable() turns verification on (bench --verify), so instrumented hot
// paths stay near-zero cost; after that the hook runs the one checker that
// consumes it. Each checker's code and state live in its own file of the
// `pstk_verify` library: mpi_checker.cc ("mpi-usage"), shmem_checker.cc
// ("shmem-sync"), spark_checker.cc ("spark-invariants") and
// ckpt_checker.cc ("ckpt-consistency"). The deadlock explainer (wait-for
// graph + cycle extraction) lives in sim::Engine itself and reports under
// "deadlock".
//
// Checkers report Findings (never abort): a violation becomes a structured
// diagnostic with severity, actor, and virtual timestamp — the paper's
// "silent hang / flat dump" failure modes turned into actionable reports
// (e.g. the Fig. 4 INT_MAX overflow in MPI_File_read_at_all).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace pstk::verify {

enum class Severity : std::uint8_t {
  kWarning,  // suspicious but survivable (e.g. recompute storm)
  kError,    // a correctness violation
};

inline const char* SeverityName(Severity s) {
  return s == Severity::kError ? "ERROR" : "WARNING";
}

/// One structured diagnostic produced by a checker.
struct Finding {
  Severity severity = Severity::kError;
  std::string checker;  // producing checker, e.g. "mpi-usage"
  std::string code;     // stable slug, e.g. "mpi-io-count-overflow"
  std::string message;  // human diagnostic (includes rank/callsite)
  std::string actor;    // offending process, e.g. "rank 3" / "pe 1"
  SimTime time = 0;     // virtual time of detection
};

/// A message still sitting in an endpoint inbox when its owner exited.
struct PendingMessage {
  int src = 0;
  int tag = 0;
  Bytes bytes = 0;
};

/// One dependency edge of an RDD lineage graph (child derives from parent).
struct LineageEdge {
  int child = 0;
  int parent = 0;
};

/// The checkers' hooks plus the findings they collected. Owned by value by
/// sim::Engine; off (and free) until Enable(). Hooks fire inline from the
/// simulation in deterministic order.
class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Turn every checker on (what `--verify` does).
  void Enable() { enabled_ = true; }
  [[nodiscard]] bool active() const { return enabled_; }

  /// Number a new job (an MPI or SHMEM world, a Spark app) on this engine,
  /// whether or not verification is on. Jobs number their ranks, PEs,
  /// communicators and RDDs from 0, so the MPI, SHMEM and Spark hooks name
  /// their job and each checker keys its tables by it: jobs sharing an
  /// engine (pstk::sched) are checked apart.
  [[nodiscard]] int NewJob() { return jobs_++; }

  // --- MPI (mpi_checker.cc) ------------------------------------------------
  /// A rank entered collective number `seq` on communicator `comm`
  /// (numbered within its job).
  void OnMpiCollective(int job, int comm, int rank, std::string_view op,
                       std::uint32_t seq, SimTime t) {
    if (enabled_) MpiCollective(job, comm, rank, op, seq, t);
  }
  /// A receive matched a message larger than the posted buffer.
  void OnMpiTruncation(int rank, int src, int tag, Bytes got, Bytes buffer,
                       SimTime t) {
    if (enabled_) MpiTruncation(rank, src, tag, got, buffer, t);
  }
  /// A rank passed MPI_Finalize with unconsumed messages or live requests.
  void OnMpiRankExit(int rank, const std::vector<PendingMessage>& unmatched,
                     int leaked_requests, SimTime t) {
    if (enabled_) MpiRankExit(rank, unmatched, leaked_requests, t);
  }
  void OnMpiCommCreated(int job, int comm, int rank) {
    if (enabled_) MpiCommCreated(job, comm, rank);
  }
  void OnMpiCommDestroyed(int job, int comm, int rank) {
    if (enabled_) MpiCommDestroyed(job, comm, rank);
  }
  /// An MPI-IO collective read was called with a count above INT_MAX
  /// (the paper's Fig. 4 failure, reported with rank and callsite).
  void OnMpiIoCountOverflow(int rank, std::int64_t count,
                            std::string_view callsite, std::string_view path,
                            SimTime t) {
    if (enabled_) MpiIoCountOverflow(rank, count, callsite, path, t);
  }
  /// End of an MPI job (its last rank's exit); flushes its end-of-job
  /// balances.
  void OnMpiJobEnd(int job, SimTime t) {
    if (enabled_) MpiJobEnd(job, t);
  }

  // --- SHMEM (shmem_checker.cc) --------------------------------------------
  /// One-sided access to the symmetric heap of `target_pe`.
  void OnShmemAccess(int job, int pe, int target_pe, Bytes offset,
                     Bytes bytes, bool write, bool atomic, SimTime t) {
    if (enabled_) {
      ShmemAccess(job, pe, target_pe, offset, bytes, write, atomic, t);
    }
  }
  /// A PE entered shmem_barrier_all.
  void OnShmemBarrier(int job, int pe, int npes) {
    if (enabled_) ShmemBarrier(job, pe, npes);
  }
  /// shmem_wait_until on the PE's local ivar at `offset` was satisfied.
  void OnShmemWaitSatisfied(int job, int pe, Bytes offset) {
    if (enabled_) ShmemWaitSatisfied(job, pe, offset);
  }

  // --- Checkpoint/restart (ckpt_checker.cc) --------------------------------
  /// A rank/PE finished writing its snapshot fragment for `epoch`.
  void OnCkptWrite(int rank, int epoch, Bytes /*bytes*/, SimTime t) {
    if (enabled_) CkptWrite(rank, epoch, t);
  }
  /// A snapshot epoch committed (became restorable): `ranks_written` of
  /// `nranks` fragments landed. A commit with missing fragments is broken.
  void OnCkptCommit(int epoch, int ranks_written, int nranks, SimTime t) {
    if (enabled_) CkptCommit(epoch, ranks_written, nranks, t);
  }
  /// A rank/PE restored its state from `epoch` during restart.
  void OnCkptRestore(int rank, int epoch, SimTime t) {
    if (enabled_) CkptRestore(rank, epoch, t);
  }

  // --- Spark / MapReduce (spark_checker.cc) --------------------------------
  /// The driver submitted a job over the given lineage graph.
  void OnSparkLineage(const std::vector<LineageEdge>& edges) {
    if (enabled_) SparkLineage(edges);
  }
  /// A task materialized (rdd, partition) by running Compute (cache miss).
  void OnSparkPartitionComputed(int job, int rdd, int partition,
                                bool persisted, SimTime t) {
    if (enabled_) SparkPartitionComputed(job, rdd, partition, persisted, t);
  }
  /// A consumer crossed a stage barrier with producer outputs missing.
  void OnStageBarrier(std::string_view framework, int stage_id, int ready,
                      int total, bool will_recover, SimTime t) {
    if (enabled_) {
      StageBarrier(framework, stage_id, ready, total, will_recover, t);
    }
  }

  // --- findings -----------------------------------------------------------
  /// Serialized by a mutex, so a checker may report from any host thread.
  void Report(Finding finding) {
    std::lock_guard<std::mutex> lk(mu_);
    if (finding.severity == Severity::kError) ++errors_;
    findings_.push_back(std::move(finding));
  }

  [[nodiscard]] const std::vector<Finding>& findings() const {
    return findings_;
  }
  [[nodiscard]] std::size_t error_count() const { return errors_; }
  [[nodiscard]] std::size_t warning_count() const {
    return findings_.size() - errors_;
  }

  /// Count findings with the given stable code slug.
  [[nodiscard]] std::size_t CountCode(std::string_view code) const {
    std::size_t n = 0;
    for (const Finding& f : findings_) {
      if (f.code == code) ++n;
    }
    return n;
  }

  /// Human-readable report of all findings ("clean" when there are none).
  [[nodiscard]] std::string RenderReport() const {
    if (findings_.empty()) return "verify: clean (0 findings)\n";
    std::ostringstream oss;
    oss << "verify: " << errors_ << " error(s), " << warning_count()
        << " warning(s)\n";
    for (const Finding& f : findings_) {
      oss << "  [" << SeverityName(f.severity) << "] " << f.checker << "/"
          << f.code;
      if (!f.actor.empty()) oss << " (" << f.actor << ")";
      oss << " t=" << f.time << "\n    " << f.message << "\n";
    }
    return oss.str();
  }

  void Clear() {
    findings_.clear();
    errors_ = 0;
  }

 private:
  // The checkers, one out-of-line body per hook, each defined in the
  // checker's own .cc.
  void MpiCollective(int job, int comm, int rank, std::string_view op,
                     std::uint32_t seq, SimTime t);
  void MpiTruncation(int rank, int src, int tag, Bytes got, Bytes buffer,
                     SimTime t);
  void MpiRankExit(int rank, const std::vector<PendingMessage>& unmatched,
                   int leaked_requests, SimTime t);
  void MpiCommCreated(int job, int comm, int rank);
  void MpiCommDestroyed(int job, int comm, int rank);
  void MpiIoCountOverflow(int rank, std::int64_t count,
                          std::string_view callsite, std::string_view path,
                          SimTime t);
  void MpiJobEnd(int job, SimTime t);
  void ShmemAccess(int job, int pe, int target_pe, Bytes offset, Bytes bytes,
                   bool write, bool atomic, SimTime t);
  void ShmemBarrier(int job, int pe, int npes);
  void ShmemWaitSatisfied(int job, int pe, Bytes offset);
  void CkptWrite(int rank, int epoch, SimTime t);
  void CkptCommit(int epoch, int ranks_written, int nranks, SimTime t);
  void CkptRestore(int rank, int epoch, SimTime t);
  void SparkLineage(const std::vector<LineageEdge>& edges);
  void SparkPartitionComputed(int job, int rdd, int partition, bool persisted,
                              SimTime t);
  void StageBarrier(std::string_view framework, int stage_id, int ready,
                    int total, bool will_recover, SimTime t);

  // Each checker's tables: defined in its .cc, made there by its first
  // event and freed by the Free overload beside them, so this header never
  // needs their definitions.
  struct MpiUsage;
  struct ShmemSync;
  struct SparkInvariants;
  struct CkptConsistency;
  struct Free {
    void operator()(MpiUsage* tables) const;
    void operator()(ShmemSync* tables) const;
    void operator()(SparkInvariants* tables) const;
    void operator()(CkptConsistency* tables) const;
  };
  template <typename T>
  static T& Tables(std::unique_ptr<T, Free>& tables) {
    if (tables == nullptr) tables.reset(new T());
    return *tables;
  }
  std::unique_ptr<MpiUsage, Free> mpi_;
  std::unique_ptr<ShmemSync, Free> shmem_;
  std::unique_ptr<SparkInvariants, Free> spark_;
  std::unique_ptr<CkptConsistency, Free> ckpt_;

  bool enabled_ = false;
  int jobs_ = 0;
  std::mutex mu_;  // guards findings_/errors_
  std::vector<Finding> findings_;
  std::size_t errors_ = 0;
};

}  // namespace pstk::verify
