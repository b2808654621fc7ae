// Runtime-verification hub: a pluggable checker framework subscribed to
// framework hooks (MPI, SHMEM, Spark/MR) and engine events.
//
// Layering: this header is intentionally self-contained (plain-data hook
// signatures, no sim/framework includes) so that `sim::Engine` can own a
// Hub by value while the concrete checkers live in the higher-level
// `pstk_verify` library. Frameworks call the Hub's inline dispatchers at
// interesting events; with no checkers installed every dispatcher is a
// single empty() test, so instrumented hot paths stay near-zero cost.
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

class Hub;

/// Base class for runtime checkers. Every hook has a no-op default, so a
/// checker overrides only the events it cares about. Hooks fire inline
/// from the simulation in deterministic order.
class Checker {
 public:
  virtual ~Checker() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  // --- MPI ----------------------------------------------------------------
  /// A rank entered collective number `seq` on communicator `comm_id`.
  virtual void OnMpiCollective(int comm_id, int comm_size, int rank,
                               std::string_view op, std::uint32_t seq,
                               SimTime t) {
    (void)comm_id; (void)comm_size; (void)rank; (void)op; (void)seq; (void)t;
  }
  /// A receive matched a message larger than the posted buffer.
  virtual void OnMpiTruncation(int rank, int src, int tag, Bytes got,
                               Bytes buffer, SimTime t) {
    (void)rank; (void)src; (void)tag; (void)got; (void)buffer; (void)t;
  }
  /// A rank passed MPI_Finalize with unconsumed messages or live requests.
  virtual void OnMpiRankExit(int rank,
                             const std::vector<PendingMessage>& unmatched,
                             int leaked_requests, SimTime t) {
    (void)rank; (void)unmatched; (void)leaked_requests; (void)t;
  }
  virtual void OnMpiCommCreated(int comm_id, int rank) {
    (void)comm_id; (void)rank;
  }
  virtual void OnMpiCommDestroyed(int comm_id, int rank) {
    (void)comm_id; (void)rank;
  }
  /// An MPI-IO collective read was called with a count above INT_MAX
  /// (the paper's Fig. 4 failure, reported with rank and callsite).
  virtual void OnMpiIoCountOverflow(int rank, std::int64_t count,
                                    std::string_view callsite,
                                    std::string_view path, SimTime t) {
    (void)rank; (void)count; (void)callsite; (void)path; (void)t;
  }
  /// End of an SPMD job (post-Run); checkers flush end-of-job balances.
  virtual void OnJobEnd(std::string_view framework, SimTime t) {
    (void)framework; (void)t;
  }

  // --- SHMEM --------------------------------------------------------------
  /// One-sided access to the symmetric heap of `target_pe`.
  virtual void OnShmemAccess(int pe, int target_pe, Bytes offset, Bytes bytes,
                             bool write, bool atomic, SimTime t) {
    (void)pe; (void)target_pe; (void)offset; (void)bytes; (void)write;
    (void)atomic; (void)t;
  }
  /// A PE entered shmem_barrier_all.
  virtual void OnShmemBarrier(int pe, int npes, SimTime t) {
    (void)pe; (void)npes; (void)t;
  }
  /// shmem_wait_until on the PE's local ivar at `offset` was satisfied.
  virtual void OnShmemWaitSatisfied(int pe, Bytes offset, SimTime t) {
    (void)pe; (void)offset; (void)t;
  }

  // --- Checkpoint/restart -------------------------------------------------
  /// A rank/PE finished writing its snapshot fragment for `epoch`.
  virtual void OnCkptWrite(int rank, int epoch, Bytes bytes, SimTime t) {
    (void)rank; (void)epoch; (void)bytes; (void)t;
  }
  /// A snapshot epoch committed (became restorable): `ranks_written` of
  /// `nranks` fragments landed. A commit with missing fragments is broken.
  virtual void OnCkptCommit(int epoch, int ranks_written, int nranks,
                            SimTime t) {
    (void)epoch; (void)ranks_written; (void)nranks; (void)t;
  }
  /// A rank/PE restored its state from `epoch` during restart.
  virtual void OnCkptRestore(int rank, int epoch, SimTime t) {
    (void)rank; (void)epoch; (void)t;
  }

  // --- Spark / MapReduce --------------------------------------------------
  /// The driver submitted a job over the given lineage graph.
  virtual void OnSparkLineage(const std::vector<LineageEdge>& edges) {
    (void)edges;
  }
  /// A task materialized (rdd, partition) by running Compute (cache miss).
  virtual void OnSparkPartitionComputed(int rdd, int partition, bool persisted,
                                        SimTime t) {
    (void)rdd; (void)partition; (void)persisted; (void)t;
  }
  /// A consumer crossed a stage barrier with producer outputs missing.
  virtual void OnStageBarrier(std::string_view framework, int stage_id,
                              int ready, int total, bool will_recover,
                              SimTime t) {
    (void)framework; (void)stage_id; (void)ready; (void)total;
    (void)will_recover; (void)t;
  }

 protected:
  /// Append a finding to the owning hub (set by Hub::Install).
  void Report(Finding finding);

 private:
  friend class Hub;
  Hub* hub_ = nullptr;
};

/// Per-engine registry of installed checkers + collected findings. Owned
/// by value by sim::Engine; inactive (and free) until a checker installs.
class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  [[nodiscard]] bool active() const { return !checkers_.empty(); }

  void Install(std::unique_ptr<Checker> checker) {
    checker->hub_ = this;
    checkers_.push_back(std::move(checker));
  }

  // --- dispatchers (mirror Checker's hooks) -------------------------------
  void OnMpiCollective(int comm_id, int comm_size, int rank,
                       std::string_view op, std::uint32_t seq, SimTime t) {
    for (auto& c : checkers_) {
      c->OnMpiCollective(comm_id, comm_size, rank, op, seq, t);
    }
  }
  void OnMpiTruncation(int rank, int src, int tag, Bytes got, Bytes buffer,
                       SimTime t) {
    for (auto& c : checkers_) c->OnMpiTruncation(rank, src, tag, got, buffer, t);
  }
  void OnMpiRankExit(int rank, const std::vector<PendingMessage>& unmatched,
                     int leaked_requests, SimTime t) {
    for (auto& c : checkers_) {
      c->OnMpiRankExit(rank, unmatched, leaked_requests, t);
    }
  }
  void OnMpiCommCreated(int comm_id, int rank) {
    for (auto& c : checkers_) c->OnMpiCommCreated(comm_id, rank);
  }
  void OnMpiCommDestroyed(int comm_id, int rank) {
    for (auto& c : checkers_) c->OnMpiCommDestroyed(comm_id, rank);
  }
  void OnMpiIoCountOverflow(int rank, std::int64_t count,
                            std::string_view callsite, std::string_view path,
                            SimTime t) {
    for (auto& c : checkers_) {
      c->OnMpiIoCountOverflow(rank, count, callsite, path, t);
    }
  }
  void OnJobEnd(std::string_view framework, SimTime t) {
    for (auto& c : checkers_) c->OnJobEnd(framework, t);
  }
  void OnShmemAccess(int pe, int target_pe, Bytes offset, Bytes bytes,
                     bool write, bool atomic, SimTime t) {
    for (auto& c : checkers_) {
      c->OnShmemAccess(pe, target_pe, offset, bytes, write, atomic, t);
    }
  }
  void OnShmemBarrier(int pe, int npes, SimTime t) {
    for (auto& c : checkers_) c->OnShmemBarrier(pe, npes, t);
  }
  void OnShmemWaitSatisfied(int pe, Bytes offset, SimTime t) {
    for (auto& c : checkers_) c->OnShmemWaitSatisfied(pe, offset, t);
  }
  void OnCkptWrite(int rank, int epoch, Bytes bytes, SimTime t) {
    for (auto& c : checkers_) c->OnCkptWrite(rank, epoch, bytes, t);
  }
  void OnCkptCommit(int epoch, int ranks_written, int nranks, SimTime t) {
    for (auto& c : checkers_) c->OnCkptCommit(epoch, ranks_written, nranks, t);
  }
  void OnCkptRestore(int rank, int epoch, SimTime t) {
    for (auto& c : checkers_) c->OnCkptRestore(rank, epoch, t);
  }
  void OnSparkLineage(const std::vector<LineageEdge>& edges) {
    for (auto& c : checkers_) c->OnSparkLineage(edges);
  }
  void OnSparkPartitionComputed(int rdd, int partition, bool persisted,
                                SimTime t) {
    for (auto& c : checkers_) {
      c->OnSparkPartitionComputed(rdd, partition, persisted, t);
    }
  }
  void OnStageBarrier(std::string_view framework, int stage_id, int ready,
                      int total, bool will_recover, SimTime t) {
    for (auto& c : checkers_) {
      c->OnStageBarrier(framework, stage_id, ready, total, will_recover, t);
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
  std::vector<std::unique_ptr<Checker>> checkers_;
  std::mutex mu_;  // guards findings_/errors_
  std::vector<Finding> findings_;
  std::size_t errors_ = 0;
};

inline void Checker::Report(Finding finding) {
  if (hub_ != nullptr) hub_->Report(std::move(finding));
}

}  // namespace pstk::verify
