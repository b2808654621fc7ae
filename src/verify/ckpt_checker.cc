// Checkpoint/restart consistency checker ("ckpt-consistency"): snapshot
// epochs must commit in strictly increasing order, an epoch may only commit
// once every rank's fragment landed, and a restart must roll every rank back
// to the same epoch — no process may resume past a snapshot another process
// lost.
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "verify/verify.h"

namespace pstk::verify {

struct Hub::CkptConsistency {
  std::map<int, std::set<int>> writes;  // epoch -> ranks written
  std::optional<int> last_committed;
  std::optional<int> restore_epoch;  // first restore pins the epoch
};

void Hub::Free::operator()(CkptConsistency* tables) const { delete tables; }

void Hub::CkptWrite(int rank, int epoch, SimTime t) {
  if (Tables(ckpt_).writes[epoch].insert(rank).second) return;
  std::ostringstream msg;
  msg << "rank " << rank << " wrote its fragment for snapshot epoch " << epoch
      << " twice; each rank checkpoints an epoch exactly once "
         "at the collective boundary";
  Report(Finding{Severity::kWarning, "ckpt-consistency",
                 "ckpt-duplicate-write", msg.str(),
                 "rank " + std::to_string(rank), t});
}

void Hub::CkptCommit(int epoch, int ranks_written, int nranks, SimTime t) {
  CkptConsistency& ckpt = Tables(ckpt_);
  const auto seen = static_cast<int>(ckpt.writes[epoch].size());
  if (ranks_written != nranks || seen < nranks) {
    std::ostringstream msg;
    msg << "snapshot epoch " << epoch << " committed with only "
        << (seen < ranks_written ? seen : ranks_written) << "/" << nranks
        << " fragments written; restoring it would mix pre- and "
           "post-snapshot state across ranks";
    Report(Finding{Severity::kError, "ckpt-consistency",
                   "ckpt-partial-commit", msg.str(), "coordinator", t});
  }
  if (ckpt.last_committed.has_value() && epoch <= *ckpt.last_committed) {
    std::ostringstream msg;
    msg << "snapshot epoch " << epoch << " committed after epoch "
        << *ckpt.last_committed << "; epochs must be strictly monotone or a "
           "restart can resurrect overwritten state";
    Report(Finding{Severity::kError, "ckpt-consistency",
                   "ckpt-epoch-regression", msg.str(), "coordinator", t});
  }
  if (!ckpt.last_committed.has_value() || epoch > *ckpt.last_committed) {
    ckpt.last_committed = epoch;
  }
}

void Hub::CkptRestore(int rank, int epoch, SimTime t) {
  CkptConsistency& ckpt = Tables(ckpt_);
  if (!ckpt.restore_epoch.has_value()) {
    ckpt.restore_epoch = epoch;
    return;
  }
  if (epoch == *ckpt.restore_epoch) return;
  std::ostringstream msg;
  msg << "rank " << rank << " restored from snapshot epoch " << epoch
      << " while another rank restored from epoch " << *ckpt.restore_epoch
      << "; a rank resumed past a snapshot its peers lost";
  Report(Finding{Severity::kError, "ckpt-consistency",
                 "ckpt-restore-divergence", msg.str(),
                 "rank " + std::to_string(rank), t});
}

}  // namespace pstk::verify
