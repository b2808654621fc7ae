// MUST-style MPI usage checker ("mpi-usage"): correctness diagnostics for
// the MiniMPI runtime, reported as structured findings instead of hangs or
// aborts.
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "verify/verify.h"

namespace pstk::verify {

namespace {

// Collective tags start here in MiniMPI/MiniSHMEM; messages at or above
// this tag are runtime-internal (barrier tokens etc.), not user traffic.
constexpr int kCollTagBase = 0x40000000;

}  // namespace

struct Hub::MpiUsage {
  struct FirstCall {
    std::string op;
    int rank;
  };
  // (job, comm, collective sequence number) -> first op observed.
  std::map<std::tuple<int, int, std::uint32_t>, FirstCall> first_call;
  // (job, comm, rank) -> live (created - destroyed) count.
  std::map<std::tuple<int, int, int>, int> live_comms;
};

void Hub::Free::operator()(MpiUsage* tables) const { delete tables; }

void Hub::MpiCollective(int job, int comm, int rank, std::string_view op,
                        std::uint32_t seq, SimTime t) {
  auto [it, inserted] = Tables(mpi_).first_call.try_emplace(
      {job, comm, seq}, MpiUsage::FirstCall{std::string(op), rank});
  if (inserted) return;
  const MpiUsage::FirstCall& first = it->second;
  if (first.op == op) return;
  std::ostringstream msg;
  msg << "collective call-order mismatch on comm " << comm
      << ": at collective #" << seq << " rank " << rank << " called " << op
      << " while rank " << first.rank << " called " << first.op;
  Report(Finding{Severity::kError, "mpi-usage", "mpi-collective-mismatch",
                 msg.str(), "rank " + std::to_string(rank), t});
}

void Hub::MpiTruncation(int rank, int src, int tag, Bytes got, Bytes buffer,
                        SimTime t) {
  std::ostringstream msg;
  msg << "message truncation at rank " << rank << ": received " << got
      << " bytes from endpoint " << src << " (tag " << tag << ") into a "
      << buffer << "-byte buffer; payload truncated (MPI_ERR_TRUNCATE)";
  Report(Finding{Severity::kError, "mpi-usage", "mpi-truncation", msg.str(),
                 "rank " + std::to_string(rank), t});
}

void Hub::MpiRankExit(int rank, const std::vector<PendingMessage>& unmatched,
                      int leaked_requests, SimTime t) {
  for (const PendingMessage& m : unmatched) {
    if (m.tag >= kCollTagBase) continue;  // runtime-internal traffic
    std::ostringstream msg;
    msg << "unmatched send: a " << m.bytes << "-byte message from endpoint "
        << m.src << " with tag " << m.tag << " was never received by rank "
        << rank << " (it reached MPI_Finalize with the message pending)";
    Report(Finding{Severity::kError, "mpi-usage", "mpi-unmatched-send",
                   msg.str(), "rank " + std::to_string(rank), t});
  }
  if (leaked_requests > 0) {
    std::ostringstream msg;
    msg << "rank " << rank << " reached MPI_Finalize with " << leaked_requests
        << " outstanding nonblocking receive request(s) never completed "
           "by MPI_Wait/MPI_Waitall (request leak)";
    Report(Finding{Severity::kError, "mpi-usage", "mpi-request-leak",
                   msg.str(), "rank " + std::to_string(rank), t});
  }
}

void Hub::MpiCommCreated(int job, int comm, int rank) {
  ++Tables(mpi_).live_comms[{job, comm, rank}];
}

void Hub::MpiCommDestroyed(int job, int comm, int rank) {
  auto& live_comms = Tables(mpi_).live_comms;
  auto it = live_comms.find({job, comm, rank});
  if (it == live_comms.end()) return;
  if (--it->second <= 0) live_comms.erase(it);
}

void Hub::MpiIoCountOverflow(int rank, std::int64_t count,
                             std::string_view callsite, std::string_view path,
                             SimTime t) {
  std::ostringstream msg;
  msg << callsite << " at rank " << rank << " on \"" << path << "\": count "
      << count << " exceeds INT_MAX (2147483647); the "
      << "int count argument caps a rank's collective read at 2 GB — "
      << "use more ranks so each reads under 2 GB (paper Fig. 4)";
  Report(Finding{Severity::kError, "mpi-usage", "mpi-io-count-overflow",
                 msg.str(), "rank " + std::to_string(rank), t});
}

void Hub::MpiJobEnd(int job, SimTime t) {
  MpiUsage& mpi = Tables(mpi_);
  const auto of_job = [job](const auto& entry) {
    return std::get<0>(entry.first) == job;
  };
  for (const auto& [key, live] : mpi.live_comms) {
    const auto [comm_job, comm, rank] = key;
    if (comm_job != job || live <= 0) continue;
    std::ostringstream msg;
    msg << "communicator leak: comm " << comm << " on rank " << rank
        << " was created " << live << " more time(s) than freed by job end";
    Report(Finding{Severity::kError, "mpi-usage", "mpi-comm-leak", msg.str(),
                   "rank " + std::to_string(rank), t});
  }
  std::erase_if(mpi.live_comms, of_job);
  std::erase_if(mpi.first_call, of_job);
}

}  // namespace pstk::verify
