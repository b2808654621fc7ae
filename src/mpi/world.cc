#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "mpi/mpi.h"
#include "verify/verify.h"

namespace pstk::mpi {

World::World(cluster::Cluster& cluster, int nranks, int ranks_per_node,
             MpiOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      nranks_(nranks),
      ranks_per_node_(ranks_per_node),
      verify_job_(cluster.engine().verify().NewJob()) {
  PSTK_CHECK_MSG(nranks_ >= 1, "need at least one rank");
  PSTK_CHECK_MSG(ranks_per_node_ >= 1, "ranks_per_node must be >= 1");
  if (!options_.placement.empty()) {
    PSTK_CHECK_MSG(
        options_.placement.size() == static_cast<std::size_t>(nranks_),
        "placement names " << options_.placement.size() << " ranks for an "
                           << nranks_ << "-rank job");
    for (int node : options_.placement) {
      PSTK_CHECK_MSG(node >= 0 && node < cluster_.nodes(),
                     "placement node " << node << " out of range");
    }
  } else {
    const int needed_nodes = (nranks_ + ranks_per_node_ - 1) / ranks_per_node_;
    PSTK_CHECK_MSG(needed_nodes <= cluster_.nodes(),
                   "not enough nodes: need " << needed_nodes << ", have "
                                             << cluster_.nodes());
  }
  const net::TransportParams transport =
      options_.transport.value_or(cluster_.spec().transport);
  network_ = std::make_unique<net::Network>(
      cluster_.engine(), cluster_.fabric(transport),
      options_.eager_threshold);
}

void World::SpawnRanks(RankBody body) {
  std::vector<int> group(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) group[r] = r;

  for (int r = 0; r < nranks_; ++r) {
    const int node = NodeOfRank(r);
    network_->CreateEndpoint(r, node);
    cluster_.engine().Spawn(
        options_.name + "-rank-" + std::to_string(r),
        [this, r, group, body](sim::Context& ctx) {
          // mpirun launch + MPI_Init (which registers the rank with its
          // NIC endpoint, so deadlock wait-for edges resolve immediately).
          // Relative sleep so mid-run launches (sched) pay the same cost
          // as t=0 launches.
          ctx.SleepFor(options_.startup_cost);
          network_->endpoint(r).Bind(ctx);
          verify::Hub& hub = ctx.engine().verify();
          {
            Comm comm(*this, ctx, r, nranks_, /*comm_id=*/0,
                      /*verify_id=*/0, group);
            body(comm);
            // MPI_Finalize synchronizes the job teardown.
            comm.Barrier();
            if (hub.active()) {
              // Exiting the dissemination barrier implies every rank has
              // entered finalize, so all user sends are already deposited:
              // anything still in the inbox is an unmatched send.
              std::vector<verify::PendingMessage> unmatched;
              for (const net::Endpoint::PendingInfo& p :
                   network_->endpoint(r).Pending()) {
                unmatched.push_back(
                    verify::PendingMessage{p.src, p.tag, p.bytes});
              }
              hub.OnMpiRankExit(r, unmatched,
                                comm.outstanding_recv_requests(), ctx.now());
            }
          }  // MPI_Finalize frees the world communicator.
          job_end_ = std::max(job_end_, ctx.now());
          if (++ranks_done_ == nranks_) {
            // Every rank's communicators are gone by now, whichever way
            // the job was launched: flush the end-of-job checks.
            hub.OnMpiJobEnd(verify_job_, job_end_);
            if (on_done_) on_done_(ctx.now());
          }
        },
        node);
  }
}

void World::LeaveCollective(int comm, std::uint32_t seq) {
  const auto it = collectives_.find({comm, seq});
  PSTK_CHECK(it != collectives_.end());
  if (--it->second->ranks_inside == 0) collectives_.erase(it);
}

Result<SimTime> World::RunSpmd(RankBody body) {
  SpawnRanks(std::move(body));
  const sim::RunResult result = cluster_.engine().Run();
  if (result.killed > 0) {
    // MPI has no fault tolerance: any lost rank aborts the whole job
    // (paper §VI-D); surviving ranks deadlock and are torn down.
    return Aborted("MPI job lost " + std::to_string(result.killed) +
                   " rank(s); job aborted");
  }
  if (!result.status.ok()) return result.status;
  return job_end_;
}

}  // namespace pstk::mpi
