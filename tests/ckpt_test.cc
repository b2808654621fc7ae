// Tests for pstk::ckpt — the Young/Daly interval helper, SnapshotStore
// commit/invalidation semantics, and RestartManager end-to-end recovery
// for MPI and SHMEM jobs under injected node failures. The integration
// tests assert the recovery *result* (final reduced value identical to a
// failure-free run), not just that the job limped to completion.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/ckpt.h"
#include "cluster/cluster.h"
#include "mpi/mpi.h"
#include "serde/serde.h"
#include "shmem/shmem.h"
#include "sim/fault.h"

namespace pstk {
namespace {

serde::Buffer Frag(std::int32_t tag) {
  serde::Writer w;
  w.WriteRaw<std::int32_t>(tag);
  return w.TakeBuffer();
}

// ===========================================================================
// Young/Daly interval
// ===========================================================================

TEST(YoungDalyTest, MatchesClosedForm) {
  // tau* = sqrt(2 * C * MTBF): C = 2s, MTBF = 100s -> sqrt(400) = 20s.
  EXPECT_DOUBLE_EQ(ckpt::YoungDalyInterval(2.0, 100.0), 20.0);
}

TEST(YoungDalyTest, ClampedBelowByWriteCost) {
  // sqrt(2 * 50 * 1) = 10 < C = 50: an interval shorter than the write
  // cost would mean checkpointing back-to-back forever.
  EXPECT_DOUBLE_EQ(ckpt::YoungDalyInterval(50.0, 1.0), 50.0);
}

// ===========================================================================
// SnapshotStore: the 2-phase commit point and copy invalidation
// ===========================================================================

TEST(SnapshotStoreTest, CommitsOnlyWhenEveryRankWrote) {
  ckpt::SnapshotStore store(3);
  EXPECT_FALSE(store.RecordWrite(0, 0, Frag(0), {0}));
  EXPECT_FALSE(store.RecordWrite(0, 1, Frag(1), {0}));
  EXPECT_EQ(store.LatestRestorableEpoch(), std::nullopt);
  EXPECT_TRUE(store.RecordWrite(0, 2, Frag(2), {1}));
  EXPECT_EQ(store.LatestRestorableEpoch(), std::optional<int>(0));
  ASSERT_NE(store.Fragment(0, 2), nullptr);
  EXPECT_EQ(store.FragmentCopies(0, 2), std::vector<int>{1});
}

TEST(SnapshotStoreTest, ReplayRewriteDoesNotRecommit) {
  // After a rollback the replayed attempt rewrites fragments the failed
  // attempt already left behind; only the first completion is the commit.
  ckpt::SnapshotStore store(1);
  EXPECT_TRUE(store.RecordWrite(4, 0, Frag(7), {0}));
  EXPECT_FALSE(store.RecordWrite(4, 0, Frag(7), {0}));
  EXPECT_EQ(store.LatestRestorableEpoch(), std::optional<int>(4));
}

TEST(SnapshotStoreTest, DropNodeInvalidatesUnreplicatedEpochs) {
  ckpt::SnapshotStore store(2);
  // Epoch 0: each rank's only copy lives on its own node.
  store.RecordWrite(0, 0, Frag(0), {0});
  store.RecordWrite(0, 1, Frag(1), {1});
  // Epoch 1: buddy-replicated (SCR partner scheme).
  store.RecordWrite(1, 0, Frag(2), {0, 1});
  store.RecordWrite(1, 1, Frag(3), {1, 0});
  EXPECT_EQ(store.LatestRestorableEpoch(), std::optional<int>(1));

  store.DropNode(1);  // node 1's scratch is wiped
  // Epoch 0 lost rank 1's only copy; epoch 1 survives via the buddies.
  EXPECT_EQ(store.LatestRestorableEpoch(), std::optional<int>(1));
  store.DropNode(0);
  EXPECT_EQ(store.LatestRestorableEpoch(), std::nullopt);
}

TEST(SnapshotStoreTest, NfsCopiesSurviveAnyNodeLoss) {
  ckpt::SnapshotStore store(2);
  store.RecordWrite(0, 0, Frag(0), {ckpt::SnapshotStore::kNfsNode});
  store.RecordWrite(0, 1, Frag(1), {ckpt::SnapshotStore::kNfsNode});
  store.DropNode(0);
  store.DropNode(1);
  EXPECT_EQ(store.LatestRestorableEpoch(), std::optional<int>(0));
}

// ===========================================================================
// RestartManager end-to-end: an iterative Allreduce job that accumulates
// sum_{iter=0..11} sum_{rank=0..7} (iter + rank) = 8*66 + 12*28 = 864.
// ===========================================================================

constexpr int kIters = 12;
constexpr double kExpectedValue = 864.0;

ckpt::HpcJob TestJob() {
  ckpt::HpcJob job;
  job.spec = cluster::ClusterSpec::Comet(4);
  job.procs = 8;
  job.procs_per_node = 2;
  return job;
}

ckpt::RestartManager::MpiBody MpiBody(double* final_value) {
  return [final_value](mpi::Comm& comm, ckpt::CheckpointCoordinator& coord) {
    const int rank = comm.rank();
    const int node = rank / 2;
    comm.Barrier();  // collective boundary: channels quiesced
    int start = 0;
    double value = 0.0;
    const serde::Buffer* frag = coord.Restore(comm.ctx(), rank, node);
    if (frag != nullptr) {
      serde::Reader r(*frag);
      start = static_cast<int>(r.ReadRaw<std::int32_t>().value()) + 1;
      value = r.ReadRaw<double>().value();
    }
    std::vector<double> contrib(1, 0.0);
    std::vector<double> sum(1, 0.0);
    for (int iter = start; iter < kIters; ++iter) {
      comm.ctx().Compute(0.05);
      contrib[0] = static_cast<double>(iter + rank);
      comm.Allreduce<double>(contrib, sum);
      value += sum[0];
      serde::Writer w;
      w.WriteRaw<std::int32_t>(iter);
      w.WriteRaw<double>(value);
      coord.Checkpoint(comm.ctx(), rank, node, iter, w.TakeBuffer());
    }
    if (rank == 0) *final_value = value;
  };
}

TEST(RestartManagerTest, FailureFreeRunMatchesClosedForm) {
  ckpt::CkptPolicy policy;
  policy.interval = 0.1;
  policy.target_disk = ckpt::Target::kNfs;
  double value = 0.0;
  ckpt::RestartManager manager(policy, sim::FaultPlan{});
  auto outcome = manager.RunMpi(TestJob(), MpiBody(&value));
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_TRUE(outcome.value().completed);
  EXPECT_EQ(outcome.value().restarts, 0);
  EXPECT_GT(outcome.value().checkpoints_committed, 0);
  EXPECT_DOUBLE_EQ(value, kExpectedValue);
}

TEST(RestartManagerTest, MpiJobSurvivesNodeFailureViaNfsSnapshots) {
  ckpt::CkptPolicy policy;
  policy.interval = 0.1;
  policy.target_disk = ckpt::Target::kNfs;
  policy.restart_delay = 1.0;
  auto plan = sim::FaultPlan::Parse("node:1@0.5");
  ASSERT_TRUE(plan.ok());
  double value = 0.0;
  ckpt::RestartManager manager(policy, plan.value());
  auto outcome = manager.RunMpi(TestJob(), MpiBody(&value));
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_TRUE(outcome.value().completed);
  EXPECT_GE(outcome.value().restarts, 1);
  EXPECT_GT(outcome.value().checkpoints_committed, 0);
  EXPECT_GT(outcome.value().snapshot_bytes, 0u);
  // The restart replayed from a snapshot, not from scratch, yet the
  // answer is bit-identical to the failure-free run.
  EXPECT_DOUBLE_EQ(value, kExpectedValue);
  // Time-to-solution charges the requeue delay at least once.
  EXPECT_GT(outcome.value().time_to_solution, policy.restart_delay);
}

TEST(RestartManagerTest, AbortRerunRecoversWithoutSnapshots) {
  ckpt::CkptPolicy policy;
  policy.interval = 0;  // checkpointing disabled: abort + full rerun
  policy.restart_delay = 1.0;
  auto plan = sim::FaultPlan::Parse("node:1@0.5");
  ASSERT_TRUE(plan.ok());
  double value = 0.0;
  ckpt::RestartManager manager(policy, plan.value());
  auto outcome = manager.RunMpi(TestJob(), MpiBody(&value));
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_TRUE(outcome.value().completed);
  EXPECT_GE(outcome.value().restarts, 1);
  EXPECT_EQ(outcome.value().checkpoints_committed, 0);
  EXPECT_EQ(outcome.value().snapshot_bytes, 0u);
  EXPECT_DOUBLE_EQ(value, kExpectedValue);
  // The whole prefix was recomputed: rollback work >= the failed span.
  EXPECT_GT(outcome.value().rollback_work, 0.0);
}

TEST(RestartManagerTest, ExhaustedRestartBudgetReportsDnf) {
  ckpt::CkptPolicy policy;
  policy.interval = 0.1;
  policy.target_disk = ckpt::Target::kNfs;
  policy.restart_delay = 1.0;
  policy.max_restarts = 0;
  auto plan = sim::FaultPlan::Parse("node:1@0.5");
  ASSERT_TRUE(plan.ok());
  double value = 0.0;
  ckpt::RestartManager manager(policy, plan.value());
  auto outcome = manager.RunMpi(TestJob(), MpiBody(&value));
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_FALSE(outcome.value().completed);  // data, not an error
  EXPECT_EQ(outcome.value().attempts, 1);
  // Every killed attempt counts as a consumed restart, so DNF after the
  // only permitted attempt reports one (the bench prints it as "DNF(1r)").
  EXPECT_EQ(outcome.value().restarts, 1);
}

TEST(RestartManagerTest, ShmemJobSurvivesViaBuddyReplicatedSsd) {
  // Local-SSD fragments die with the node; the buddy replica on the next
  // node is what makes the snapshot restorable after node 1 is wiped.
  ckpt::CkptPolicy policy;
  policy.interval = 0.1;
  policy.target_disk = ckpt::Target::kLocalSsd;
  policy.replicate = true;
  policy.restart_delay = 1.0;
  auto plan = sim::FaultPlan::Parse("node:1@0.5");
  ASSERT_TRUE(plan.ok());
  double value = 0.0;
  ckpt::RestartManager manager(policy, plan.value());
  auto outcome = manager.RunShmem(
      TestJob(), [&](shmem::Pe& pe, ckpt::CheckpointCoordinator& coord) {
        const int me = pe.my_pe();
        const int node = me / 2;
        auto contrib_s = pe.Malloc<double>(1);
        auto sum_s = pe.Malloc<double>(1);
        pe.BarrierAll();  // collective boundary: channels quiesced
        int start = 0;
        double local = 0.0;
        const serde::Buffer* frag = coord.Restore(pe.ctx(), me, node);
        if (frag != nullptr) {
          serde::Reader r(*frag);
          start = static_cast<int>(r.ReadRaw<std::int32_t>().value()) + 1;
          local = r.ReadRaw<double>().value();
        }
        for (int iter = start; iter < kIters; ++iter) {
          pe.ctx().Compute(0.05);
          pe.Local(contrib_s)[0] = static_cast<double>(iter + me);
          pe.SumToAll(sum_s, contrib_s, 1);
          local += pe.Local(sum_s)[0];
          serde::Writer w;
          w.WriteRaw<std::int32_t>(iter);
          w.WriteRaw<double>(local);
          coord.Checkpoint(pe.ctx(), me, node, iter, w.TakeBuffer());
        }
        if (me == 0) value = local;
      });
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_TRUE(outcome.value().completed);
  EXPECT_GE(outcome.value().restarts, 1);
  EXPECT_GT(outcome.value().checkpoints_committed, 0);
  EXPECT_DOUBLE_EQ(value, kExpectedValue);
}

}  // namespace
}  // namespace pstk
