// Tests for the runtime-verification framework (src/verify).
//
// Each checker gets at least one seeded-violation test (the checker must
// fire), zero-false-positive sweeps follow (idiomatic clean jobs on every
// framework must produce no findings at all), and the file ends with
// paradigm pitfall shapes, each paired with the run-time check that
// catches it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.h"
#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "mpi/mpi.h"
#include "shmem/shmem.h"
#include "sim/engine.h"
#include "spark/spark.h"
#include "verify/verify.h"

namespace pstk {
namespace {

constexpr auto kNpos = std::string::npos;

// ===========================================================================
// Hub basics (no cluster needed)
// ===========================================================================

TEST(VerifyHubTest, StartsCleanRendersAndClears) {
  verify::Hub hub;
  EXPECT_FALSE(hub.active());
  EXPECT_EQ(hub.RenderReport(), "verify: clean (0 findings)\n");

  hub.Report(verify::Finding{verify::Severity::kError, "test", "test-code",
                             "boom", "rank 0", 1.5});
  hub.Report(verify::Finding{verify::Severity::kWarning, "test", "test-warn",
                             "meh", "", 2.0});
  EXPECT_EQ(hub.error_count(), 1u);
  EXPECT_EQ(hub.warning_count(), 1u);
  EXPECT_EQ(hub.CountCode("test-code"), 1u);
  EXPECT_EQ(hub.CountCode("absent"), 0u);
  const std::string report = hub.RenderReport();
  EXPECT_NE(report.find("[ERROR] test/test-code"), kNpos);
  EXPECT_NE(report.find("[WARNING] test/test-warn"), kNpos);

  hub.Clear();
  EXPECT_EQ(hub.findings().size(), 0u);
  EXPECT_EQ(hub.RenderReport(), "verify: clean (0 findings)\n");
}

TEST(VerifyHubTest, EnableActivatesHub) {
  verify::Hub hub;
  hub.Enable();
  EXPECT_TRUE(hub.active());
}

// ===========================================================================
// Spark invariant checker, driven directly through the hub
// ===========================================================================

TEST(SparkCheckerTest, LineageCycleReportedWithCycleMembers) {
  verify::Hub hub;
  hub.Enable();
  // 2 -> 1 -> 3 -> 2 plus an innocent 4 -> 2 edge.
  hub.OnSparkLineage({{2, 1}, {1, 3}, {3, 2}, {4, 2}});
  ASSERT_EQ(hub.CountCode("spark-lineage-cycle"), 1u);
  const verify::Finding& f = hub.findings().front();
  EXPECT_EQ(f.severity, verify::Severity::kError);
  EXPECT_NE(f.message.find("lineage is cyclic"), kNpos);
}

TEST(SparkCheckerTest, AcyclicLineageIsClean) {
  verify::Hub hub;
  hub.Enable();
  hub.OnSparkLineage({{3, 2}, {2, 1}, {3, 1}});  // a DAG (diamond-ish)
  EXPECT_EQ(hub.findings().size(), 0u);
}

TEST(SparkCheckerTest, StageBarrierSeverityDependsOnRecovery) {
  verify::Hub hub;
  hub.Enable();
  hub.OnStageBarrier("spark", 7, 2, 4, /*will_recover=*/true, 10.0);
  ASSERT_EQ(hub.CountCode("stage-barrier-retry"), 1u);
  EXPECT_EQ(hub.findings().front().severity, verify::Severity::kWarning);
  EXPECT_NE(hub.findings().front().message.find("2/4"), kNpos);

  hub.OnStageBarrier("mr", 7, 1, 4, /*will_recover=*/false, 11.0);
  ASSERT_EQ(hub.CountCode("stage-barrier-violation"), 1u);
  EXPECT_EQ(hub.findings().back().severity, verify::Severity::kError);
  EXPECT_EQ(hub.error_count(), 1u);
}

// ===========================================================================
// Checkpoint-consistency checker, driven directly through the hub
// ===========================================================================

TEST(CkptCheckerTest, PartialCommitReported) {
  verify::Hub hub;
  hub.Enable();
  hub.OnCkptWrite(0, 0, 1024, 1.0);
  hub.OnCkptCommit(0, /*ranks_written=*/1, /*nranks=*/2, 1.1);
  ASSERT_EQ(hub.CountCode("ckpt-partial-commit"), 1u);
  EXPECT_EQ(hub.findings().front().severity, verify::Severity::kError);
  EXPECT_NE(hub.findings().front().message.find("1/2"), kNpos);
}

TEST(CkptCheckerTest, DuplicateWriteWarned) {
  verify::Hub hub;
  hub.Enable();
  hub.OnCkptWrite(3, 0, 1024, 1.0);
  hub.OnCkptWrite(3, 0, 1024, 1.2);
  ASSERT_EQ(hub.CountCode("ckpt-duplicate-write"), 1u);
  EXPECT_EQ(hub.findings().front().severity, verify::Severity::kWarning);
}

TEST(CkptCheckerTest, EpochRegressionReported) {
  verify::Hub hub;
  hub.Enable();
  hub.OnCkptWrite(0, 1, 64, 1.0);
  hub.OnCkptCommit(1, 1, 1, 1.1);
  hub.OnCkptWrite(0, 0, 64, 2.0);
  hub.OnCkptCommit(0, 1, 1, 2.1);  // commits behind epoch 1
  ASSERT_EQ(hub.CountCode("ckpt-epoch-regression"), 1u);
}

TEST(CkptCheckerTest, RestoreDivergenceReported) {
  verify::Hub hub;
  hub.Enable();
  hub.OnCkptRestore(0, 3, 5.0);
  hub.OnCkptRestore(1, 2, 5.1);  // rank 1 resumed past a lost snapshot
  ASSERT_EQ(hub.CountCode("ckpt-restore-divergence"), 1u);
  EXPECT_EQ(hub.findings().front().severity, verify::Severity::kError);
}

TEST(CkptCheckerTest, CoordinatedSequenceIsClean) {
  verify::Hub hub;
  hub.Enable();
  for (int epoch = 0; epoch < 2; ++epoch) {
    hub.OnCkptWrite(0, epoch, 64, epoch + 0.1);
    hub.OnCkptWrite(1, epoch, 64, epoch + 0.2);
    hub.OnCkptCommit(epoch, 2, 2, epoch + 0.3);
  }
  hub.OnCkptRestore(0, 1, 5.0);
  hub.OnCkptRestore(1, 1, 5.1);
  EXPECT_EQ(hub.findings().size(), 0u);
}

// ===========================================================================
// MPI usage checker on live MiniMPI jobs
// ===========================================================================

struct MpiFixture {
  explicit MpiFixture(std::size_t nodes = 2, double scale = 1.0) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes), scale);
    engine.verify().Enable();
  }
  verify::Hub& hub() { return engine.verify(); }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
};

TEST(MpiVerifyTest, TruncationReportedAndRunStillCompletes) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  Bytes received = 0;
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<char> big(16, 'x');
      comm.Send(big.data(), big.size(), /*dest=*/1, /*tag=*/7);
    } else {
      std::vector<char> small(8);
      received = comm.Recv(small.data(), small.size(), /*source=*/0,
                           /*tag=*/7);
    }
  });
  // With the verifier on, truncation is MPI_ERR_TRUNCATE semantics (a
  // finding plus a prefix copy), not a hard abort.
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(received, 8u);
  ASSERT_EQ(f.hub().CountCode("mpi-truncation"), 1u);
  EXPECT_NE(f.hub().findings().front().message.find("MPI_ERR_TRUNCATE"),
            kNpos);
}

TEST(MpiVerifyTest, UnmatchedSendReportedAtFinalize) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      const int payload = 42;
      // Nobody ever posts the matching receive for tag 99.
      comm.Isend(&payload, sizeof(payload), /*dest=*/1, /*tag=*/99);
    }
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(f.hub().CountCode("mpi-unmatched-send"), 1u);
  EXPECT_NE(f.hub().findings().front().message.find("tag 99"), kNpos);
}

TEST(MpiVerifyTest, LeakedIrecvRequestReported) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      int slot = 0;
      comm.Irecv(&slot, sizeof(slot), /*source=*/1, /*tag=*/3);
      // The request is never completed with Wait/Waitall.
    }
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().CountCode("mpi-request-leak"), 1u);
}

TEST(MpiVerifyTest, CollectiveCallOrderMismatchReported) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  world.SpawnRanks([&](mpi::Comm& comm) {
    double x = 0.0;
    // Rank 0 enters a barrier while rank 1 enters a broadcast: the classic
    // mismatched-collective bug. The run itself may well hang afterwards;
    // the checker must still name the divergence.
    if (comm.rank() == 0) {
      comm.Barrier();
    } else {
      comm.Bcast(&x, sizeof(x), /*root=*/0);
    }
  });
  (void)f.engine.Run();  // outcome irrelevant: the diagnostic is the point
  ASSERT_GE(f.hub().CountCode("mpi-collective-mismatch"), 1u);
  bool found = false;
  for (const verify::Finding& fd : f.hub().findings()) {
    if (fd.code != "mpi-collective-mismatch") continue;
    EXPECT_NE(fd.message.find("barrier"), kNpos);
    EXPECT_NE(fd.message.find("bcast"), kNpos);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MpiVerifyTest, CommunicatorLeakReportedAtJobEnd) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  std::vector<std::unique_ptr<mpi::Comm>> leaked(2);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    // The split communicator outlives the job: MPI_Comm_free never runs
    // before MPI_Finalize.
    leaked[static_cast<std::size_t>(comm.rank())] =
        comm.Split(/*color=*/0, /*key=*/comm.rank());
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().CountCode("mpi-comm-leak"), 2u);
  leaked.clear();  // destroy while the engine (and contexts) still exist
}

TEST(MpiVerifyTest, CommunicatorLeakReportedForSpawnedRanks) {
  // The launch path of pstk::sched and ckpt::RestartManager: spawn the
  // ranks and let the engine run. The job-end check must still fire.
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  std::vector<std::unique_ptr<mpi::Comm>> leaked(2);
  world.SpawnRanks([&](mpi::Comm& comm) {
    leaked[static_cast<std::size_t>(comm.rank())] =
        comm.Split(/*color=*/0, /*key=*/comm.rank());
  });
  const sim::RunResult run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(f.hub().CountCode("mpi-comm-leak"), 2u);
  leaked.clear();
}

// Stages an ~8 KB text file as /in/posts.txt on each node's scratch; at
// data_scale 1e-6 it models an 8 GB logical input.
void StagePosts(cluster::Cluster& cluster, int nodes) {
  std::string content;
  for (int i = 0; i < 200; ++i) {
    content += "line " + std::to_string(i) + std::string(32, 'x') + "\n";
  }
  for (int node = 0; node < nodes; ++node) {
    cluster.scratch(node).Install("/in/posts.txt", content);
  }
}

// The paper's Fig. 4 failure: MPI_File_read_at_all takes its count as a C
// int, so a per-rank chunk above INT_MAX bytes cannot be read. The job
// must fail symmetrically (no deadlock) with a structured diagnostic.
TEST(MpiVerifyTest, Fig4IoCountOverflowDiagnosed) {
  // data_scale 1e-6: each of 2 ranks owns a ~4 GB chunk — above INT_MAX.
  MpiFixture f(/*nodes=*/2, /*scale=*/1e-6);
  StagePosts(*f.cluster, 2);

  mpi::World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    auto file = mpi::File::OpenAll(comm, "/in/posts.txt");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const auto chunk = static_cast<std::int64_t>(file->size() / 2);
    ASSERT_GT(chunk, std::int64_t{2147483647});
    auto part = file->ReadLinesAtAll(
        comm, static_cast<Bytes>(comm.rank()) * static_cast<Bytes>(chunk),
        chunk);
    EXPECT_FALSE(part.ok());
    EXPECT_NE(part.status().ToString().find("INT_MAX (2147483647)"), kNpos);
  });
  // Every rank bails out before the collective's barrier: clean finish.
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(f.hub().CountCode("mpi-io-count-overflow"), 2u);
  const verify::Finding& fd = f.hub().findings().front();
  EXPECT_NE(fd.message.find("MPI_File_read_at_all"), kNpos);
  EXPECT_NE(fd.message.find("exceeds INT_MAX"), kNpos);
}

// ===========================================================================
// Deadlock explainer (engine wait-for graph)
// ===========================================================================

TEST(DeadlockVerifyTest, RecvCycleIsNamedInReportAndFinding) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    int slot = 0;
    // Both ranks receive from each other and nobody sends: a 2-cycle.
    comm.Recv(&slot, sizeof(slot), /*source=*/1 - comm.rank(), /*tag=*/5);
  });
  ASSERT_FALSE(t.ok());
  const std::string msg = t.status().ToString();
  EXPECT_NE(msg.find("wait-for cycle:"), kNpos) << msg;
  EXPECT_NE(msg.find("mpi-rank-0"), kNpos);
  EXPECT_NE(msg.find("mpi-rank-1"), kNpos);
  EXPECT_NE(msg.find("blame: mpi=2"), kNpos);
  // The same report lands in the hub as a structured finding; with no
  // injected fault this is a usage error, not expected teardown.
  ASSERT_EQ(f.hub().CountCode("sim-deadlock"), 1u);
  bool severity_checked = false;
  for (const verify::Finding& fd : f.hub().findings()) {
    if (fd.code != "sim-deadlock") continue;
    EXPECT_EQ(fd.severity, verify::Severity::kError);
    severity_checked = true;
  }
  EXPECT_TRUE(severity_checked);
}

TEST(DeadlockVerifyTest, RendezvousExchangeNamesItsWaitCycle) {
  // 128 KiB payloads sit above MiniMPI's 64 KiB eager threshold, so the
  // blocking Send really waits for its receiver.
  constexpr Bytes kPayload = 131072;

  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    std::vector<char> data(static_cast<std::size_t>(kPayload));
    const int partner = comm.rank() ^ 1;
    comm.Send(data.data(), kPayload, partner, 5);
    comm.Recv(data.data(), kPayload, partner, 5);
  });
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().ToString().find("wait-for cycle:"), kNpos);
  EXPECT_EQ(f.hub().CountCode("sim-deadlock"), 1u);
}

TEST(DeadlockVerifyTest, SendrecvExchangeIsCleanBothWays) {
  constexpr Bytes kPayload = 131072;

  // The fused form of the same exchange completes above the eager
  // threshold and each rank receives the partner's payload.
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    const int partner = comm.rank() ^ 1;
    std::vector<char> out(static_cast<std::size_t>(kPayload),
                          static_cast<char>('a' + comm.rank()));
    std::vector<char> in(static_cast<std::size_t>(kPayload), '?');
    const Bytes got = comm.Sendrecv(out.data(), kPayload, partner,
                                    in.data(), kPayload, partner, 5);
    EXPECT_EQ(got, kPayload);
    EXPECT_EQ(in.front(), static_cast<char>('a' + partner));
    EXPECT_EQ(in.back(), static_cast<char>('a' + partner));
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().CountCode("sim-deadlock"), 0u);
}

// ===========================================================================
// SHMEM synchronization checker on live MiniSHMEM jobs
// ===========================================================================

struct ShmemFixture {
  explicit ShmemFixture(std::size_t nodes = 2) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes));
    engine.verify().Enable();
  }
  verify::Hub& hub() { return engine.verify(); }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
};

TEST(ShmemVerifyTest, ConcurrentPutsToSameSlotRace) {
  ShmemFixture f;
  shmem::ShmemWorld world(*f.cluster, 4, 2);
  auto t = world.RunSpmd([&](shmem::Pe& pe) {
    auto slot = pe.Malloc<std::int64_t>(1);
    *pe.Local(slot) = 0;
    pe.BarrierAll();
    // PEs 0 and 1 both write PE 3's slot with nothing ordering them.
    if (pe.my_pe() == 0) pe.PutValue<std::int64_t>(slot, 7, /*target_pe=*/3);
    if (pe.my_pe() == 1) pe.PutValue<std::int64_t>(slot, 9, /*target_pe=*/3);
    pe.BarrierAll();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_GE(f.hub().CountCode("shmem-race"), 1u);
  bool described = false;
  for (const verify::Finding& fd : f.hub().findings()) {
    if (fd.code != "shmem-race") continue;
    EXPECT_NE(fd.message.find("data race on PE 3"), kNpos);
    described = true;
  }
  EXPECT_TRUE(described);
}

TEST(ShmemVerifyTest, BarrierSeparatedPutsAreClean) {
  ShmemFixture f;
  shmem::ShmemWorld world(*f.cluster, 4, 2);
  auto t = world.RunSpmd([&](shmem::Pe& pe) {
    auto slot = pe.Malloc<std::int64_t>(1);
    *pe.Local(slot) = 0;
    pe.BarrierAll();
    if (pe.my_pe() == 0) pe.PutValue<std::int64_t>(slot, 7, /*target_pe=*/3);
    pe.BarrierAll();  // orders the two writes
    if (pe.my_pe() == 1) pe.PutValue<std::int64_t>(slot, 9, /*target_pe=*/3);
    pe.BarrierAll();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().findings().size(), 0u);
}

TEST(ShmemVerifyTest, AtomicsDoNotRaceWithEachOther) {
  ShmemFixture f;
  shmem::ShmemWorld world(*f.cluster, 4, 2);
  std::int64_t total = -1;
  auto t = world.RunSpmd([&](shmem::Pe& pe) {
    auto counter = pe.Malloc<std::int64_t>(1);
    *pe.Local(counter) = 0;
    pe.BarrierAll();
    pe.AtomicFetchAdd(counter, 1, /*target_pe=*/0);  // all PEs, same word
    pe.BarrierAll();
    if (pe.my_pe() == 0) total = *pe.Local(counter);
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(total, 4);
  EXPECT_EQ(f.hub().findings().size(), 0u);
}

TEST(ShmemVerifyTest, WaitUntilOrdersProducerConsumer) {
  // Producer-consumer through a flag: without the wait_until edge the
  // consumer's write to `data` would race the producer's.
  ShmemFixture f;
  shmem::ShmemWorld world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](shmem::Pe& pe) {
    auto data = pe.Malloc<std::int64_t>(1);
    auto flag = pe.Malloc<std::int64_t>(1);
    *pe.Local(data) = 0;
    *pe.Local(flag) = 0;
    pe.BarrierAll();
    if (pe.my_pe() == 0) {
      pe.PutValue<std::int64_t>(data, 42, /*target_pe=*/1);
      pe.Fence();  // data lands before the flag
      pe.PutValue<std::int64_t>(flag, 1, /*target_pe=*/1);
    } else {
      pe.WaitUntil(flag, shmem::Cmp::kGe, 1);
      EXPECT_EQ(*pe.Local(data), 42);
      pe.PutValue<std::int64_t>(data, 43, /*target_pe=*/1);  // ordered
    }
    pe.BarrierAll();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().CountCode("shmem-race"), 0u);
}

TEST(ShmemVerifyTest, UnsynchronizedOverwriteAfterPutRaces) {
  // Same shape as above but the consumer skips the wait: race.
  ShmemFixture f;
  shmem::ShmemWorld world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](shmem::Pe& pe) {
    auto data = pe.Malloc<std::int64_t>(1);
    *pe.Local(data) = 0;
    pe.BarrierAll();
    if (pe.my_pe() == 0) {
      pe.PutValue<std::int64_t>(data, 42, /*target_pe=*/1);
    } else {
      pe.PutValue<std::int64_t>(data, 43, /*target_pe=*/1);
    }
    pe.BarrierAll();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_GE(f.hub().CountCode("shmem-race"), 1u);
}

// ===========================================================================
// Spark checker on live MiniSpark jobs
// ===========================================================================

struct SparkFixture {
  explicit SparkFixture(std::size_t nodes = 2) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes));
    spark::SparkOptions options;
    options.app_startup = Millis(100);
    options.executors_per_node = 2;
    mini = std::make_unique<spark::MiniSpark>(*cluster, nullptr, options);
    engine.verify().Enable();
  }
  verify::Hub& hub() { return engine.verify(); }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<spark::MiniSpark> mini;
};

TEST(SparkVerifyTest, UnpersistedIterativeReuseWarnsRecomputeStorm) {
  SparkFixture f;
  auto result = f.mini->RunApp([&](spark::SparkContext& sc) {
    std::vector<std::int64_t> data(200);
    for (int i = 0; i < 200; ++i) data[i] = i;
    auto doubled = sc.Parallelize(std::move(data), 4)
                       .Map<std::int64_t>([](const std::int64_t& x) {
                         return x * 2;
                       });
    for (int iter = 0; iter < 3; ++iter) {
      auto n = doubled.Count();  // recomputes the map every iteration
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(n.value(), 200);
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(f.hub().CountCode("spark-recompute-storm"), 1u);
  EXPECT_EQ(f.hub().error_count(), 0u);  // a warning, not an error
}

TEST(SparkVerifyTest, PersistSilencesRecomputeStorm) {
  SparkFixture f;
  auto result = f.mini->RunApp([&](spark::SparkContext& sc) {
    std::vector<std::int64_t> data(200);
    for (int i = 0; i < 200; ++i) data[i] = i;
    auto doubled = sc.Parallelize(std::move(data), 4)
                       .Map<std::int64_t>([](const std::int64_t& x) {
                         return x * 2;
                       });
    doubled.Cache();
    for (int iter = 0; iter < 3; ++iter) {
      auto n = doubled.Count();
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(n.value(), 200);
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(f.hub().CountCode("spark-recompute-storm"), 0u);
}

// ===========================================================================
// Zero-false-positive sweeps: clean idiomatic jobs stay clean
// ===========================================================================

TEST(VerifyCleanSweepTest, CleanMpiJobHasNoFindings) {
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    const std::vector<double> one{1.0};
    std::vector<double> sum(1);
    comm.Allreduce<double>(one, sum);
    EXPECT_DOUBLE_EQ(sum[0], 4.0);

    double root_val = comm.rank() == 0 ? 3.25 : 0.0;
    comm.Bcast(&root_val, sizeof(root_val), /*root=*/0);
    EXPECT_DOUBLE_EQ(root_val, 3.25);

    comm.Barrier();

    // Ring shift with a nonblocking send: matched, leak-free.
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    int token = comm.rank();
    mpi::Request s = comm.Isend(&token, sizeof(token), right, /*tag=*/11);
    int got = -1;
    comm.Recv(&got, sizeof(got), left, /*tag=*/11);
    comm.Wait(s);
    EXPECT_EQ(got, left);

    // A split communicator, used and freed before finalize.
    auto sub = comm.Split(comm.rank() % 2, comm.rank());
    sub->Barrier();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().findings().size(), 0u) << f.hub().RenderReport();
}

TEST(VerifyCleanSweepTest, CleanShmemJobHasNoFindings) {
  ShmemFixture f;
  shmem::ShmemWorld world(*f.cluster, 4, 2);
  auto t = world.RunSpmd([&](shmem::Pe& pe) {
    auto slot = pe.Malloc<std::int64_t>(1);
    auto counter = pe.Malloc<std::int64_t>(1);
    *pe.Local(slot) = 0;
    *pe.Local(counter) = 0;
    pe.BarrierAll();
    const int right = (pe.my_pe() + 1) % pe.n_pes();
    pe.PutValue<std::int64_t>(slot, pe.my_pe(), right);
    pe.BarrierAll();
    const std::int64_t neighbor = pe.GetValue<std::int64_t>(slot, right);
    EXPECT_EQ(neighbor, (right + pe.n_pes() - 1) % pe.n_pes());
    pe.AtomicFetchAdd(counter, 1, /*target_pe=*/0);
    pe.BarrierAll();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().findings().size(), 0u) << f.hub().RenderReport();
}

TEST(VerifyCleanSweepTest, CleanSparkJobHasNoErrors) {
  SparkFixture f;
  auto result = f.mini->RunApp([&](spark::SparkContext& sc) {
    std::vector<std::pair<std::int64_t, std::int64_t>> data;
    for (std::int64_t i = 0; i < 500; ++i) data.emplace_back(i % 10, 1);
    auto counts = sc.Parallelize(std::move(data), 4)
                      .AsPairs<std::int64_t, std::int64_t>()
                      .ReduceByKey([](std::int64_t a, std::int64_t b) {
                        return a + b;
                      });
    auto n = counts.Count();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 10);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(f.hub().findings().size(), 0u) << f.hub().RenderReport();
}

// ===========================================================================
// Per-job scope: jobs sharing one engine (as under pstk::sched) are checked
// apart, though each numbers its ranks, PEs, communicators and RDDs from 0
// ===========================================================================

TEST(VerifyJobScopeTest, TwoMpiWorldsOnOneEngineAreCheckedApart) {
  MpiFixture f;
  // Both world communicators are comm 0 and both first collectives are #0,
  // but one job's barrier and the other's allreduce never meet.
  mpi::World barrier_job(*f.cluster, 4, 2);
  mpi::World allreduce_job(*f.cluster, 4, 2);
  barrier_job.SpawnRanks([](mpi::Comm& comm) { comm.Barrier(); });
  allreduce_job.SpawnRanks([](mpi::Comm& comm) {
    const std::vector<double> one{1.0};
    std::vector<double> sum(1);
    comm.Allreduce<double>(one, sum);
  });
  const sim::RunResult run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(f.hub().findings().size(), 0u) << f.hub().RenderReport();
}

TEST(VerifyJobScopeTest, TwoSplitsOfOneCommAreCheckedApart) {
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto t = world.RunSpmd([](mpi::Comm& comm) {
    // Two same-color splits share collective tags (both are comm 1 there),
    // yet they are different communicators.
    comm.Split(/*color=*/0, comm.rank())->Barrier();
    const std::vector<double> one{1.0};
    std::vector<double> sum(1);
    comm.Split(/*color=*/0, comm.rank())->Allreduce<double>(one, sum);
    EXPECT_DOUBLE_EQ(sum[0], 4.0);
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(f.hub().findings().size(), 0u) << f.hub().RenderReport();
}

TEST(VerifyJobScopeTest, TwoShmemJobsOnOneEngineAreCheckedApart) {
  ShmemFixture f;
  // Both jobs gather one value per PE into PE 1's two-slot array, job A in
  // PE order and job B in reverse: PE 0 of one job and PE 1 of the other
  // write the same offset, but of two different heaps.
  auto gather = [](bool reversed) {
    return [reversed](shmem::Pe& pe) {
      auto slots = pe.Malloc<std::int64_t>(2);
      const int slot = reversed ? 1 - pe.my_pe() : pe.my_pe();
      pe.PutValue<std::int64_t>(slots.at(static_cast<std::size_t>(slot)),
                                pe.my_pe(), /*target_pe=*/1);
    };
  };
  shmem::ShmemWorld job_a(*f.cluster, 2, 1);
  shmem::ShmemWorld job_b(*f.cluster, 2, 1);
  job_a.SpawnPes(gather(false));
  job_b.SpawnPes(gather(true));
  const sim::RunResult run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(f.hub().findings().size(), 0u) << f.hub().RenderReport();
}

TEST(VerifyJobScopeTest, TwoSparkAppsOnOneEngineAreCheckedApart) {
  SparkFixture f;
  spark::SparkOptions options;
  options.app_startup = Millis(100);
  options.executors_per_node = 2;
  spark::MiniSpark second(*f.cluster, nullptr, options);
  // RDD 0 in each app: every partition is materialized once per app.
  auto count_once = [](spark::SparkContext& sc) {
    auto n = sc.Parallelize(std::vector<std::int64_t>(200, 1), 4).Count();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 200);
  };
  for (spark::MiniSpark* app : {f.mini.get(), &second}) {
    auto result = app->RunApp(count_once);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(f.hub().findings().size(), 0u) << f.hub().RenderReport();
}

// ===========================================================================
// Paradigm pitfalls caught at run time
//
// Each case runs one pitfall shape, or the clean shape beside it, under
// verification and asserts the run-time check that catches it: the
// engine's deadlock explainer (`sim-deadlock`) for hangs, and the
// `mpi-collective-mismatch`, `mpi-io-count-overflow`,
// `spark-recompute-storm` and ckpt-consistency checks. The project once
// also flagged these shapes statically; the suites keep those tests' names
// (DeadlockSimTest, LintRuleTest, LintTest), so each shape can be followed
// from its static rule to the run-time check that replaced it.
// ===========================================================================

// 128 KiB sits above MiniMPI's 64 KiB eager threshold: a blocking Send of
// it waits for its receiver.
constexpr Bytes kRendezvous = 131072;

int Occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (auto at = text.find(needle); at != kNpos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// A run that must hang fails with the deadlock explainer's report, which
// the hub also holds as one `sim-deadlock` finding. Returns the report.
std::string HangReport(const Result<SimTime>& run, const verify::Hub& hub) {
  EXPECT_FALSE(run.ok()) << "the run was expected to deadlock";
  EXPECT_EQ(hub.CountCode("sim-deadlock"), 1u) << hub.RenderReport();
  return run.ok() ? std::string() : run.status().ToString();
}

// A run that must finish with no finding at all.
void ExpectClean(const Result<SimTime>& run, const verify::Hub& hub) {
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(hub.findings().size(), 0u) << hub.RenderReport();
}

// Helpers that hide an MPI call from their callers.
void SyncAll(mpi::Comm& comm) { comm.Barrier(); }

bool HasWork(const mpi::Comm& comm) { return comm.rank() < comm.size() / 2; }

void Exchange(mpi::Comm& comm, int partner) {
  std::vector<char> buf(static_cast<std::size_t>(kRendezvous));
  comm.Send(buf.data(), kRendezvous, partner, /*tag=*/5);
  comm.Recv(buf.data(), kRendezvous, partner, /*tag=*/5);
}

void SendPayload(mpi::Comm& comm, int peer) {
  const std::vector<char> buf(static_cast<std::size_t>(kRendezvous),
                              static_cast<char>('a' + comm.rank()));
  comm.Send(buf.data(), kRendezvous, peer, /*tag=*/5);
}

Result<std::string> ReadSlice(mpi::Comm& comm, mpi::File& file,
                              std::int64_t count) {
  const Bytes offset =
      static_cast<Bytes>(comm.rank()) * static_cast<Bytes>(count);
  return file.ReadAtAll(comm, offset, count);
}

// --- wait cycles and chains ------------------------------------------------

TEST(DeadlockSimTest, HeadToHeadSendsDeadlock) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int partner = comm.rank() ^ 1;
    std::vector<char> buf(static_cast<std::size_t>(kRendezvous));
    comm.Send(buf.data(), kRendezvous, partner, /*tag=*/5);
    comm.Recv(buf.data(), kRendezvous, partner, /*tag=*/5);
  });
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("wait-for cycle:"), kNpos) << report;
  EXPECT_EQ(Occurrences(report, "waits [send-rendezvous"), 2) << report;

  // Below the eager threshold the same order drains: each Send is
  // buffered and returns before its partner posts the Recv.
  MpiFixture eager;
  mpi::World small(*eager.cluster, 2, 1);
  auto drained = small.RunSpmd([](mpi::Comm& comm) {
    const int partner = comm.rank() ^ 1;
    const std::int64_t out = comm.rank();
    std::int64_t in = -1;
    comm.Send(&out, sizeof(out), partner, /*tag=*/5);
    comm.Recv(&in, sizeof(in), partner, /*tag=*/5);
    EXPECT_EQ(in, partner);
  });
  ExpectClean(drained, eager.hub());
}

TEST(DeadlockSimTest, RingSendsDeadlockAtThreeRanks) {
  MpiFixture f(/*nodes=*/3);
  mpi::World world(*f.cluster, 3, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<char> buf(static_cast<std::size_t>(kRendezvous));
    comm.Send(buf.data(), kRendezvous, right, /*tag=*/5);
    comm.Recv(buf.data(), kRendezvous, left, /*tag=*/5);
  });
  const std::string report = HangReport(run, f.hub());
  // One cycle through all three ranks (closing on its first), not three
  // pairwise ones.
  ASSERT_EQ(Occurrences(report, "wait-for cycle:"), 1) << report;
  const std::string cycle = report.substr(report.find("wait-for cycle:"));
  EXPECT_EQ(Occurrences(cycle.substr(0, cycle.find('\n')), "mpi-rank-"), 4)
      << report;
  EXPECT_NE(report.find("blame: mpi=3"), kNpos) << report;
}

TEST(DeadlockSimTest, RecvBeforeSendIsAWaitCycleNotAllSends) {
  // Eager-sized messages: the hang comes from the receive order alone.
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int partner = comm.rank() ^ 1;
    std::int64_t value = comm.rank();
    comm.Recv(&value, sizeof(value), partner, /*tag=*/5);
    comm.Send(&value, sizeof(value), partner, /*tag=*/5);
  });
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("wait-for cycle:"), kNpos) << report;
  EXPECT_EQ(Occurrences(report, "waits [recv src="), 2) << report;
  EXPECT_EQ(report.find("send-rendezvous"), kNpos) << report;
}

TEST(DeadlockSimTest, SafeOrderingsDrain) {
  // Two deadlock-free forms of the rendezvous-sized exchange, back to
  // back: the fused Sendrecv and a nonblocking send.
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int partner = comm.rank() ^ 1;
    const std::vector<char> out(static_cast<std::size_t>(kRendezvous),
                                static_cast<char>('a' + comm.rank()));
    std::vector<char> in(static_cast<std::size_t>(kRendezvous), '?');
    comm.Sendrecv(out.data(), kRendezvous, partner, in.data(), kRendezvous,
                  partner, /*tag=*/1);
    mpi::Request send = comm.Isend(out.data(), kRendezvous, partner, 2);
    comm.Recv(in.data(), kRendezvous, partner, /*tag=*/2);
    comm.Wait(send);
    EXPECT_EQ(in.back(), static_cast<char>('a' + partner));
  });
  ExpectClean(run, f.hub());
}

TEST(DeadlockSimTest, RecvAgainstExitedPeerIsChainNotCycle) {
  // Rank 2 returns at once: the barrier of its MPI_Finalize pairs with the
  // Barrier of the other two, and it exits. Then rank 1 receives from the
  // exited rank 2, and rank 0 from the waiting rank 1.
  MpiFixture f(/*nodes=*/3);
  mpi::World world(*f.cluster, 3, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    if (comm.rank() == 2) return;
    comm.Barrier();
    std::int64_t value = 0;
    comm.Recv(&value, sizeof(value), comm.rank() + 1, /*tag=*/5);
  });
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("no wait-for cycle"), kNpos) << report;
  EXPECT_NE(report.find("-> held by mpi-rank-1"), kNpos) << report;
  EXPECT_NE(report.find("-> held by mpi-rank-2"), kNpos) << report;
  EXPECT_NE(report.find("blame: mpi=2"), kNpos) << report;
}

// --- collectives on divergent paths -----------------------------------------

TEST(LintRuleTest, CollectiveInDivergentBranchFlagged) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    if (comm.rank() == 0) comm.Barrier();
  });
  // Rank 1's MPI_Finalize pairs with rank 0's Barrier, so rank 0 then
  // waits in its own finalize for a peer that already left.
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("mpi-rank-0 (pid"), kNpos) << report;
  EXPECT_NE(report.find("blame: mpi=1"), kNpos) << report;
}

TEST(LintRuleTest, DivergentEarlyReturnBeforeCollectiveFlagged) {
  MpiFixture f(/*nodes=*/3);
  mpi::World world(*f.cluster, 3, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int me = comm.rank();
    if (me > 0) return;
    comm.Barrier();
  });
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("no wait-for cycle"), kNpos) << report;
  EXPECT_NE(report.find("blame: mpi=1"), kNpos) << report;
}

TEST(LintRuleTest, RankReturningHelperTaintsCallers) {
  // The branch condition comes from a helper, yet only half the ranks
  // enter the barrier: the other half's MPI_Finalize pairs with it, and
  // the first half then waits in its own finalize for peers that left.
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    if (HasWork(comm)) comm.Barrier();
  });
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("blame: mpi=2"), kNpos) << report;
}

TEST(LintRuleTest, UniformBranchAndStatusGuardAreClean) {
  MpiFixture f;
  StagePosts(*f.cluster, 2);
  const int iters = 2;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([&](mpi::Comm& comm) {
    if (iters > 0) comm.Barrier();  // every rank takes the same arm
    auto file = mpi::File::OpenAll(comm, "/in/posts.txt");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const Bytes offset = static_cast<Bytes>(comm.rank()) * 64;
    auto part = file->ReadAtAll(comm, offset, 64);
    if (!part.ok()) return;  // rank-dependent data, uniform outcome
    comm.Barrier();
  });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, CollectiveMismatchFlagged) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  world.SpawnRanks([](mpi::Comm& comm) {
    comm.Barrier();
    double x = 1.0;
    if (comm.rank() == 0) {
      const std::vector<double> one{x};
      std::vector<double> sum(1);
      comm.Allreduce<double>(one, sum);
    } else {
      comm.Bcast(&x, sizeof(x), /*root=*/0);
    }
  });
  (void)f.engine.Run();  // the mismatch also hangs; its finding is the point
  ASSERT_EQ(f.hub().CountCode("mpi-collective-mismatch"), 1u)
      << f.hub().RenderReport();
  for (const verify::Finding& fd : f.hub().findings()) {
    if (fd.code != "mpi-collective-mismatch") continue;
    EXPECT_NE(fd.message.find("at collective #1"), kNpos) << fd.message;
    EXPECT_NE(fd.message.find("allreduce"), kNpos) << fd.message;
    EXPECT_NE(fd.message.find("bcast"), kNpos) << fd.message;
  }
}

TEST(LintRuleTest, EquallySequencedArmsAreClean) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const std::vector<double> one{1.0};
    std::vector<double> sum(1);
    if (comm.rank() == 0) {
      comm.ctx().Compute(0.01);
      comm.Barrier();
      comm.Allreduce<double>(one, sum);
    } else {
      comm.Barrier();
      comm.ctx().Compute(0.02);
      comm.Allreduce<double>(one, sum);
    }
    EXPECT_DOUBLE_EQ(sum[0], 2.0);
  });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, CollectiveInLoopWithDivergentBoundFlagged) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    for (int i = 0; i <= comm.rank(); ++i) comm.Barrier();
  });
  // Rank 0's MPI_Finalize pairs with rank 1's second Barrier, so rank 1's
  // own finalize has no partner left.
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("mpi-rank-1 (pid"), kNpos) << report;
  EXPECT_NE(report.find("blame: mpi=1"), kNpos) << report;
}

TEST(LintRuleTest, CollectiveInUniformLoopIsClean) {
  MpiFixture f;
  const int iters = 3;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([&](mpi::Comm& comm) {
    const std::vector<double> one{1.0};
    std::vector<double> sum(1);
    double total = 0.0;
    for (int i = 0; i < iters; ++i) {
      comm.Allreduce<double>(one, sum);
      total += sum[0];
    }
    EXPECT_DOUBLE_EQ(total, 6.0);
  });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, WrapperHiddenCollectiveInDivergentBranchFlagged) {
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    if (comm.rank() % 2 == 0) SyncAll(comm);
  });
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("blame: mpi=2"), kNpos) << report;
}

TEST(LintRuleTest, WrapperCalledUniformlyIsClean) {
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto run = world.RunSpmd([](mpi::Comm& comm) { SyncAll(comm); });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, UniformPathsThroughDivergentBranchesAreClean) {
  // The arms differ, but every path makes the same collective calls.
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    if (comm.rank() % 2 == 0) {
      comm.Barrier();
      comm.ctx().Compute(0.01);
    } else {
      comm.ctx().Compute(0.02);
      comm.Barrier();
    }
    const std::vector<double> one{1.0};
    std::vector<double> sum(1);
    comm.Allreduce<double>(one, sum);
    EXPECT_DOUBLE_EQ(sum[0], 4.0);
  });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, NonUniformPathsStillFlagged) {
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  world.SpawnRanks([](mpi::Comm& comm) {
    if (comm.rank() % 2 == 0) {
      double x = 1.0;
      comm.Bcast(&x, sizeof(x), /*root=*/0);
    }
    comm.Barrier();
  });
  (void)f.engine.Run();  // the mismatch also hangs; its finding is the point
  ASSERT_GE(f.hub().CountCode("mpi-collective-mismatch"), 1u)
      << f.hub().RenderReport();
  for (const verify::Finding& fd : f.hub().findings()) {
    if (fd.code != "mpi-collective-mismatch") continue;
    EXPECT_NE(fd.message.find("at collective #0"), kNpos) << fd.message;
    EXPECT_NE(fd.message.find("bcast"), kNpos) << fd.message;
    EXPECT_NE(fd.message.find("barrier"), kNpos) << fd.message;
  }
}

// --- int counts (paper Fig. 4) ----------------------------------------------

TEST(LintRuleTest, IntCountOverflowFlagged) {
  MpiFixture f(/*nodes=*/2, /*scale=*/1e-6);
  StagePosts(*f.cluster, 2);
  std::int64_t count = 0;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([&](mpi::Comm& comm) {
    auto file = mpi::File::OpenAll(comm, "/in/posts.txt");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    count = static_cast<std::int64_t>(file->size() /
                                      static_cast<Bytes>(comm.size()));
    EXPECT_FALSE(ReadSlice(comm, *file, count).ok());
  });
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(f.hub().CountCode("mpi-io-count-overflow"), 2u)
      << f.hub().RenderReport();
  for (const verify::Finding& fd : f.hub().findings()) {
    EXPECT_EQ(fd.severity, verify::Severity::kError);
    EXPECT_NE(fd.message.find("count " + std::to_string(count)), kNpos)
        << fd.message;
  }
}

TEST(LintRuleTest, IntCountWithGuardOrNarrowSourceIsClean) {
  MpiFixture f(/*nodes=*/2, /*scale=*/1e-6);
  StagePosts(*f.cluster, 2);
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    auto file = mpi::File::OpenAll(comm, "/in/posts.txt");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const Bytes len = file->size() / static_cast<Bytes>(comm.size());
    const Bytes begin = static_cast<Bytes>(comm.rank()) * len;
    // Guarded: a chunk above INT_MAX is read in pieces the int count holds.
    constexpr Bytes kMaxCount = std::numeric_limits<std::int32_t>::max();
    ASSERT_GT(len, kMaxCount);
    for (Bytes done = 0; done < len; done += kMaxCount) {
      const Bytes piece = std::min(kMaxCount, len - done);
      auto part = file->ReadAtAll(comm, begin + done,
                                  static_cast<std::int64_t>(piece));
      ASSERT_TRUE(part.ok()) << part.status().ToString();
    }
    // Narrow source: an int-typed count never exceeds INT_MAX.
    const int lines = 4096;
    ASSERT_TRUE(file->ReadAtAll(comm, begin, lines).ok());
  });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, WrapperCountWithCallerGuardIsClean) {
  MpiFixture f(/*nodes=*/2, /*scale=*/1e-6);
  StagePosts(*f.cluster, 2);
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    auto file = mpi::File::OpenAll(comm, "/in/posts.txt");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const auto len = static_cast<std::int64_t>(
        file->size() / static_cast<Bytes>(comm.size()));
    // The caller clamps what it hands the wrapper to the int range.
    const std::int64_t count =
        std::min<std::int64_t>(len, std::numeric_limits<std::int32_t>::max());
    ASSERT_TRUE(ReadSlice(comm, *file, count).ok());
  });
  ExpectClean(run, f.hub());
}

// --- point-to-point matching ------------------------------------------------

TEST(LintRuleTest, TagMismatchFlagged) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    std::int64_t value = comm.rank();
    if (comm.rank() == 0) {
      comm.Send(&value, sizeof(value), /*dest=*/1, /*tag=*/7);
    } else {
      comm.Recv(&value, sizeof(value), /*source=*/0, /*tag=*/9);
    }
  });
  // Rank 1 waits for tag 9 while rank 0 waits for it in MPI_Finalize.
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("recv src=0 tag=9]"), kNpos) << report;
  EXPECT_NE(report.find("wait-for cycle:"), kNpos) << report;
}

TEST(LintRuleTest, MatchingOrVariableTagsAreClean) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    std::int64_t value = 42;
    if (comm.rank() == 0) {
      comm.Send(&value, sizeof(value), /*dest=*/1, /*tag=*/7);
      for (int tag = 0; tag < 3; ++tag) {
        value = tag;
        comm.Send(&value, sizeof(value), /*dest=*/1, tag);
      }
    } else {
      comm.Recv(&value, sizeof(value), /*source=*/0, /*tag=*/7);
      EXPECT_EQ(value, 42);
      for (int tag = 0; tag < 3; ++tag) {
        comm.Recv(&value, sizeof(value), /*source=*/0, tag);
        EXPECT_EQ(value, tag);
      }
    }
  });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, SymmetricSendViaDerivedPartnerFlagged) {
  // Ranks 0/2 and 1/3 pair up: two independent wait cycles.
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int partner = (comm.rank() + comm.size() / 2) % comm.size();
    std::vector<char> buf(static_cast<std::size_t>(kRendezvous));
    comm.Send(buf.data(), kRendezvous, partner, /*tag=*/0);
    comm.Recv(buf.data(), kRendezvous, partner, /*tag=*/0);
  });
  const std::string report = HangReport(run, f.hub());
  EXPECT_EQ(Occurrences(report, "wait-for cycle:"), 2) << report;
  EXPECT_NE(report.find("blame: mpi=4"), kNpos) << report;
}

TEST(LintRuleTest, WrapperHiddenSymmetricSendFlagged) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd(
      [](mpi::Comm& comm) { Exchange(comm, comm.rank() ^ 1); });
  const std::string report = HangReport(run, f.hub());
  EXPECT_NE(report.find("wait-for cycle:"), kNpos) << report;
  EXPECT_EQ(Occurrences(report, "waits [send-rendezvous"), 2) << report;
}

TEST(LintRuleTest, WrapperSendWithUniformPeerIsClean) {
  // Every rank but 0 sends to rank 0, which receives from each in turn.
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    if (comm.rank() != 0) {
      SendPayload(comm, /*peer=*/0);
      return;
    }
    std::vector<char> in(static_cast<std::size_t>(kRendezvous));
    for (int src = 1; src < comm.size(); ++src) {
      EXPECT_EQ(comm.Recv(in.data(), kRendezvous, src, /*tag=*/5),
                kRendezvous);
      EXPECT_EQ(in.front(), static_cast<char>('a' + src));
    }
  });
  ExpectClean(run, f.hub());
}

TEST(LintRuleTest, ParityStaggeredExchangeIsClean) {
  // A ring shift of rendezvous-sized messages: even ranks send first and
  // odd ranks receive first, so every Send meets a posted Recv.
  MpiFixture f;
  mpi::World world(*f.cluster, 4, 2);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    const std::vector<char> out(static_cast<std::size_t>(kRendezvous),
                                static_cast<char>('a' + comm.rank()));
    std::vector<char> in(static_cast<std::size_t>(kRendezvous));
    if (comm.rank() % 2 == 0) {
      comm.Send(out.data(), kRendezvous, right, /*tag=*/5);
      comm.Recv(in.data(), kRendezvous, left, /*tag=*/5);
    } else {
      comm.Recv(in.data(), kRendezvous, left, /*tag=*/5);
      comm.Send(out.data(), kRendezvous, right, /*tag=*/5);
    }
    EXPECT_EQ(in.front(), static_cast<char>('a' + left));
  });
  ExpectClean(run, f.hub());
}

TEST(LintTest, AsyncSymmetricSendIsClean) {
  MpiFixture f;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([](mpi::Comm& comm) {
    const int partner = comm.rank() ^ 1;
    const std::vector<char> out(static_cast<std::size_t>(kRendezvous),
                                static_cast<char>('a' + comm.rank()));
    std::vector<char> in(static_cast<std::size_t>(kRendezvous));
    mpi::Request send = comm.Isend(out.data(), kRendezvous, partner, 5);
    comm.Recv(in.data(), kRendezvous, partner, /*tag=*/5);
    comm.Wait(send);
    EXPECT_EQ(in.front(), static_cast<char>('a' + partner));
  });
  ExpectClean(run, f.hub());
}

TEST(LintTest, RenderReportCleanAndSummary) {
  MpiFixture f;
  mpi::World clean(*f.cluster, 2, 1);
  ASSERT_TRUE(clean.RunSpmd([](mpi::Comm& comm) { comm.Barrier(); }).ok());
  EXPECT_EQ(f.hub().RenderReport(), "verify: clean (0 findings)\n");

  // A 16-byte message into an 8-byte buffer: one error, named by actor.
  mpi::World truncating(*f.cluster, 2, 1);
  auto run = truncating.RunSpmd([](mpi::Comm& comm) {
    std::vector<char> buf(16, 'x');
    if (comm.rank() == 0) {
      comm.Send(buf.data(), 16, /*dest=*/1, /*tag=*/7);
    } else {
      comm.Recv(buf.data(), 8, /*source=*/0, /*tag=*/7);
    }
  });
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string report = f.hub().RenderReport();
  EXPECT_EQ(report.rfind("verify: 1 error(s), 0 warning(s)\n", 0), 0u)
      << report;
  EXPECT_NE(report.find("[ERROR] mpi-usage/mpi-truncation (rank 1)"), kNpos)
      << report;
}

// --- Spark persistence and checkpoint boundaries ----------------------------

TEST(LintRuleTest, SparkMultipleActionsWithoutPersistFlagged) {
  SparkFixture f;
  auto result = f.mini->RunApp([](spark::SparkContext& sc) {
    std::vector<std::int64_t> data(200, 1);
    auto doubled = sc.Parallelize(std::move(data), 4)
                       .Map<std::int64_t>([](const std::int64_t& x) {
                         return 2 * x;
                       });
    auto first = doubled.Count();
    auto second = doubled.Reduce(
        [](const std::int64_t& a, const std::int64_t& b) { return a + b; });
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(second.value(), 400);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(f.hub().CountCode("spark-recompute-storm"), 1u);
  EXPECT_EQ(f.hub().error_count(), 0u) << f.hub().RenderReport();
}

TEST(LintTest, UnpersistedRddReusedInLoopFlagged) {
  SparkFixture f;
  auto result = f.mini->RunApp([](spark::SparkContext& sc) {
    std::vector<std::int64_t> data(200);
    for (int i = 0; i < 200; ++i) data[i] = i;
    auto even = sc.Parallelize(std::move(data), 4)
                    .Filter([](const std::int64_t& x) { return x % 2 == 0; });
    for (int iter = 0; iter < 3; ++iter) {
      auto rows = even.Collect();
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows.value().size(), 100u);
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(f.hub().CountCode("spark-recompute-storm"), 1u);
  EXPECT_NE(f.hub().findings().front().message.find("materialized 2 times"),
            kNpos)
      << f.hub().RenderReport();
}

TEST(LintTest, PersistedRddInLoopIsClean) {
  SparkFixture f;
  auto result = f.mini->RunApp([](spark::SparkContext& sc) {
    std::vector<std::int64_t> data(200);
    for (int i = 0; i < 200; ++i) data[i] = i;
    auto even = sc.Parallelize(std::move(data), 4)
                    .Filter([](const std::int64_t& x) { return x % 2 == 0; });
    even.Persist();
    for (int iter = 0; iter < 3; ++iter) {
      auto rows = even.Collect();
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows.value().size(), 100u);
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(f.hub().CountCode("spark-recompute-storm"), 0u)
      << f.hub().RenderReport();
}

TEST(LintRuleTest, CkptAtUniformBoundaryIsClean) {
  // Every rank checkpoints right after the same collective, so each epoch
  // commits with all its fragments.
  MpiFixture f;
  ckpt::SnapshotStore store(2);
  ckpt::CkptPolicy policy;
  policy.interval = 1e-9;  // every boundary is due
  policy.target_disk = ckpt::Target::kNfs;
  ckpt::CheckpointCoordinator coord(*f.cluster, store, policy);
  const int iters = 3;
  mpi::World world(*f.cluster, 2, 1);
  auto run = world.RunSpmd([&](mpi::Comm& comm) {
    const int rank = comm.rank();
    const std::vector<double> one{1.0};
    std::vector<double> sum(1);
    for (int i = 0; i < iters; ++i) {
      comm.Allreduce<double>(one, sum);
      serde::Writer w;
      w.WriteRaw<std::int32_t>(i);
      coord.Checkpoint(comm.ctx(), rank, /*node=*/rank, i, w.TakeBuffer());
    }
  });
  ExpectClean(run, f.hub());
  EXPECT_EQ(coord.commits(), iters - 1);  // the first boundary anchors
}

}  // namespace
}  // namespace pstk
