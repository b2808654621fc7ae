// Tests for the runtime-verification framework (src/verify) and the
// pstk-lint static scanner (src/analysis/lint.h).
//
// Each checker gets at least one seeded-violation test (the checker must
// fire) and the suite ends with zero-false-positive sweeps: idiomatic
// clean jobs on every framework must produce no findings at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.h"
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

// The paper's Fig. 4 failure: MPI_File_read_at_all takes its count as a C
// int, so a per-rank chunk above INT_MAX bytes cannot be read. The job
// must fail symmetrically (no deadlock) with a structured diagnostic.
TEST(MpiVerifyTest, Fig4IoCountOverflowDiagnosed) {
  // data_scale 1e-6: an 8 KB staged file models an 8 GB logical input, so
  // each of 2 ranks owns a ~4 GB chunk — above INT_MAX.
  MpiFixture f(/*nodes=*/2, /*scale=*/1e-6);
  std::string content;
  for (int i = 0; i < 200; ++i) {
    content += "line " + std::to_string(i) + std::string(32, 'x') + "\n";
  }
  f.cluster->scratch(0).Install("/in/posts.txt", content);
  f.cluster->scratch(1).Install("/in/posts.txt", content);

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

// The static detector (pstk-lint's mpi-rendezvous-deadlock) is the
// lint-time mirror of this explainer: one exchange, caught both ways.
TEST(DeadlockVerifyTest, StaticDetectorMirrorsRuntimeExplainer) {
  // 128 KiB payloads sit above MiniMPI's 64 KiB eager threshold, so the
  // blocking Send really waits for its receiver.
  constexpr Bytes kPayload = 131072;

  // Static side: the same exchange as source text.
  const auto findings = analysis::LintSource("exchange.cc", R"cc(
void exchange(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  comm.Send(data.data(), 131072, partner, 5);
  comm.Recv(data.data(), 131072, partner, 5);
}
)cc");
  const auto count = [&](const char* rule) {
    std::size_t n = 0;
    for (const auto& f : findings) n += f.rule == rule ? 1u : 0u;
    return n;
  };
  EXPECT_EQ(count("mpi-rendezvous-deadlock"), 1u)
      << analysis::RenderLintReport(findings);

  // Runtime side: the exact exchange hangs and the explainer names it.
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

  // Static side: the fused form produces no deadlock findings.
  const auto findings = analysis::LintSource("exchange.cc", R"cc(
void exchange(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  comm.Sendrecv(out.data(), 131072, partner, in.data(), 131072, partner, 5);
}
)cc");
  for (const auto& fd : findings) {
    EXPECT_NE(fd.rule, "mpi-rendezvous-deadlock") << fd.message;
    EXPECT_NE(fd.rule, "mpi-wait-cycle") << fd.message;
  }

  // Runtime side: the same exchange completes above the eager threshold
  // and each rank receives the partner's payload.
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
// pstk-lint static scanner
// ===========================================================================

TEST(LintTest, BlockingSymmetricSendFlagged) {
  const std::string src = R"(
void Exchange(Comm& comm, int rank, int size, std::vector<char>& buf) {
  comm.Send(buf.data(), buf.size(), (rank + 1) % size, 0);
  comm.Recv(buf.data(), buf.size(), (rank - 1 + size) % size, 0);
}
)";
  auto findings = analysis::LintSource("exchange.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "mpi-blocking-symmetric-send");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintTest, AsyncSymmetricSendIsClean) {
  const std::string src = R"(
void Exchange(Comm& comm, int rank, int size, std::vector<char>& buf) {
  auto req = comm.Isend(buf.data(), buf.size(), (rank + 1) % size, 0);
  comm.Recv(buf.data(), buf.size(), (rank - 1 + size) % size, 0);
  comm.Wait(req);
}
)";
  EXPECT_TRUE(analysis::LintSource("exchange.cc", src).empty());
}

TEST(LintTest, UnpersistedRddReusedInLoopFlagged) {
  const std::string src = R"(
void Iterate(SparkContext& sc) {
  auto doubled = sc.Parallelize(MakeData(), 8);
  for (int iter = 0; iter < 10; ++iter) {
    auto n = doubled.Count();
  }
}
)";
  auto findings = analysis::LintSource("iterate.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "spark-missing-persist");
  EXPECT_NE(findings[0].message.find("'doubled'"), kNpos);
}

TEST(LintTest, PersistedRddInLoopIsClean) {
  const std::string src = R"(
void Iterate(SparkContext& sc) {
  auto doubled = sc.Parallelize(MakeData(), 8);
  doubled.Cache();
  for (int iter = 0; iter < 10; ++iter) {
    auto n = doubled.Count();
  }
}
)";
  EXPECT_TRUE(analysis::LintSource("iterate.cc", src).empty());
}

TEST(LintTest, OmpSharedAccumulationFlagged) {
  const std::string src = R"(
double Sum(const std::vector<double>& xs) {
  double total = 0;
  #pragma omp parallel for
  for (std::size_t i = 0; i < xs.size(); ++i) {
    total += xs[i];
  }
  return total;
}
)";
  auto findings = analysis::LintSource("sum.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "omp-shared-reduction");
}

TEST(LintTest, OmpReductionClauseIsClean) {
  const std::string src = R"(
double Sum(const std::vector<double>& xs) {
  double total = 0;
  #pragma omp parallel for reduction(+ : total)
  for (std::size_t i = 0; i < xs.size(); ++i) {
    total += xs[i];
  }
  return total;
}
)";
  EXPECT_TRUE(analysis::LintSource("sum.cc", src).empty());
}

TEST(LintTest, CommentsDoNotTriggerRules) {
  const std::string src = R"(
// comm.Send(buf.data(), buf.size(), (rank + 1) % size, 0);
/* #pragma omp parallel for
   total += xs[i]; */
int main() { return 0; }
)";
  EXPECT_TRUE(analysis::LintSource("commented.cc", src).empty());
}

TEST(LintTest, RenderReportCleanAndSummary) {
  EXPECT_EQ(analysis::RenderLintReport({}), "pstk-lint: clean (0 findings)\n");
  std::vector<analysis::LintFinding> findings{
      {"omp-shared-reduction", "a.cc", 4, "race",
       analysis::Severity::kWarning, "", {}, ""},
      {"omp-shared-reduction", "b.cc", 9, "race",
       analysis::Severity::kWarning, "", {}, ""},
  };
  const std::string report = analysis::RenderLintReport(findings);
  EXPECT_NE(report.find("2 finding(s)"), kNpos);
  EXPECT_NE(report.find("a.cc:4"), kNpos);
  EXPECT_NE(report.find("omp-shared-reduction: 2"), kNpos);
}

// The acceptance sweep behind the `pstk-lint-run` target: scanning the
// repo's examples/ and bench/ must succeed and render a report. The
// shipped sources are kept free of the misuse patterns except for the
// intentional pitfalls documented in lint-baseline.txt — if a finding
// ever appears here, fix the source, the heuristic, or the baseline,
// whichever is wrong.
TEST(LintTest, RepoExamplesAndBenchScanClean) {
  const std::string root = PSTK_REPO_ROOT;
  auto findings =
      analysis::LintTree({root + "/examples", root + "/bench"});
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  auto baseline = analysis::LoadBaseline(root + "/lint-baseline.txt");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  int suppressed = 0;
  auto kept = analysis::ApplyBaseline(std::move(findings.value()),
                                      baseline.value(), &suppressed);
  EXPECT_EQ(kept.size(), 0u) << analysis::RenderLintReport(kept);
  // The baseline documents real, intentional pitfalls; if it stops
  // matching anything the entries (or the rules) have rotted.
  EXPECT_GT(suppressed, 0);
}

TEST(LintTest, MissingRootIsAnError) {
  auto findings = analysis::LintTree({"/nonexistent-lint-root"});
  EXPECT_FALSE(findings.ok());
}

}  // namespace
}  // namespace pstk
