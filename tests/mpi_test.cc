#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mpi/mpi.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "verify/verify.h"

namespace pstk::mpi {
namespace {

struct MpiFixture {
  explicit MpiFixture(std::size_t nodes = 4, double scale = 1.0) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes), scale);
  }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
};

TEST(MpiTest, RanksSeeCorrectRankAndSize) {
  MpiFixture f;
  World world(*f.cluster, 8, 2);
  std::vector<int> seen(8, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    seen[comm.rank()] = comm.rank();
    // Block placement: 2 ranks per node.
    EXPECT_EQ(comm.node(), comm.rank() / 2);
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(seen[r], r);
}

TEST(MpiTest, SendRecvTyped) {
  MpiFixture f;
  World world(*f.cluster, 2, 1);
  std::vector<double> received(4);
  auto t = world.RunSpmd([&](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
      comm.Send<double>(data, /*dest=*/1, /*tag=*/5);
    } else {
      const auto n = comm.Recv<double>(received, /*source=*/0, /*tag=*/5);
      EXPECT_EQ(n, 4u);
    }
  });
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(received[3], 4.0);
}

TEST(MpiTest, IsendIrecvWaitall) {
  MpiFixture f;
  World world(*f.cluster, 2, 1);
  int got_a = 0;
  int got_b = 0;
  auto t = world.RunSpmd([&](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 11;
      int b = 22;
      Request r1 = comm.Isend(&a, sizeof(a), 1, 1);
      Request r2 = comm.Isend(&b, sizeof(b), 1, 2);
      std::vector<Request> reqs{r1, r2};
      comm.Waitall(reqs);
    } else {
      Request r1 = comm.Irecv(&got_a, sizeof(got_a), 0, 1);
      Request r2 = comm.Irecv(&got_b, sizeof(got_b), 0, 2);
      comm.Wait(r2);
      comm.Wait(r1);
    }
  });
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(got_a, 11);
  EXPECT_EQ(got_b, 22);
}

TEST(MpiTest, BarrierSynchronizes) {
  MpiFixture f;
  World world(*f.cluster, 6, 2);
  std::vector<SimTime> after(6);
  auto t = world.RunSpmd([&](Comm& comm) {
    // Rank r works r*10ms before the barrier.
    comm.ctx().Compute(0.01 * comm.rank());
    comm.Barrier();
    after[comm.rank()] = comm.ctx().now();
  });
  ASSERT_TRUE(t.ok());
  // Everyone leaves the barrier at (or after) the slowest rank's entry.
  for (int r = 0; r < 6; ++r) EXPECT_GE(after[r], 0.05);
}

class BcastSweep : public ::testing::TestWithParam<int> {};

TEST_P(BcastSweep, AllRanksReceiveRootValue) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 4);
  std::vector<std::uint64_t> got(nranks, 0);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::uint64_t value = comm.rank() == 2 % comm.size() ? 777u : 0u;
    comm.Bcast(&value, sizeof(value), 2 % comm.size());
    got[comm.rank()] = value;
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(got[r], 777u) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, BcastSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 32));

class ReduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReduceSweep, SumReachesRoot) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 8);
  std::vector<std::int64_t> result(3, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    // data[i] = rank + i; sum over ranks = n*(n-1)/2 + n*i.
    std::vector<std::int64_t> data{comm.rank() + 0, comm.rank() + 1,
                                   comm.rank() + 2};
    std::vector<std::int64_t> out(3);
    comm.Reduce<std::int64_t>(data, out, /*root=*/0);
    if (comm.rank() == 0) result = out;
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const std::int64_t n = nranks;
  const std::int64_t base = n * (n - 1) / 2;
  EXPECT_EQ(result[0], base);
  EXPECT_EQ(result[1], base + n);
  EXPECT_EQ(result[2], base + 2 * n);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReduceSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 64));

class AllreduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceSweep, EveryRankGetsTheSum) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 8);
  std::vector<std::int64_t> results(nranks, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<std::int64_t> data{1};
    std::vector<std::int64_t> out(1);
    comm.Allreduce<std::int64_t>(data, out);
    results[comm.rank()] = out[0];
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(results[r], nranks);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 7, 8, 12, 16, 31,
                                           32, 64));

TEST(MpiTest, AllreduceMaxOperator) {
  MpiFixture f;
  World world(*f.cluster, 5, 2);
  std::vector<std::int64_t> results(5, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<std::int64_t> data{(comm.rank() * 7) % 5};
    std::vector<std::int64_t> out(1);
    comm.Allreduce<std::int64_t, OpMax<std::int64_t>>(data, out);
    results[comm.rank()] = out[0];
  });
  ASSERT_TRUE(t.ok());
  for (int r = 0; r < 5; ++r) EXPECT_EQ(results[r], 4);
}

// A serial model of Allreduce's recursive-doubling tree: fold the surplus
// pairs, then run the hops, the lower-rank subtree first at every node.
template <typename T, typename Op>
std::vector<T> AllreduceTreeModel(const std::vector<std::vector<T>>& inputs,
                                  Op op) {
  const int n = static_cast<int>(inputs.size());
  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;
  auto combine = [&](std::vector<T> low, const std::vector<T>& high) {
    for (std::size_t i = 0; i < low.size(); ++i) low[i] = op(low[i], high[i]);
    return low;
  };
  std::vector<std::vector<T>> held(static_cast<std::size_t>(pof2));
  for (int nr = 0; nr < pof2; ++nr) {
    held[nr] = nr < rem ? combine(inputs[2 * nr], inputs[2 * nr + 1])
                        : inputs[nr + rem];
  }
  for (int mask = 1; mask < pof2; mask <<= 1) {
    for (int nr = 0; nr < pof2; nr += 2 * mask) {
      held[nr] = combine(held[nr], held[nr + mask]);
    }
  }
  return held[0];
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

// Sums that depend on association order: a 1 vanishes next to ±1e16
// unless it first meets another small term.
std::vector<double> OrderSensitiveDoubles(int rank) {
  constexpr double kTerms[] = {1e16, 1.0, -1e16, 1.0, 3.0, -1e16, 1e16};
  std::vector<double> values;
  for (int i = 0; i < 5; ++i) values.push_back(kTerms[(rank * 3 + i) % 7]);
  return values;
}

std::vector<std::int64_t> MixedInts(int rank) {
  return {(rank * 7) % 11 - 5, (rank * 5) % 13, -rank, rank % 3};
}

// Each rank's clock after the three calls below, pinned from the
// implementation that sent every hop's data as the message payload: the
// shared tree must not move virtual time.
const std::map<int, std::vector<double>>& PinnedAllreduceClocks() {
  static const std::map<int, std::vector<double>> clocks = {
      {1, {0.80000000000000004}},
      {2, {0.80000211332499993, 0.80000211332499993}},
      {3, {0.80000573964999966, 0.8000052396499997, 0.8000052356499997}},
      {5,
       {0.80001054215740686, 0.8000100421574069, 0.80001033492314755,
        0.80000963815740689, 0.80001054228240687}},
      {6,
       {0.80001054215740686, 0.8000100421574069, 0.80001054808333283,
        0.80001004808333287, 0.80001054228240687, 0.80001054820833284}},
      {7,
       {0.80001245538240673, 0.80001195538240677, 0.80001265538240673,
        0.80001215538240678, 0.80001265538240673, 0.80001215538240678,
        0.80001175138240677}},
      {8,
       {0.80001054238240688, 0.80001054830833285, 0.80001055423425882,
        0.80001056016018479, 0.80001054238240688, 0.80001054830833285,
        0.80001055423425882, 0.80001056016018479}},
      {12,
       {0.80001466108888797, 0.80001416108888801, 0.80001467057036935,
        0.80001417057036939, 0.80001466245925856, 0.8000141624592586,
        0.80001467431111051, 0.80001417431111055, 0.8000154572740733,
        0.80001546912592525, 0.80001546319999928, 0.80001547505185122}},
      {13,
       {0.80001805881573984, 0.80001755881573988, 0.80001965955648047,
        0.80001915955648051, 0.80001785881573984, 0.80001735881573988,
        0.80001897111481379, 0.80001847111481383, 0.80001897342222117,
        0.80001847342222121, 0.80001806711481382, 0.80001826468148052,
        0.80001806468148051}},
  };
  return clocks;
}

class AllreduceTree : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceTree, EveryRankGetsTheTreeResultBitForBit) {
  const int nranks = GetParam();
  MpiFixture f(4);
  World world(*f.cluster, nranks, 4);
  std::vector<std::vector<double>> sums(nranks);
  std::vector<std::vector<std::int64_t>> maxes(nranks);
  std::vector<std::vector<std::int64_t>> mins(nranks);
  std::vector<double> clocks(nranks, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    const int r = comm.rank();
    const std::vector<double> doubles = OrderSensitiveDoubles(r);
    const std::vector<std::int64_t> ints = MixedInts(r);
    sums[r].resize(doubles.size());
    maxes[r].resize(ints.size());
    mins[r].resize(ints.size());
    comm.Allreduce<double>(doubles, sums[r]);
    comm.Allreduce<std::int64_t, OpMax<std::int64_t>>(ints, maxes[r]);
    comm.Allreduce<std::int64_t, OpMin<std::int64_t>>(ints, mins[r]);
    clocks[r] = comm.ctx().now();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  std::vector<std::vector<double>> double_inputs;
  std::vector<std::vector<std::int64_t>> int_inputs;
  for (int r = 0; r < nranks; ++r) {
    double_inputs.push_back(OrderSensitiveDoubles(r));
    int_inputs.push_back(MixedInts(r));
  }
  const auto sum = AllreduceTreeModel(double_inputs, OpSum<double>{});
  const auto max = AllreduceTreeModel(int_inputs, OpMax<std::int64_t>{});
  const auto min = AllreduceTreeModel(int_inputs, OpMin<std::int64_t>{});
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(Bits(sums[r]), Bits(sum)) << "rank " << r;
    EXPECT_EQ(maxes[r], max) << "rank " << r;
    EXPECT_EQ(mins[r], min) << "rank " << r;
  }
  EXPECT_EQ(clocks, PinnedAllreduceClocks().at(nranks));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceTree,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 8, 12, 13));

TEST(MpiTest, AllreduceTreeIsOrderSensitive) {
  // The data above would hide a wrong tree if any order gave the same sum.
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < 13; ++r) inputs.push_back(OrderSensitiveDoubles(r));
  std::vector<double> left_fold = inputs[0];
  for (int r = 1; r < 13; ++r) {
    for (std::size_t i = 0; i < left_fold.size(); ++i) {
      left_fold[i] += inputs[r][i];
    }
  }
  EXPECT_NE(Bits(AllreduceTreeModel(inputs, OpSum<double>{})),
            Bits(left_fold));
}

TEST(MpiTest, AllreduceSurvivesARankKilledBeforeItsPartnerCombines) {
  // Rank 1 sends its first-hop message at t=0.8 s and dies at 0.8005 s,
  // before rank 0, its partner, receives it: 8 MiB take over 1 ms on FDR
  // InfiniBand. Rank 0 still folds rank 1's contribution in, since the
  // tree holds a copy and never the dead rank's own buffer (ASan would
  // catch that). Rank 3 waits forever for rank 1 at the second hop, so the
  // job aborts with the one deadlock warning it reported before the tree
  // was shared.
  MpiFixture f(4);
  f.engine.verify().Enable();
  World world(*f.cluster, 4, 1);
  const auto plan = sim::FaultPlan::Parse("node:1@0.8005");
  ASSERT_TRUE(plan.ok());
  f.cluster->ApplyFaultPlan(plan.value());
  std::vector<double> firsts(4, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    const std::vector<double> data(std::size_t{1} << 20, comm.rank() + 1.0);
    std::vector<double> out(data.size());
    comm.Allreduce<double>(data, out);
    firsts[comm.rank()] = out.front();
  });
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kAborted);
  EXPECT_EQ(firsts, (std::vector<double>{10.0, -1, 10.0, -1}));
  const verify::Hub& hub = f.engine.verify();
  ASSERT_EQ(hub.findings().size(), 1u) << hub.RenderReport();
  EXPECT_EQ(hub.findings()[0].code, "sim-deadlock");
  EXPECT_EQ(hub.error_count(), 0u);
}

TEST(MpiTest, GatherCollectsInRankOrder) {
  MpiFixture f;
  World world(*f.cluster, 6, 2);
  std::vector<int> gathered(12, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<int> mine{comm.rank() * 10, comm.rank() * 10 + 1};
    std::vector<int> out(comm.rank() == 1 ? 12 : 0);
    comm.Gather<int>(mine, out, /*root=*/1);
    if (comm.rank() == 1) gathered = out;
  });
  ASSERT_TRUE(t.ok());
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(gathered[2 * r], r * 10);
    EXPECT_EQ(gathered[2 * r + 1], r * 10 + 1);
  }
}

class AllgatherSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllgatherSweep, RingDeliversAllBlocks) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 8);
  std::vector<std::vector<int>> results(nranks);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<int> mine{comm.rank(), comm.rank() + 100};
    std::vector<int> out(2 * nranks);
    comm.Allgather<int>(mine, out);
    results[comm.rank()] = out;
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < nranks; ++r) {
    for (int s = 0; s < nranks; ++s) {
      EXPECT_EQ(results[r][2 * s], s);
      EXPECT_EQ(results[r][2 * s + 1], s + 100);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllgatherSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(MpiTest, ScatterDistributesPieces) {
  MpiFixture f;
  World world(*f.cluster, 4, 2);
  std::vector<int> received(4, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<int> all;
    if (comm.rank() == 0) all = {100, 101, 102, 103};
    std::vector<int> mine(1);
    comm.Scatter<int>(all, mine, /*root=*/0);
    received[comm.rank()] = mine[0];
  });
  ASSERT_TRUE(t.ok());
  for (int r = 0; r < 4; ++r) EXPECT_EQ(received[r], 100 + r);
}

TEST(MpiTest, AlltoallTransposes) {
  MpiFixture f;
  const int n = 4;
  World world(*f.cluster, n, 2);
  std::vector<std::vector<int>> results(n);
  auto t = world.RunSpmd([&](Comm& comm) {
    // Element j of rank i is i*10 + j; after alltoall rank i holds j*10 + i.
    std::vector<int> data(n);
    for (int j = 0; j < n; ++j) data[j] = comm.rank() * 10 + j;
    std::vector<int> out(n);
    comm.Alltoall<int>(data, out);
    results[comm.rank()] = out;
  });
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(results[i][j], j * 10 + i);
    }
  }
}

TEST(MpiTest, SplitCreatesIndependentComms) {
  MpiFixture f;
  World world(*f.cluster, 8, 2);
  std::vector<int> subrank(8, -1);
  std::vector<std::int64_t> subsum(8, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto sub = comm.Split(comm.rank() % 2, comm.rank());
    subrank[comm.rank()] = sub->rank();
    EXPECT_EQ(sub->size(), 4);
    std::vector<std::int64_t> data{comm.rank()};
    std::vector<std::int64_t> out(1);
    sub->Allreduce<std::int64_t>(data, out);
    subsum[comm.rank()] = out[0];
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Evens: 0+2+4+6 = 12; odds: 1+3+5+7 = 16.
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(subsum[r], r % 2 == 0 ? 12 : 16);
    EXPECT_EQ(subrank[r], r / 2);
  }
}

TEST(MpiTest, IprobeSeesPendingMessage) {
  MpiFixture f;
  World world(*f.cluster, 2, 1);
  bool before = true;
  bool after = false;
  auto t = world.RunSpmd([&](Comm& comm) {
    if (comm.rank() == 0) {
      int x = 1;
      comm.ctx().SleepFor(0.5);
      comm.Send(&x, sizeof(x), 1, 9);
    } else {
      before = comm.Iprobe(0, 9);  // nothing yet
      comm.ctx().SleepFor(1.0);
      after = comm.Iprobe(0, 9);
      int x = 0;
      comm.Recv(&x, sizeof(x), 0, 9);
    }
  });
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(MpiTest, CollectiveLatencyScalesLogarithmically) {
  // Allreduce of a tiny payload: time should grow ~log2(n), far from
  // linearly. Compare 4 vs 64 ranks.
  auto measure = [](int nranks) {
    MpiFixture f(8);
    World world(*f.cluster, nranks, 8);
    SimTime elapsed = 0;
    MpiOptions options;
    auto t = world.RunSpmd([&](Comm& comm) {
      comm.Barrier();
      const SimTime start = comm.ctx().now();
      std::vector<float> data{1.0F};
      std::vector<float> out(1);
      for (int i = 0; i < 10; ++i) comm.Allreduce<float>(data, out);
      if (comm.rank() == 0) elapsed = comm.ctx().now() - start;
    });
    EXPECT_TRUE(t.ok());
    return elapsed;
  };
  const SimTime t4 = measure(4);
  const SimTime t64 = measure(64);
  EXPECT_GT(t64, t4);
  EXPECT_LT(t64, t4 * 8);  // log2(64)/log2(4) = 3, allow slack for NIC load
}

TEST(MpiTest, RankFailureAbortsJob) {
  MpiFixture f;
  World world(*f.cluster, 4, 1);
  world.SpawnRanks([](Comm& comm) {
    comm.ctx().SleepFor(10.0);
    comm.Barrier();
  });
  f.cluster->FailNode(2, 5.0);
  // RunSpmd not used (we needed to inject between spawn and run).
  auto result = f.engine.Run();
  EXPECT_GT(result.killed, 0u);
}

// --------------------------------------------------------------------------
// MPI-IO
// --------------------------------------------------------------------------

std::string MakeText(std::size_t bytes) {
  std::string out;
  out.reserve(bytes + 32);
  int i = 0;
  while (out.size() < bytes) {
    out += "record-" + std::to_string(i++) + "\n";
  }
  return out;
}

TEST(MpiIoTest, OpenRequiresLocalReplica) {
  MpiFixture f(2);
  // Stage the file on node 0 only.
  f.cluster->scratch(0).Install("/scratch/in", MakeText(1000));
  World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/scratch/in");
    if (comm.node() == 0) {
      EXPECT_TRUE(file.ok());
    } else {
      EXPECT_FALSE(file.ok());
    }
  });
  ASSERT_TRUE(t.ok());
}

TEST(MpiIoTest, ParallelReadCoversWholeFile) {
  MpiFixture f(4);
  const std::string content = MakeText(100000);
  for (int n = 0; n < 4; ++n) {
    f.cluster->scratch(n).Install("/scratch/in", content);
  }
  World world(*f.cluster, 4, 1);
  std::vector<std::string> pieces(4);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/scratch/in");
    ASSERT_TRUE(file.ok());
    const Bytes chunk = file->size() / comm.size();
    const Bytes offset = chunk * comm.rank();
    const Bytes len = comm.rank() == comm.size() - 1
                          ? file->size() - offset
                          : chunk;
    auto data =
        file->ReadAtAll(comm, offset, static_cast<std::int32_t>(len));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    pieces[comm.rank()] = data.value();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::string reassembled;
  for (const auto& piece : pieces) reassembled += piece;
  EXPECT_EQ(reassembled, content);
}

TEST(MpiIoTest, ScaledFileSizeIsModeled) {
  MpiFixture f(2, /*scale=*/0.001);
  const std::string content = MakeText(64 * kKiB);
  f.cluster->scratch(0).Install("/in", content);
  f.cluster->scratch(1).Install("/in", content);
  World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    // Modeled size is 1000x the staged size.
    EXPECT_NEAR(static_cast<double>(file->size()),
                static_cast<double>(content.size()) * 1000.0,
                static_cast<double>(content.size()));
  });
  ASSERT_TRUE(t.ok());
}

TEST(MpiIoTest, IntCountCannotExpressMoreThan2GB) {
  // The structural limitation from the paper: with a modeled 8 GiB file and
  // 2 ranks, the per-rank chunk (4 GiB) exceeds INT32_MAX and cannot even be
  // passed to ReadAtAll. Callers must detect this, as our benches do.
  MpiFixture f(2, /*scale=*/0.00001);
  const std::string content = MakeText(90 * kKiB);  // ~8.6 GiB modeled
  f.cluster->scratch(0).Install("/in", content);
  f.cluster->scratch(1).Install("/in", content);
  World world(*f.cluster, 2, 1);
  bool chunk_too_large = false;
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    const Bytes chunk = file->size() / comm.size();
    if (chunk > static_cast<Bytes>(std::numeric_limits<std::int32_t>::max())) {
      chunk_too_large = true;  // MPI_File_read_at_all(int count) unusable
      return;
    }
    FAIL() << "expected the chunk to exceed INT32_MAX";
  });
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(chunk_too_large);
}

TEST(MpiIoTest, ReadAtIndependentMatchesCollective) {
  MpiFixture f(2);
  const std::string content = MakeText(5000);
  f.cluster->scratch(0).Install("/in", content);
  f.cluster->scratch(1).Install("/in", content);
  World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    auto collective = file->ReadAtAll(comm, 100, 50);
    auto independent = file->ReadAt(comm, 100, 50);
    ASSERT_TRUE(collective.ok());
    ASSERT_TRUE(independent.ok());
    EXPECT_EQ(collective.value(), independent.value());
  });
  ASSERT_TRUE(t.ok());
}

}  // namespace
}  // namespace pstk::mpi

namespace pstk::mpi {
namespace {

// Property sweep: ReadLinesAtAll over ranges that tile the file must yield
// every line exactly once, for any rank count and scale.
class ReadLinesSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ReadLinesSweep, TilingRangesCoverEveryLineOnce) {
  const auto [nranks, scale] = GetParam();
  MpiFixture f(8, scale);
  std::string content;
  int expected_lines = 0;
  {
    Rng rng(nranks * 1000 + 7);
    for (int i = 0; i < 400; ++i) {
      content += "line-" + std::to_string(i);
      content += std::string(rng.Below(60), '.');
      content += '\n';
      ++expected_lines;
    }
  }
  for (int n = 0; n < 8; ++n) {
    f.cluster->scratch(n).Install("/in", content);
  }
  World world(*f.cluster, nranks, 8);
  std::vector<std::string> pieces(nranks);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    const Bytes chunk = file->size() / comm.size();
    const Bytes offset = chunk * comm.rank();
    const Bytes len = comm.rank() == comm.size() - 1
                          ? file->size() - offset
                          : chunk;
    auto data =
        file->ReadLinesAtAll(comm, offset, static_cast<std::int32_t>(len));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    pieces[comm.rank()] = data.value();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::string reassembled;
  for (const auto& piece : pieces) {
    // Every piece is whole lines.
    if (!piece.empty()) {
      EXPECT_EQ(piece.back(), '\n');
    }
    reassembled += piece;
  }
  EXPECT_EQ(reassembled, content);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndScales, ReadLinesSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 16, 64),
                       ::testing::Values(1.0, 0.1, 0.001)));

}  // namespace
}  // namespace pstk::mpi
