// Cross-framework integration tests: the same computation run through
// every runtime in the repository must produce identical answers, and the
// relative performance orderings the paper reports must hold.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "mpi/mpi.h"
#include "mr/mr.h"
#include "omp/omp.h"
#include "shmem/shmem.h"
#include "sim/engine.h"
#include "spark/spark.h"
#include "workloads/graph.h"
#include "workloads/pagerank.h"
#include "workloads/stackexchange.h"

namespace pstk {
namespace {

struct Counts {
  std::uint64_t questions = 0;
  std::uint64_t answers = 0;
  SimTime elapsed = -1;
  bool operator==(const Counts& other) const {
    return questions == other.questions && answers == other.answers;
  }
};

class AnswersCountIntegration : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.01;
  static constexpr int kNodes = 4;
  static constexpr int kPpn = 4;

  static std::string MakeData() {
    workloads::StackExchangeParams params;
    params.target_bytes = 512 * kKiB;
    return workloads::GenerateStackExchange(params, &truth_);
  }

  static const std::string& Data() {
    static const std::string data = MakeData();
    return data;
  }

  static workloads::StackExchangeStats truth_;
};

workloads::StackExchangeStats AnswersCountIntegration::truth_;

Counts RunOmpVersion(const std::string& data) {
  Counts counts;
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(1), 0.01);
  cluster.scratch(0).Install("/posts", data);
  engine.Spawn("omp", [&](sim::Context& ctx) {
    auto text = cluster.scratch(0).ReadAll(ctx, "/posts");
    ASSERT_TRUE(text.ok());
    omp::Runtime rt(4);
    const auto total = rt.ParallelReduce<workloads::StackExchangeStats>(
        0, 4, {},
        [&](std::int64_t lo, std::int64_t) {
          const std::string& t = text.value();
          const std::size_t begin = t.size() * lo / 4;
          std::size_t end = t.size() * (lo + 1) / 4;
          if (end < t.size()) end = t.find('\n', end) + 1;
          return workloads::CountPosts(
              std::string_view(t).substr(begin, end - begin), lo > 0);
        },
        [](workloads::StackExchangeStats a, workloads::StackExchangeStats b) {
          a.questions += b.questions;
          a.answers += b.answers;
          return a;
        });
    counts.questions = total.questions;
    counts.answers = total.answers;
    counts.elapsed = ctx.now();
  });
  EXPECT_TRUE(engine.Run().status.ok());
  return counts;
}

Counts RunMpiVersion(const std::string& data, int nodes, int ppn,
                     double scale) {
  Counts counts;
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes), scale);
  for (int n = 0; n < nodes; ++n) cluster.scratch(n).Install("/posts", data);
  mpi::World world(cluster, nodes * ppn, ppn);
  auto elapsed = world.RunSpmd([&](mpi::Comm& comm) {
    auto file = mpi::File::OpenAll(comm, "/posts");
    ASSERT_TRUE(file.ok());
    const Bytes chunk = file->size() / comm.size();
    ASSERT_LE(chunk,
              static_cast<Bytes>(std::numeric_limits<std::int32_t>::max()));
    const Bytes offset = chunk * comm.rank();
    const Bytes len =
        comm.rank() == comm.size() - 1 ? file->size() - offset : chunk;
    auto part =
        file->ReadLinesAtAll(comm, offset, static_cast<std::int32_t>(len));
    ASSERT_TRUE(part.ok());
    const auto local = workloads::CountPosts(part.value());
    const std::vector<std::uint64_t> mine{local.questions, local.answers};
    std::vector<std::uint64_t> total(2);
    comm.Allreduce<std::uint64_t>(mine, total);
    if (comm.rank() == 0) {
      counts.questions = total[0];
      counts.answers = total[1];
    }
  });
  EXPECT_TRUE(elapsed.ok()) << elapsed.status().ToString();
  counts.elapsed = elapsed.ok() ? elapsed.value() : -1;
  return counts;
}

Counts RunMrVersion(const std::string& data, int nodes, double scale) {
  Counts counts;
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes), scale);
  dfs::DfsOptions dopts;
  dopts.block_size = 4 * kMiB;
  dfs::MiniDfs dfs(cluster, dopts);
  EXPECT_TRUE(dfs.Install("/posts", data).ok());
  mr::MrOptions mopts;
  mopts.jvm_startup_per_task = Millis(50);
  mopts.job_setup = Millis(100);
  mr::MrEngine mr_engine(cluster, dfs, mopts);
  mr::JobConf conf;
  conf.input_path = "/posts";
  conf.output_path = "/out";
  auto result = mr_engine.RunJob(
      conf,
      [](const std::string& line, mr::Emitter& out) {
        switch (workloads::ClassifyPost(line)) {
          case workloads::PostKind::kQuestion: out.Emit("Q", "1"); break;
          case workloads::PostKind::kAnswer: out.Emit("A", "1"); break;
          default: break;
        }
      },
      [](const std::string& key, const std::vector<std::string>& values,
         mr::Emitter& out) {
        std::int64_t sum = 0;
        for (const auto& v : values) {
          sum += std::strtoll(v.c_str(), nullptr, 10);
        }
        out.Emit(key, std::to_string(sum));
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return counts;
  counts.elapsed = result->elapsed;
  // Parse the single part file.
  sim::Engine reader;
  engine.Spawn("read", [&](sim::Context& ctx) {
    auto part = dfs.ReadAll(ctx, 0, "/out/part-r-0");
    ASSERT_TRUE(part.ok());
    const std::string text = part.value().ToString();
    std::size_t pos = 0;
    while (pos < text.size()) {
      auto nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      const std::string line = text.substr(pos, nl - pos);
      pos = nl + 1;
      const auto tab = line.find('\t');
      if (tab == std::string::npos) continue;
      const auto value = std::strtoull(line.c_str() + tab + 1, nullptr, 10);
      if (line.substr(0, tab) == "Q") counts.questions = value;
      if (line.substr(0, tab) == "A") counts.answers = value;
    }
  });
  EXPECT_TRUE(engine.Run().status.ok());
  return counts;
}

Counts RunSparkVersion(const std::string& data, int nodes, double scale) {
  Counts counts;
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes), scale);
  dfs::DfsOptions dopts;
  dopts.block_size = 4 * kMiB;
  dfs::MiniDfs dfs(cluster, dopts);
  EXPECT_TRUE(dfs.Install("/posts", data).ok());
  spark::SparkOptions sopts;
  sopts.app_startup = Millis(200);
  sopts.executors_per_node = 4;
  spark::MiniSpark spark(cluster, &dfs, sopts);
  auto result = spark.RunApp([&](spark::SparkContext& sc) {
    using P = std::pair<std::uint64_t, std::uint64_t>;
    auto lines = sc.TextFile("/posts");
    ASSERT_TRUE(lines.ok());
    auto total = lines->Map<P>([](const std::string& line) {
                        switch (workloads::ClassifyPost(line)) {
                          case workloads::PostKind::kQuestion: return P{1, 0};
                          case workloads::PostKind::kAnswer: return P{0, 1};
                          default: return P{0, 0};
                        }
                      })
                     .Reduce([](const P& a, const P& b) {
                       return P{a.first + b.first, a.second + b.second};
                     });
    ASSERT_TRUE(total.ok());
    counts.questions = total->first;
    counts.answers = total->second;
  });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  counts.elapsed = result.ok() ? result->elapsed : -1;
  return counts;
}

TEST_F(AnswersCountIntegration, AllFourFrameworksAgreeWithGroundTruth) {
  const Counts omp = RunOmpVersion(Data());
  const Counts mpi = RunMpiVersion(Data(), kNodes, kPpn, kScale);
  const Counts mr = RunMrVersion(Data(), kNodes, kScale);
  const Counts spark = RunSparkVersion(Data(), kNodes, kScale);

  EXPECT_EQ(omp.questions, truth_.questions);
  EXPECT_EQ(omp.answers, truth_.answers);
  EXPECT_TRUE(mpi == omp);
  EXPECT_TRUE(mr == omp);
  EXPECT_TRUE(spark == omp);
}

TEST_F(AnswersCountIntegration, PaperPerformanceOrderingsHold) {
  const Counts mpi = RunMpiVersion(Data(), kNodes, kPpn, kScale);
  const Counts mr = RunMrVersion(Data(), kNodes, kScale);
  const Counts spark = RunSparkVersion(Data(), kNodes, kScale);
  ASSERT_GT(mpi.elapsed, 0);
  ASSERT_GT(mr.elapsed, 0);
  ASSERT_GT(spark.elapsed, 0);
  // §V-C: Hadoop noticeably slower than Spark (disk-persisted
  // intermediates + per-task JVMs). The MPI-vs-Spark ordering is
  // size-dependent (fixed launcher costs dominate at this small test
  // scale), so the `fig4_answerscount --smoke` ctest asserts it, not here.
  EXPECT_GT(mr.elapsed, spark.elapsed);
}

// ---------------------------------------------------------------------------
// PageRank: MPI and Spark agree with the serial reference.
// ---------------------------------------------------------------------------

TEST(PageRankIntegration, MpiMatchesReference) {
  workloads::GraphParams gparams;
  gparams.vertices = 3000;
  const auto graph = workloads::GenerateGraph(gparams);
  const auto reference = workloads::PageRankReference(graph, 4);

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  mpi::World world(cluster, 8, 4);
  double max_delta = 1.0;
  auto elapsed = world.RunSpmd([&](mpi::Comm& comm) {
    const auto n = graph.vertices;
    const auto lo = n * comm.rank() / comm.size();
    const auto hi = n * (comm.rank() + 1) / comm.size();
    std::vector<double> ranks(n, 1.0);
    std::vector<double> contrib(n, 0.0);
    std::vector<double> summed(n, 0.0);
    for (int iter = 0; iter < 4; ++iter) {
      std::fill(contrib.begin(), contrib.end(), 0.0);
      for (auto v = lo; v < hi; ++v) {
        const auto degree = graph.out_degree(v);
        if (degree == 0) continue;
        const double share = ranks[v] / static_cast<double>(degree);
        for (auto e = graph.offsets[v]; e < graph.offsets[v + 1]; ++e) {
          contrib[graph.targets[e]] += share;
        }
      }
      comm.Allreduce<double>(contrib, summed);
      for (workloads::VertexId v = 0; v < n; ++v) {
        ranks[v] = workloads::kBaseRank + workloads::kDamping * summed[v];
      }
    }
    if (comm.rank() == 0) {
      max_delta = workloads::MaxRankDelta(ranks, reference);
    }
  });
  ASSERT_TRUE(elapsed.ok());
  EXPECT_LT(max_delta, 1e-9);
}

TEST(PageRankIntegration, SparkMatchesReference) {
  workloads::GraphParams gparams;
  gparams.vertices = 2000;
  const auto graph = workloads::GenerateGraph(gparams);
  const auto reference = workloads::PageRankReference(graph, 3);

  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  spark::SparkOptions sopts;
  sopts.app_startup = Millis(100);
  sopts.executors_per_node = 2;
  spark::MiniSpark spark(cluster, nullptr, sopts);
  double max_delta = 1.0;
  auto result = spark.RunApp([&](spark::SparkContext& sc) {
    using K = std::int64_t;
    std::vector<std::pair<K, std::vector<K>>> links_data;
    for (workloads::VertexId v = 0; v < graph.vertices; ++v) {
      std::vector<K> targets(graph.targets.begin() + graph.offsets[v],
                             graph.targets.begin() + graph.offsets[v + 1]);
      links_data.emplace_back(v, std::move(targets));
    }
    auto links = sc.Parallelize(std::move(links_data), 4)
                     .AsPairs<K, std::vector<K>>()
                     .PartitionBy(4);
    links.Persist(spark::StorageLevel::kMemoryOnly);
    auto ranks = links.MapValues<double>([](const std::vector<K>&) {
      return 1.0;
    });
    for (int i = 0; i < 3; ++i) {
      auto contribs =
          links.Join(ranks)
              .AsRdd()
              .FlatMap<std::pair<K, double>>(
                  [](const std::pair<K, std::pair<std::vector<K>, double>>&
                         entry) {
                    const auto& [src, pr] = entry;
                    std::vector<std::pair<K, double>> out;
                    out.emplace_back(src, 0.0);
                    const double share =
                        pr.second / static_cast<double>(pr.first.size());
                    for (K url : pr.first) out.emplace_back(url, share);
                    return out;
                  })
              .AsPairs<K, double>();
      ranks = contribs
                  .ReduceByKey([](double a, double b) { return a + b; }, 4)
                  .MapValues<double>([](const double& sum) {
                    return workloads::kBaseRank + workloads::kDamping * sum;
                  });
    }
    auto final_ranks = ranks.CollectAsMap();
    ASSERT_TRUE(final_ranks.ok());
    std::vector<double> dense(reference.size(), workloads::kBaseRank);
    for (const auto& [v, r] : final_ranks.value()) {
      dense[static_cast<std::size_t>(v)] = r;
    }
    max_delta = workloads::MaxRankDelta(dense, reference);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(max_delta, 1e-9);
}

// ---------------------------------------------------------------------------
// SHMEM + MPI interop sanity: both runtimes on one engine, different jobs.
// ---------------------------------------------------------------------------

TEST(MixedRuntimeIntegration, MpiAndShmemJobsShareACluster) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  std::int64_t mpi_sum = 0;
  std::int64_t shmem_sum = 0;

  mpi::World world(cluster, 4, 2);
  world.SpawnRanks([&](mpi::Comm& comm) {
    std::vector<std::int64_t> mine{comm.rank() + 1};
    std::vector<std::int64_t> total(1);
    comm.Allreduce<std::int64_t>(mine, total);
    if (comm.rank() == 0) mpi_sum = total[0];
  });

  shmem::ShmemWorld shmem_world(cluster, 4, 2);
  shmem_world.SpawnPes([&](shmem::Pe& pe) {
    auto counter = pe.Malloc<std::int64_t>(1);
    *pe.Local(counter) = 0;
    pe.BarrierAll();
    pe.AtomicFetchAdd(counter, pe.my_pe() + 1, 0);
    pe.BarrierAll();
    if (pe.my_pe() == 0) shmem_sum = *pe.Local(counter);
  });

  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_EQ(mpi_sum, 10);
  EXPECT_EQ(shmem_sum, 10);
}

}  // namespace
}  // namespace pstk
