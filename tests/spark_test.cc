#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "sim/engine.h"
#include "spark/spark.h"

namespace pstk::spark {
namespace {

SparkOptions FastOptions() {
  SparkOptions o;
  o.app_startup = Millis(100);
  o.executors_per_node = 2;
  return o;
}

struct SparkFixture {
  explicit SparkFixture(std::size_t nodes = 4, double scale = 1.0,
                        SparkOptions options = FastOptions()) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes), scale);
    dfs::DfsOptions dopts;
    dopts.block_size = 4 * kKiB;
    dfs = std::make_unique<dfs::MiniDfs>(*cluster, dopts);
    spark = std::make_unique<MiniSpark>(*cluster, dfs.get(), options);
  }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::unique_ptr<MiniSpark> spark;
};

TEST(SparkTest, ParallelizeCollectRoundTrips) {
  SparkFixture f;
  std::vector<std::int64_t> collected;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::int64_t> data(100);
    for (int i = 0; i < 100; ++i) data[i] = i;
    auto rdd = sc.Parallelize(std::move(data), 8);
    EXPECT_EQ(rdd.num_partitions(), 8);
    auto got = rdd.Collect();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    collected = got.value();
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::sort(collected.begin(), collected.end());
  ASSERT_EQ(collected.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(collected[i], i);
  EXPECT_GT(result->stats.tasks_launched, 0u);
}

TEST(SparkTest, MapFilterCount) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::int64_t> data(1000);
    for (int i = 0; i < 1000; ++i) data[i] = i;
    auto evens = sc.Parallelize(std::move(data))
                     .Map<std::int64_t>([](const std::int64_t& x) {
                       return x * 2;
                     })
                     .Filter([](const std::int64_t& x) { return x % 4 == 0; });
    auto count = evens.Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 500);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, ReduceSumsAllElements) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<double> zeros(4096, 0.5);
    auto rdd = sc.Parallelize(std::move(zeros));
    auto sum = rdd.Reduce([](const double& a, const double& b) {
      return a + b;
    });
    ASSERT_TRUE(sum.ok());
    EXPECT_DOUBLE_EQ(sum.value(), 2048.0);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, ReduceOfEmptyRddErrors) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto rdd = sc.Parallelize(std::vector<std::int64_t>{}, 2);
    auto sum = rdd.Reduce(
        [](const std::int64_t& a, const std::int64_t& b) { return a + b; });
    EXPECT_FALSE(sum.ok());
    EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
  });
  ASSERT_TRUE(result.ok());
}

TEST(SparkTest, FlatMapAndKeyBy) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto words =
        sc.Parallelize(std::vector<std::string>{"a b", "b c", "c d"}, 3)
            .FlatMap<std::string>([](const std::string& line) {
              std::vector<std::string> out;
              std::size_t pos = 0;
              while (pos < line.size()) {
                auto sp = line.find(' ', pos);
                if (sp == std::string::npos) sp = line.size();
                out.push_back(line.substr(pos, sp - pos));
                pos = sp + 1;
              }
              return out;
            });
    auto pairs = words.KeyBy<std::string>(
        [](const std::string& w) { return w; });
    auto counts = pairs
                      .MapValues<std::int64_t>(
                          [](const std::string&) { return 1; })
                      .ReduceByKey(
                          [](std::int64_t a, std::int64_t b) { return a + b; });
    auto got = counts.CollectAsMap();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->at("a"), 1);
    EXPECT_EQ(got->at("b"), 2);
    EXPECT_EQ(got->at("c"), 2);
    EXPECT_EQ(got->at("d"), 1);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, TextFileFromDfs) {
  SparkFixture f;
  std::string content;
  for (int i = 0; i < 500; ++i) {
    content += "line number " + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(f.dfs->Install("/data/in.txt", content).ok());
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto lines = sc.TextFile("/data/in.txt");
    ASSERT_TRUE(lines.ok()) << lines.status().ToString();
    EXPECT_GT(lines->num_partitions(), 1);  // multiple blocks
    auto count = lines->Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 500);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, TextFileLocalSplitsCoverEveryLineOnce) {
  SparkFixture f;
  SparkOptions o = FastOptions();
  o.local_split_bytes = 2 * kKiB;
  f.spark = std::make_unique<MiniSpark>(*f.cluster, f.dfs.get(), o);
  std::string content;
  for (int i = 0; i < 800; ++i) {
    content += "local line " + std::to_string(i) + "\n";
  }
  for (int n = 0; n < f.cluster->nodes(); ++n) {
    f.cluster->scratch(n).Install("/scratch/local.txt", content);
  }
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto lines = sc.TextFileLocal("/scratch/local.txt");
    ASSERT_TRUE(lines.ok()) << lines.status().ToString();
    EXPECT_GT(lines->num_partitions(), 2);
    auto count = lines->Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 800);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, GroupByKeyGathersAllValues) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::pair<std::int64_t, std::int64_t>> data;
    for (std::int64_t i = 0; i < 100; ++i) data.emplace_back(i % 5, i);
    auto grouped = sc.Parallelize(std::move(data), 4)
                       .AsPairs<std::int64_t, std::int64_t>()
                       .GroupByKey();
    auto got = grouped.CollectAsMap();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), 5u);
    for (const auto& [key, values] : got.value()) {
      EXPECT_EQ(values.size(), 20u) << "key " << key;
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, JoinShuffledProducesInnerJoin) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::pair<std::string, std::int64_t>> left{
        {"a", 1}, {"b", 2}, {"c", 3}};
    std::vector<std::pair<std::string, std::string>> right{
        {"b", "x"}, {"c", "y"}, {"c", "z"}, {"d", "w"}};
    auto l = sc.Parallelize(std::move(left), 2)
                 .AsPairs<std::string, std::int64_t>();
    auto r = sc.Parallelize(std::move(right), 3)
                 .AsPairs<std::string, std::string>();
    auto joined = l.Join(r);
    auto got = joined.Collect();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), 3u);  // b:1 pair, c:2 pairs
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, CoPartitionedJoinIsNarrow) {
  // The BigDataBench PageRank tuning (paper Fig 5): once both sides are
  // hash-partitioned the same way and persisted, re-joining them moves
  // NOTHING over the fabric — each stage keeps its data local.
  auto build_data = [] {
    std::vector<std::pair<std::int64_t, std::int64_t>> data;
    for (std::int64_t i = 0; i < 200; ++i) data.emplace_back(i, i * 10);
    return data;
  };
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto l = sc.Parallelize(build_data(), 4)
                 .AsPairs<std::int64_t, std::int64_t>()
                 .PartitionBy(8);
    auto r = sc.Parallelize(build_data(), 4)
                 .AsPairs<std::int64_t, std::int64_t>()
                 .PartitionBy(8);
    l.Persist(StorageLevel::kMemoryOnly);
    r.Persist(StorageLevel::kMemoryOnly);
    auto joined = l.Join(r);
    EXPECT_TRUE(joined.partitioner().has_value());

    auto first = joined.Count();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value(), 200);
    const Bytes fetched_after_first = sc.stats().shuffle_fetched_bytes;
    const Bytes local_after_first = sc.stats().shuffle_local_bytes;

    // Iterating: the join re-executes entirely from cached partitions.
    auto second = joined.Count();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value(), 200);
    EXPECT_EQ(sc.stats().shuffle_fetched_bytes, fetched_after_first);
    EXPECT_EQ(sc.stats().shuffle_local_bytes, local_after_first);
    EXPECT_GT(sc.stats().cache_hits, 0u);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, PersistAvoidsRecomputation) {
  // Count the same RDD twice: with persist, the second job hits the cache.
  auto run = [](bool persist) -> AppStats {
    SparkFixture g;
    auto result = g.spark->RunApp([&](SparkContext& sc) {
      std::vector<std::int64_t> data(5000);
      for (int i = 0; i < 5000; ++i) data[i] = i;
      auto rdd = sc.Parallelize(std::move(data), 8)
                     .Map<std::int64_t>([](const std::int64_t& x) {
                       return x + 1;
                     });
      if (persist) rdd.Persist(StorageLevel::kMemoryOnly);
      ASSERT_TRUE(rdd.Count().ok());
      ASSERT_TRUE(rdd.Count().ok());
    });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->stats : AppStats{};
  };
  AppStats with_persist;
  AppStats without;
  {
    SCOPED_TRACE("persist");
    with_persist = run(true);
  }
  {
    SCOPED_TRACE("no persist");
    without = run(false);
  }
  EXPECT_GT(with_persist.cache_hits, 0u);
  EXPECT_EQ(without.cache_hits, 0u);
}

TEST(SparkTest, MemoryOnlyEvictsDiskSpillsCharge) {
  // Tiny memory budget forces MEMORY_AND_DISK to spill.
  SparkFixture f;
  SparkOptions o = FastOptions();
  o.storage_memory_fraction = 1e-9;  // ~0 bytes of cache memory
  f.spark = std::make_unique<MiniSpark>(*f.cluster, f.dfs.get(), o);
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::int64_t> data(10000);
    for (int i = 0; i < 10000; ++i) data[i] = i;
    auto rdd = sc.Parallelize(std::move(data), 4);
    rdd.Persist(StorageLevel::kMemoryAndDisk);
    ASSERT_TRUE(rdd.Count().ok());
    ASSERT_TRUE(rdd.Count().ok());
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.cache_spilled_bytes, 0u);
  EXPECT_GT(result->stats.cache_hits, 0u);  // served from disk spill
}

TEST(SparkTest, RdmaShuffleFasterWhenShuffleHeavy) {
  auto run = [](bool rdma) {
    sim::Engine engine;
    cluster::Cluster cl(engine, cluster::ClusterSpec::Comet(4));
    SparkOptions o = FastOptions();
    o.rdma_shuffle = rdma;
    MiniSpark spark(cl, nullptr, o);
    SimTime elapsed = 0;
    auto result = spark.RunApp([&](SparkContext& sc) {
      // Wide shuffle: big values, every key distinct.
      std::vector<std::pair<std::int64_t, std::string>> data;
      for (std::int64_t i = 0; i < 2000; ++i) {
        data.emplace_back(i, std::string(512, 'x'));
      }
      auto shuffled = sc.Parallelize(std::move(data), 8)
                          .AsPairs<std::int64_t, std::string>()
                          .PartitionBy(8);
      ASSERT_TRUE(shuffled.Count().ok());
    });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    elapsed = result->elapsed;
    return elapsed;
  };
  const SimTime socket_time = run(false);
  const SimTime rdma_time = run(true);
  EXPECT_LT(rdma_time, socket_time);
}

TEST(SparkTest, ExecutorLossRecoversViaLineage) {
  SparkFixture f(4);
  SparkOptions o = FastOptions();
  o.executors_per_node = 2;
  f.spark = std::make_unique<MiniSpark>(*f.cluster, f.dfs.get(), o);

  std::optional<Result<AppResult>> outcome;
  std::int64_t count = -1;
  f.spark->Submit(
      [&](SparkContext& sc) {
        std::vector<std::pair<std::int64_t, std::int64_t>> data;
        for (std::int64_t i = 0; i < 3000; ++i) data.emplace_back(i % 64, i);
        auto pairs = sc.Parallelize(std::move(data), 8)
                         .AsPairs<std::int64_t, std::int64_t>();
        auto reduced = pairs.ReduceByKey(
            [](std::int64_t a, std::int64_t b) { return a + b; });
        // First materialization.
        auto c1 = reduced.Count();
        ASSERT_TRUE(c1.ok()) << c1.status().ToString();
        // Let the failure land, then run again: shuffle outputs on the dead
        // node are gone; lineage re-runs the missing map tasks.
        sc.ctx().SleepUntil(60.0);
        auto c2 = reduced.Count();
        ASSERT_TRUE(c2.ok()) << c2.status().ToString();
        count = c2.value();
        EXPECT_EQ(c1.value(), c2.value());
      },
      [&](Result<AppResult> result) { outcome = std::move(result); });
  f.cluster->FailNode(2, 30.0);
  auto run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_EQ(count, 64);
  EXPECT_GT((*outcome)->stats.fetch_failures, 0u);
}

TEST(SparkTest, AllExecutorsLostFailsApp) {
  SparkFixture f(2);
  std::optional<Result<AppResult>> outcome;
  Status job_status;
  f.spark->Submit(
      [&](SparkContext& sc) {
        sc.ctx().SleepUntil(10.0);  // past the failures
        std::vector<std::int64_t> data(100, 1);
        auto count = sc.Parallelize(std::move(data), 4).Count();
        job_status = count.status();
      },
      [&](Result<AppResult> result) { outcome = std::move(result); });
  // Kill both nodes' executors but keep the driver alive: the driver runs
  // on node 0 as a separate process, so kill executors directly.
  for (const ExecutorInfo& info : f.spark->app().executors) {
    f.engine.Kill(info.pid, 5.0);
  }
  auto run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(job_status.code(), StatusCode::kUnavailable);
}

TEST(SparkTest, TaskOutlivingItsFailedTaskSetKeepsItsClosure) {
  // Regression: executors ran a task through a reference into
  // AppState::closures, and RunTaskSet erases that entry when the set ends
  // on a fetch failure. After node 1 fails, the shuffled half's tasks fail
  // their fetch at once while the disk-cached half's tasks are parked in
  // their block reads; when those wake they call Reduce's fn, which ASan
  // reported as a heap-use-after-free.
  SparkOptions options;
  options.executors_per_node = 2;
  SparkFixture f(4, 1.0, options);
  std::int64_t sum = -1;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::int64_t> values(400000);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<std::int64_t>(i);
    }
    auto cached = sc.Parallelize(std::move(values), 2);
    cached.Persist(StorageLevel::kDiskOnly);
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    for (std::int64_t i = 0; i < 4000; ++i) pairs.emplace_back(i % 97, i);
    auto reduced =
        sc.Parallelize(std::move(pairs), 8)
            .AsPairs<std::int64_t, std::int64_t>()
            .ReduceByKey([](std::int64_t a, std::int64_t b) { return a + b; },
                         8)
            .Values();
    auto both = cached.Union(reduced);
    ASSERT_TRUE(both.Count().ok());
    f.cluster->FailNode(1, sc.ctx().now());
    sc.ctx().SleepFor(1e-6);
    auto total = both.Reduce(
        [](const std::int64_t& a, const std::int64_t& b) { return a + b; });
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    sum = *total;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(sum, std::int64_t{399999} * 400000 / 2 + 3999 * 4000 / 2);
  EXPECT_EQ(result->stats.fetch_failures, 1u);
}

TEST(SparkTest, DriverOverheadDominatesTinyJobs) {
  // The Fig 3 story: a trivial reduce still costs driver milliseconds.
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    const SimTime start = sc.ctx().now();
    auto sum = sc.Parallelize(std::vector<double>{1.0, 2.0}, 2)
                   .Reduce([](const double& a, const double& b) {
                     return a + b;
                   });
    ASSERT_TRUE(sum.ok());
    const SimTime job_time = sc.ctx().now() - start;
    EXPECT_GT(job_time, Millis(10));  // way above MPI's microseconds
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, LocalityPrefersCachedExecutors) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::int64_t> data(1000);
    for (int i = 0; i < 1000; ++i) data[i] = i;
    auto rdd = sc.Parallelize(std::move(data), 4);
    rdd.Persist(StorageLevel::kMemoryOnly);
    ASSERT_TRUE(rdd.Count().ok());
    const auto misses_after_first = sc.stats().cache_misses;
    ASSERT_TRUE(rdd.Count().ok());
    // Second job scheduled onto cached executors: no new misses.
    EXPECT_EQ(sc.stats().cache_misses, misses_after_first);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace pstk::spark

namespace pstk::spark {
namespace {

TEST(SparkTest, UnionConcatenatesPartitions) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto a = sc.Parallelize(std::vector<std::int64_t>{1, 2, 3}, 2);
    auto b = sc.Parallelize(std::vector<std::int64_t>{4, 5}, 3);
    auto u = a.Union(b);
    EXPECT_EQ(u.num_partitions(), 5);
    auto all = u.Collect();
    ASSERT_TRUE(all.ok());
    std::sort(all->begin(), all->end());
    EXPECT_EQ(all.value(), (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
    // Union keeps duplicates.
    auto twice = a.Union(a).Count();
    ASSERT_TRUE(twice.ok());
    EXPECT_EQ(twice.value(), 6);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, DistinctRemovesDuplicates) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    std::vector<std::string> data;
    for (int i = 0; i < 300; ++i) {
      data.push_back(std::string("k").append(std::to_string(i % 7)));
    }
    auto distinct = sc.Parallelize(std::move(data), 4).Distinct();
    auto got = distinct.Collect();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 7u);
    std::set<std::string> unique(got->begin(), got->end());
    EXPECT_EQ(unique.size(), 7u);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, UnionOfMappedRddsEvaluatesLazily) {
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    int evaluations = 0;
    auto a = sc.Parallelize(std::vector<std::int64_t>{1, 2}, 1)
                 .Map<std::int64_t>([&evaluations](const std::int64_t& x) {
                   ++evaluations;
                   return x * 10;
                 });
    auto u = a.Union(a);
    EXPECT_EQ(evaluations, 0);  // nothing ran yet (lazy)
    auto sum = u.Reduce(
        [](const std::int64_t& x, const std::int64_t& y) { return x + y; });
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(sum.value(), 60);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, DataPlaneTraceIsDeterministic) {
  // The zero-copy plane must stay model-neutral: the same wordcount over
  // DFS blocks — reads, shuffle commits/fetches, a persisted partition —
  // produces the right counts and a byte-identical trace on every run.
  auto run = [] {
    sim::Engine engine(/*seed=*/7);
    engine.EnableTrace(true);
    cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(4));
    dfs::DfsOptions dopts;
    dopts.block_size = 4 * kKiB;
    dfs::MiniDfs dfs(cluster, dopts);
    MiniSpark spark(cluster, &dfs, FastOptions());

    std::string content;
    for (int i = 0; i < 400; ++i) {
      content += "alpha beta gamma " + std::to_string(i % 13) + "\n";
    }
    EXPECT_TRUE(dfs.Install("/data/words.txt", content).ok());

    std::map<std::string, std::int64_t> counts;
    auto result = spark.RunApp([&](SparkContext& sc) {
      auto lines = sc.TextFile("/data/words.txt");
      ASSERT_TRUE(lines.ok()) << lines.status().ToString();
      auto words =
          lines->FlatMap<std::string>([](const std::string& line) {
            std::vector<std::string> out;
            std::size_t pos = 0;
            while (pos < line.size()) {
              auto sp = line.find(' ', pos);
              if (sp == std::string::npos) sp = line.size();
              out.push_back(line.substr(pos, sp - pos));
              pos = sp + 1;
            }
            return out;
          });
      words.Persist(StorageLevel::kMemoryOnly);
      auto got = words.KeyBy<std::string>([](const std::string& w) { return w; })
                     .MapValues<std::int64_t>([](const std::string&) {
                       return 1;
                     })
                     .ReduceByKey([](std::int64_t a, std::int64_t b) {
                       return a + b;
                     })
                     .CollectAsMap();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      counts = got.value();
    });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(counts["alpha"], 400);
    return engine.obs().ToChromeTraceJson();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(SparkTest, JoinPairsLeftOrderTimesRightArrivalOrder) {
  // Duplicate keys on both sides. One reduce partition, so each side
  // arrives in slice order = data order; the narrow path joins the
  // PartitionBy(1) outputs, which keep that order too.
  using K = std::int64_t;
  const std::vector<std::pair<K, std::string>> left{
      {1, "a"}, {2, "b"}, {1, "c"}, {3, "d"}, {1, "e"}, {5, "f"}};
  const std::vector<std::pair<K, std::int64_t>> right{
      {1, 10}, {3, 30}, {1, 11}, {2, 20}, {1, 12}, {4, 40}, {3, 31}};
  std::vector<std::pair<K, std::pair<std::string, std::int64_t>>> expected;
  for (const auto& [key, v] : left) {
    for (const auto& [rkey, w] : right) {
      if (rkey == key) expected.emplace_back(key, std::pair{v, w});
    }
  }
  ASSERT_EQ(expected.size(), 12u);
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto l = sc.Parallelize(left, 3).AsPairs<K, std::string>();
    auto r = sc.Parallelize(right, 2).AsPairs<K, std::int64_t>();
    auto shuffled = l.Join(r, /*num_partitions=*/1).Collect();
    ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
    EXPECT_EQ(shuffled.value(), expected);
    auto narrow = l.PartitionBy(1).Join(r.PartitionBy(1)).Collect();
    ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
    EXPECT_EQ(narrow.value(), expected);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, ShuffledJoinGivesEveryRowTheWholeLeftVector) {
  // The shuffled join moves each left row into its last output row: every
  // row, the moved-into one too, must carry the full left vector.
  using K = long;
  const std::vector<std::pair<K, std::vector<long>>> left{
      {1, {10, 11, 12}}, {2, {20}}, {1, {}}, {3, {30, 31}}, {1, {13, 14}}};
  const std::vector<std::pair<K, std::string>> right{
      {1, "x"}, {3, "p"}, {1, "y"}, {2, "q"}, {1, "z"}};
  std::vector<std::pair<K, std::pair<std::vector<long>, std::string>>>
      expected;
  for (const auto& [key, v] : left) {
    for (const auto& [rkey, w] : right) {
      if (rkey == key) expected.emplace_back(key, std::pair{v, w});
    }
  }
  ASSERT_EQ(expected.size(), 11u);
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto l = sc.Parallelize(left, 2).AsPairs<K, std::vector<long>>();
    auto r = sc.Parallelize(right, 2).AsPairs<K, std::string>();
    auto joined = l.Join(r, /*num_partitions=*/1).Collect();
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(joined.value(), expected);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, CollectAsMapKeepsTheLastValueInCollectOrder) {
  // Duplicate keys within one slice and across slices: the map must hold
  // what inserting every collected pair in turn leaves.
  const std::vector<std::pair<std::int64_t, std::string>> data{
      {3, "a"}, {1, "b"}, {3, "c"}, {2, "d"}, {1, "e"},
      {3, "f"}, {2, "g"}, {4, "h"}, {1, "i"}};
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto pairs = sc.Parallelize(data, 3).AsPairs<std::int64_t, std::string>();
    auto collected = pairs.Collect();
    ASSERT_TRUE(collected.ok());
    ASSERT_EQ(collected.value(), data);
    std::map<std::int64_t, std::string> expected;
    for (const auto& [key, value] : collected.value()) expected[key] = value;
    auto got = pairs.CollectAsMap();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), expected);
    EXPECT_EQ(got.value(),
              (std::map<std::int64_t, std::string>{
                  {1, "i"}, {2, "g"}, {3, "f"}, {4, "h"}}));
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, ReduceByKeyOverManyStringKeysMatchesAMap) {
  // 120k distinct keys land in one reduce partition, so its table and
  // entry vector grow far past their first allocation.
  constexpr int kKeys = 120000;
  std::vector<std::pair<std::string, std::int64_t>> data;
  std::map<std::string, std::int64_t> oracle;
  for (int i = 0; i < 3 * kKeys / 2; ++i) {
    std::string key = "key-" + std::to_string((i * 7919) % kKeys);
    oracle[key] += i;
    data.emplace_back(std::move(key), i);
  }
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto reduced =
        sc.Parallelize(std::move(data), 4)
            .AsPairs<std::string, std::int64_t>()
            .ReduceByKey([](std::int64_t a, std::int64_t b) { return a + b; },
                         /*num_partitions=*/1);
    auto got = reduced.CollectAsMap();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), oracle);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, GroupByKeyKeepsMapPartitionThenInputOrder) {
  // A permutation, so input order is neither sorted nor reversed.
  std::vector<std::pair<std::int64_t, std::int64_t>> data;
  for (std::int64_t j = 0; j < 100; ++j) {
    const std::int64_t v = (37 * j) % 100;
    data.emplace_back(v % 5, v);
  }
  std::map<std::int64_t, std::vector<std::int64_t>> expected;
  for (const auto& [key, v] : data) expected[key].push_back(v);
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto grouped = sc.Parallelize(data, 4)
                       .AsPairs<std::int64_t, std::int64_t>()
                       .GroupByKey(/*num_partitions=*/3);
    auto got = grouped.CollectAsMap();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), expected);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SparkTest, RawShuffleBucketsEncodeLikeTheirRecordLists) {
  // Each map output bucket of a pass-through shuffle must hold exactly
  // EncodeToBytes of its records in input order.
  using Record = std::pair<std::int64_t, std::vector<std::int64_t>>;
  std::vector<Record> data;
  for (std::int64_t i = 0; i < 300; ++i) {
    std::vector<std::int64_t> adjacency;
    for (std::int64_t e = 0; e < i % 9; ++e) adjacency.push_back(i * 31 + e);
    data.emplace_back((i * 13) % 97, std::move(adjacency));
  }
  constexpr int kSlices = 3;
  constexpr int kReduces = 5;
  SparkFixture f;
  auto result = f.spark->RunApp([&](SparkContext& sc) {
    auto partitioned = sc.Parallelize(data, kSlices)
                           .AsPairs<std::int64_t, std::vector<std::int64_t>>()
                           .PartitionBy(kReduces);
    ASSERT_TRUE(partitioned.Count().ok());
    const int shuffle = partitioned.node()->shuffle_deps[0]->shuffle_id();
    for (int m = 0; m < kSlices; ++m) {
      const ShuffleStore::MapOutput* output =
          sc.app().shuffle_store.GetMapOutput(shuffle, m);
      ASSERT_NE(output, nullptr);
      ASSERT_EQ(output->buckets.size(), static_cast<std::size_t>(kReduces));
      std::vector<std::vector<Record>> lists(kReduces);
      const std::size_t lo = data.size() * m / kSlices;
      const std::size_t hi = data.size() * (m + 1) / kSlices;
      for (std::size_t i = lo; i < hi; ++i) {
        lists[std::hash<std::int64_t>{}(data[i].first) % kReduces].push_back(
            data[i]);
      }
      for (int r = 0; r < kReduces; ++r) {
        EXPECT_EQ(output->buckets[r], serde::EncodeToBytes(lists[r]))
            << "map " << m << " bucket " << r;
      }
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace pstk::spark
