#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "mr/mr.h"
#include "obs/obs.h"
#include "serde/serde.h"
#include "sim/engine.h"

namespace pstk::mr {
namespace {

// Word-count style fixture over a small synthetic corpus.
struct MrFixture {
  explicit MrFixture(std::size_t nodes = 4, double scale = 1.0,
                     dfs::DfsOptions dfs_options = SmallBlocks()) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes), scale);
    dfs = std::make_unique<dfs::MiniDfs>(*cluster, dfs_options);
    MrOptions options;
    options.jvm_startup_per_task = Millis(50);  // keep tests snappy
    options.job_setup = Millis(100);
    mr = std::make_unique<MrEngine>(*cluster, *dfs, options);
  }
  static dfs::DfsOptions SmallBlocks() {
    dfs::DfsOptions o;
    o.block_size = 2 * kKiB;
    return o;
  }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::unique_ptr<MrEngine> mr;
};

std::string WordCorpus(int lines) {
  static const char* words[] = {"spark", "hadoop", "mpi", "openmp", "shmem"};
  std::string out;
  for (int i = 0; i < lines; ++i) {
    out += words[i % 5];
    out += ' ';
    out += words[(i * 7) % 5];
    out += '\n';
  }
  return out;
}

MapFn WordCountMap() {
  return [](const std::string& line, Emitter& out) {
    std::size_t pos = 0;
    while (pos < line.size()) {
      auto space = line.find(' ', pos);
      if (space == std::string::npos) space = line.size();
      if (space > pos) out.Emit(line.substr(pos, space - pos), "1");
      pos = space + 1;
    }
  };
}

ReduceFn WordCountReduce() {
  return [](const std::string& key, const std::vector<std::string>& values,
            Emitter& out) {
    std::int64_t sum = 0;
    for (const auto& v : values) sum += std::stoll(v);
    out.Emit(key, std::to_string(sum));
  };
}

std::map<std::string, std::int64_t> ParseOutput(MrFixture& f,
                                                const std::string& dir,
                                                int reducers) {
  std::map<std::string, std::int64_t> counts;
  for (int r = 0; r < reducers; ++r) {
    const std::string path = dir + "/part-r-" + std::to_string(r);
    auto stat = f.dfs->Stat(path);
    if (!stat.ok()) continue;
    // The job's run is over: read each part file back with one more
    // process in a further run of the same engine.
    std::string content;
    f.engine.Spawn("post-reader", [&, path](sim::Context& ctx) {
      auto data = f.dfs->ReadAll(ctx, 0, path);
      if (data.ok()) content = data.value().ToString();
    });
    EXPECT_TRUE(f.engine.Run().status.ok());
    std::size_t pos = 0;
    while (pos < content.size()) {
      auto nl = content.find('\n', pos);
      if (nl == std::string::npos) nl = content.size();
      const std::string line = content.substr(pos, nl - pos);
      pos = nl + 1;
      const auto tab = line.find('\t');
      if (tab == std::string::npos) continue;
      counts[line.substr(0, tab)] += std::stoll(line.substr(tab + 1));
    }
  }
  return counts;
}

TEST(MrTest, WordCountCorrectness) {
  MrFixture f;
  const int lines = 2000;
  ASSERT_TRUE(f.dfs->Install("/in/corpus.txt", WordCorpus(lines)).ok());

  JobConf conf;
  conf.input_path = "/in/corpus.txt";
  conf.output_path = "/out/wc";
  conf.num_reducers = 3;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->elapsed, 0.0);
  EXPECT_GT(result->counters.map_tasks, 1u);
  EXPECT_EQ(result->counters.reduce_tasks, 3u);
  EXPECT_EQ(result->counters.input_records, static_cast<std::uint64_t>(lines));
  EXPECT_EQ(result->counters.map_output_records,
            static_cast<std::uint64_t>(2 * lines));

  auto counts = ParseOutput(f, "/out/wc", 3);
  std::int64_t total = 0;
  for (const auto& [word, count] : counts) total += count;
  EXPECT_EQ(total, 2 * lines);
  // Every word appears (corpus cycles through all five).
  EXPECT_EQ(counts.size(), 5u);
}

TEST(MrTest, CombinerReducesShuffleVolume) {
  auto run = [](bool with_combiner) {
    MrFixture f;
    EXPECT_TRUE(f.dfs->Install("/in/c.txt", WordCorpus(3000)).ok());
    JobConf conf;
    conf.input_path = "/in/c.txt";
    conf.output_path = with_combiner ? "/out/comb" : "/out/nocomb";
    conf.num_reducers = 2;
    auto result = f.mr->RunJob(
        conf, WordCountMap(), WordCountReduce(),
        with_combiner ? std::optional<ReduceFn>(WordCountReduce())
                      : std::nullopt);
    EXPECT_TRUE(result.ok());
    return result->counters;
  };
  const Counters without = run(false);
  const Counters with = run(true);
  EXPECT_LT(with.shuffled_bytes, without.shuffled_bytes / 4);
  EXPECT_LT(with.spilled_bytes, without.spilled_bytes / 4);
}

TEST(MrTest, IntermediateResultsHitDisk) {
  // The paper's structural point: Hadoop persists map outputs on disk.
  MrFixture f;
  ASSERT_TRUE(f.dfs->Install("/in/d.txt", WordCorpus(2000)).ok());
  JobConf conf;
  conf.input_path = "/in/d.txt";
  conf.output_path = "/out/d";
  conf.write_output = false;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->counters.spilled_bytes, 0u);
  EXPECT_GT(result->counters.shuffled_bytes, 0u);
}

TEST(MrTest, MoreReducersSpreadOutput) {
  MrFixture f;
  ASSERT_TRUE(f.dfs->Install("/in/r.txt", WordCorpus(1000)).ok());
  JobConf conf;
  conf.input_path = "/in/r.txt";
  conf.output_path = "/out/r";
  conf.num_reducers = 5;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok());
  int parts = 0;
  for (int r = 0; r < 5; ++r) {
    if (f.dfs->Exists("/out/r/part-r-" + std::to_string(r))) ++parts;
  }
  EXPECT_EQ(parts, 5);
}

TEST(MrTest, MissingInputFailsCleanly) {
  MrFixture f;
  JobConf conf;
  conf.input_path = "/no/such/file";
  conf.output_path = "/out/x";
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(MrTest, NodeFailureMidJobRecovers) {
  MrFixture f(4);
  // Slow the per-task JVM launch down so tasks are guaranteed to be in
  // flight on every node when the failure hits.
  {
    MrOptions options;
    options.jvm_startup_per_task = Millis(500);
    options.job_setup = Millis(100);
    f.mr = std::make_unique<MrEngine>(*f.cluster, *f.dfs, options);
  }
  ASSERT_TRUE(f.dfs->Install("/in/ft.txt", WordCorpus(4000)).ok());

  JobConf conf;
  conf.input_path = "/in/ft.txt";
  conf.output_path = "/out/ft";
  conf.num_reducers = 2;

  std::optional<Result<JobResult>> outcome;
  f.mr->Submit(conf, WordCountMap(), WordCountReduce(), std::nullopt,
               [&](Result<JobResult> r) { outcome = std::move(r); });
  // Fail node 1 while its workers are mid-map (node 0 hosts the
  // coordinator); DFS re-replicates its blocks.
  f.cluster->FailNode(1, 0.4);
  f.dfs->OnNodeFailed(1, 0.4);
  auto run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_GT((*outcome)->counters.task_retries, 0u);

  auto counts = ParseOutput(f, "/out/ft", 2);
  std::int64_t total = 0;
  for (const auto& [word, count] : counts) total += count;
  EXPECT_EQ(total, 8000);  // 2 words x 4000 lines, nothing lost
}

TEST(MrTest, NodeLossAfterMapsDoneRecovers) {
  // Every map has finished and the one reducer is still in its JVM launch,
  // so the coordinator hears only wait-polls when node 2 fails. Node 2
  // holds completed map outputs but no live worker (both were shrunk away
  // earlier), so no worker exit, task hand-out or completion prompts the
  // coordinator's sweep: only the node failure does.
  MrFixture f(4);
  MrOptions options;
  options.jvm_startup_per_task = Seconds(1);
  options.job_setup = Millis(100);
  options.slots_per_node = 2;  // workers 4 and 5 run on node 2
  f.mr = std::make_unique<MrEngine>(*f.cluster, *f.dfs, options);
  const int lines = 4000;
  ASSERT_TRUE(f.dfs->Install("/in/late.txt", WordCorpus(lines)).ok());

  JobConf conf;
  conf.input_path = "/in/late.txt";
  conf.output_path = "/out/late";
  // The last map to run reads the last input line; 100 ms later every map
  // output is committed and the reducer is launching.
  int mapped = 0;
  SimTime failed_at = -1;
  SimTime rerun_at = -1;
  const MapFn word_count = WordCountMap();
  MapFn map = [&](const std::string& line, Emitter& out) {
    word_count(line, out);
    if (++mapped == lines) {
      failed_at = f.engine.now() + Millis(100);
      f.cluster->FailNode(2, failed_at);
    } else if (mapped == lines + 1) {
      rerun_at = f.engine.now();
    }
  };
  std::optional<Result<JobResult>> outcome;
  const MrEngine::JobHandle job =
      f.mr->Submit(conf, map, WordCountReduce(), std::nullopt,
                   [&](Result<JobResult> r) { outcome = std::move(r); });
  // By 1.5 s workers 4 and 5 have each committed a map and are launching
  // their second.
  f.engine.ScheduleEvent(1.5, [&] {
    f.mr->KillWorker(job, 4);
    f.mr->KillWorker(job, 5);
  });
  auto run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_GT(failed_at, 0);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_GT((*outcome)->counters.task_retries, 0u);
  // The sweep requeues the lost maps at the next wait-poll, so one runs
  // again about a JVM launch later. Leaving them to the reducer's fetch
  // failure would add most of the reducer's own launch on top.
  ASSERT_GT(rerun_at, failed_at);
  EXPECT_LT(rerun_at - failed_at, options.jvm_startup_per_task + Millis(500));

  auto counts = ParseOutput(f, "/out/late", 1);
  std::int64_t total = 0;
  for (const auto& [word, count] : counts) total += count;
  EXPECT_EQ(total, 2 * lines);
  EXPECT_EQ(counts.size(), 5u);
}

TEST(MrTest, NodeLossDuringReducerFetch) {
  // A node fails while the one reducer fetches a map output from it, and
  // the coordinator's sweep drops that output before the fetch ends. The
  // reducer must not touch the dropped output and must carry on with the
  // outputs after it. The failure time comes from a fault-free run's fetch
  // timeline.
  constexpr int kLines = 4000;
  constexpr int kNodes = 4;
  dfs::DfsOptions blocks;
  blocks.block_size = 32 * kMiB;
  const auto submit = [](MrFixture& f,
                         std::optional<Result<JobResult>>& outcome) {
    ASSERT_TRUE(f.dfs->Install("/in/fetch.txt", WordCorpus(kLines)).ok());
    JobConf conf;
    conf.input_path = "/in/fetch.txt";
    conf.output_path = "/out/fetch";
    f.mr->Submit(conf, WordCountMap(), WordCountReduce(), std::nullopt,
                 [&outcome](Result<JobResult> r) { outcome = std::move(r); });
  };

  // Fault-free and traced. The reducer sleeps once per fetch, in map id
  // order, so its wake-ups inside the shuffle span end the fetches. Every
  // other process's dispatch is kept too: any of them means the coordinator
  // hears a message (and sweeps) at about that time.
  SimTime shuffle_begin = -1;
  int reducer_node = -1;
  std::vector<SimTime> fetch_end;
  std::vector<std::pair<SimTime, int>> others;  // (dispatch time, node)
  {
    MrFixture f(kNodes, 1e-4, blocks);
    f.engine.obs().Enable(true);
    std::optional<Result<JobResult>> outcome;
    submit(f, outcome);
    ASSERT_TRUE(f.engine.Run().status.ok());
    ASSERT_TRUE(outcome.has_value() && outcome->ok());
    obs::Registry& reg = f.engine.obs();
    const obs::TagId shuffle = reg.Intern("mr.reduce.shuffle");
    const obs::TagId run = reg.Intern("run");
    std::uint32_t reducer = 0;
    SimTime shuffle_end = -1;
    for (const obs::Event& e : reg.events()) {
      if (e.tag != shuffle) continue;
      if (e.phase == obs::Phase::kBegin) {
        shuffle_begin = e.time;
        reducer = e.track;
        reducer_node = e.node;
      } else if (e.phase == obs::Phase::kEnd) {
        shuffle_end = e.time;
      }
    }
    for (const obs::Event& e : reg.events()) {
      if (e.tag != run || e.phase != obs::Phase::kBegin) continue;
      if (e.track != reducer) {
        others.emplace_back(e.time, e.node);
      } else if (e.time > shuffle_begin && e.time <= shuffle_end) {
        fetch_end.push_back(e.time);
      }
    }
    ASSERT_EQ(fetch_end.size(), (*outcome)->counters.map_tasks);
  }

  // The same run with probes between fetches: the scratch disk whose reads
  // grow during a fetch is its source. Every map is done before the reducer
  // is even launched, so nothing else reads them.
  std::vector<int> source;
  {
    MrFixture f(kNodes, 1e-4, blocks);
    std::optional<Result<JobResult>> outcome;
    submit(f, outcome);
    std::vector<std::vector<Bytes>> probes;
    const auto probe = [&f, &probes] {
      std::vector<Bytes> reads;
      for (int n = 0; n < kNodes; ++n) {
        reads.push_back(f.cluster->scratch_disk(n)->bytes_read());
      }
      probes.push_back(std::move(reads));
    };
    f.engine.ScheduleEvent(shuffle_begin - Millis(1), probe);
    SimTime start = shuffle_begin;
    for (const SimTime end : fetch_end) {
      f.engine.ScheduleEvent((start + end) / 2, probe);
      start = end;
    }
    ASSERT_TRUE(f.engine.Run().status.ok());
    ASSERT_EQ(probes.size(), fetch_end.size() + 1);
    for (std::size_t k = 0; k < fetch_end.size(); ++k) {
      int grew = -1;
      for (int n = 0; n < kNodes; ++n) {
        if (probes[k + 1][n] == probes[k][n]) continue;
        ASSERT_EQ(grew, -1) << "fetch " << k << " read two disks";
        grew = n;
      }
      ASSERT_NE(grew, -1) << "fetch " << k << " read no disk";
      source.push_back(grew);
    }
  }

  // Fail the source of the first fetch from a node that hosts neither the
  // coordinator (node 0) nor the reducer, just after the fetch starts, so
  // that another process runs before the fetch ends.
  int victim = -1;
  SimTime fail_at = -1;
  SimTime start = shuffle_begin;
  for (std::size_t k = 0; k < fetch_end.size() && victim < 0; ++k) {
    const SimTime at = start + 0.1 * (fetch_end[k] - start);
    const bool polled =
        std::any_of(others.begin(), others.end(), [&](const auto& other) {
          return other.first > at && other.first < fetch_end[k] &&
                 other.second != source[k];
        });
    if (source[k] != 0 && source[k] != reducer_node && polled) {
      victim = source[k];
      fail_at = at;
    }
    start = fetch_end[k];
  }
  ASSERT_GE(victim, 0) << "no remote fetch overlaps another process";

  MrFixture f(kNodes, 1e-4, blocks);
  std::optional<Result<JobResult>> outcome;
  submit(f, outcome);
  // The DFS hears of the failure at fail_at through its cluster
  // subscription; calling it directly now would re-place blocks up front.
  f.cluster->FailNode(victim, fail_at);
  const auto run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_GT((*outcome)->counters.task_retries, 0u);
  auto counts = ParseOutput(f, "/out/fetch", 1);
  std::int64_t total = 0;
  for (const auto& [word, count] : counts) total += count;
  EXPECT_EQ(total, 2 * kLines);
}

TEST(MrTest, ReducerInputOrderAndSpillFormat) {
  // One split, three reducers, no combiner. Each reducer must get its keys
  // in ascending unsigned-byte order, each with all its values sorted, and
  // the spill must be serde's vector<pair<string, string>> encoding of each
  // hash partition.
  const std::string prefix(200, 'p');
  std::vector<std::pair<std::string, std::string>> emitted = {
      {"", ""},
      {"", "empty key"},
      {"empty value", ""},
      {"long", std::string(300, 'v')},
      {"long", std::string(128, 'w')},
      {"long", "short"},
      {"dup", "same"},
      {"dup", "other"},
      {"dup", "same"},
      {prefix, "p"},
      {prefix + "b", "pb"},
      {prefix + "a", "pa"},
      {prefix + "a", "pa"},
  };
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    emitted.emplace_back("k" + n, "z" + n);
    emitted.emplace_back("k" + n, "\x80" + n);
    emitted.emplace_back("k" + n, "a" + n);
    emitted.emplace_back("\xc3\xa9t\xc3\xa9" + n, n);  // "été": bytes >= 0x80
    emitted.emplace_back("\xff" + n, n);
    emitted.emplace_back(prefix + "\x80" + n, n);
  }

  MrFixture f;
  ASSERT_TRUE(f.dfs->Install("/in/one.txt", "go\n").ok());
  JobConf conf;
  conf.input_path = "/in/one.txt";
  conf.output_path = "/out/one";
  conf.num_reducers = 3;
  conf.write_output = false;
  const MapFn map = [&emitted](const std::string&, Emitter& out) {
    for (const auto& [key, value] : emitted) out.Emit(key, value);
  };
  std::vector<std::pair<std::string, std::vector<std::string>>> calls;
  const ReduceFn reduce = [&calls](const std::string& key,
                                   const std::vector<std::string>& values,
                                   Emitter&) {
    calls.emplace_back(key, values);
  };
  auto result = f.mr->RunJob(conf, map, reduce);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->counters.map_tasks, 1u);

  const auto unsigned_less = [](const std::string& a, const std::string& b) {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
          return static_cast<unsigned char>(x) < static_cast<unsigned char>(y);
        });
  };
  const auto reducer_of = [](const std::string& key) {
    return std::hash<std::string>{}(key) % 3;
  };
  std::map<std::string, std::vector<std::string>> expected;
  for (const auto& [key, value] : emitted) expected[key].push_back(value);
  for (auto& [key, values] : expected) {
    std::sort(values.begin(), values.end(), unsigned_less);
  }

  // Each reducer owns one hash partition, so the calls on a partition's
  // keys, in call order, are exactly what that reducer was given.
  ASSERT_EQ(calls.size(), expected.size());
  std::vector<std::vector<std::string>> keys(3);
  for (const auto& [key, values] : calls) {
    keys[reducer_of(key)].push_back(key);
    EXPECT_EQ(values, expected[key]) << "key " << key;
  }
  bool mixed = false;  // some reducer gets ASCII and high-byte keys
  for (const auto& reducer_keys : keys) {
    for (std::size_t i = 1; i < reducer_keys.size(); ++i) {
      EXPECT_TRUE(unsigned_less(reducer_keys[i - 1], reducer_keys[i]))
          << reducer_keys[i - 1] << " before " << reducer_keys[i];
    }
    const auto high = [](const std::string& key) {
      return !key.empty() && static_cast<unsigned char>(key[0]) >= 0x80;
    };
    mixed |= std::any_of(reducer_keys.begin(), reducer_keys.end(), high) &&
             !std::all_of(reducer_keys.begin(), reducer_keys.end(), high);
  }
  EXPECT_TRUE(mixed);

  std::vector<std::vector<std::pair<std::string, std::string>>> partitions(3);
  for (const auto& kv : emitted) partitions[reducer_of(kv.first)].push_back(kv);
  Bytes spilled = 0;
  for (auto& partition : partitions) {
    std::sort(partition.begin(), partition.end());
    spilled += serde::EncodedSize(partition);
  }
  EXPECT_EQ(result->counters.spilled_bytes, spilled);
  EXPECT_EQ(result->counters.shuffled_bytes, spilled);
}

// Seeded records for the grouping tests: one hot key, keys and values that
// agree in their first 8 bytes and differ after them, "a" beside "a\0",
// bytes >= 0x80, empty keys and values, and duplicate (key, value) pairs.
std::vector<std::pair<std::string, std::string>> GroupingRecords() {
  using namespace std::string_literals;
  Rng rng(4242);
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.Below(from.size())];
  };
  const auto tail = [&rng](std::size_t max_len) {
    static const std::string kAlphabet = "\0" "19\x80\xff"s;
    std::string out(rng.Below(max_len + 1), ' ');
    for (char& c : out) c = kAlphabet[rng.Below(kAlphabet.size())];
    return out;
  };
  const std::vector<std::string> key_heads = {
      "", "a", "a\0"s, "samepref", "\xc3\xa9t\xc3\xa9", "\xff\xff"};
  const std::vector<std::string> value_heads = {
      "", "a", "a\0"s, "1234567", "12345678", std::string(8, '\x80')};
  std::vector<std::string> keys;
  for (int k = 0; k < 300; ++k) keys.push_back(pick(key_heads) + tail(3));
  std::vector<std::pair<std::string, std::string>> records = {
      {"a", "x"}, {"a\0"s, "x"}, {"", ""}, {"", "v"}, {"k", ""},
      {"sameprefA", "samepref-1"}, {"sameprefB", "samepref-0"},
      {"samepref", "dup"}, {"samepref", "dup"}};
  for (int i = 0; i < 36000; ++i) {
    const bool hot = rng.Below(3) != 0;
    records.emplace_back(hot ? "hot" : pick(keys),
                         pick(value_heads) + tail(4));
  }
  return records;
}

// A MiniMR job over GroupingRecords(): input lines "<lo> <hi> <padding>",
// and the map emits records [lo, hi). The padding spreads the lines over
// several 2 KiB blocks, so several map tasks spill into every reducer.
struct GroupingJob {
  static constexpr int kReducers = 3;
  static constexpr std::size_t kLines = 120;

  GroupingJob() : records(GroupingRecords()) {
    std::string input;
    for (std::size_t l = 0; l < kLines; ++l) {
      input += std::to_string(records.size() * l / kLines) + ' ' +
               std::to_string(records.size() * (l + 1) / kLines) + ' ' +
               std::string(64, 'x') + '\n';
    }
    EXPECT_TRUE(f.dfs->Install("/in/group.txt", input).ok());
  }

  MapFn Map() const {
    return [this](const std::string& line, Emitter& out) {
      char* end = nullptr;
      const std::size_t lo = std::strtoul(line.c_str(), &end, 10);
      const std::size_t hi = std::strtoul(end, nullptr, 10);
      for (std::size_t i = lo; i < hi; ++i) {
        out.Emit(records[i].first, records[i].second);
      }
    };
  }

  /// Each map task's input records, read back block by block after a run.
  std::vector<std::vector<std::pair<std::string, std::string>>> Splits() {
    auto locations = f.dfs->BlockLocations("/in/group.txt");
    EXPECT_TRUE(locations.ok());
    std::vector<std::vector<std::pair<std::string, std::string>>> splits;
    f.engine.Spawn("split-reader", [&](sim::Context& ctx) {
      for (std::size_t b = 0; b < locations.value().size(); ++b) {
        auto block = f.dfs->ReadBlock(ctx, 0, "/in/group.txt", b);
        ASSERT_TRUE(block.ok());
        auto& split = splits.emplace_back();
        const std::string text = block.value().ToString();
        std::size_t pos = 0;
        while (pos < text.size()) {
          std::size_t nl = text.find('\n', pos);
          if (nl == std::string::npos) nl = text.size();
          char* end = nullptr;
          const std::size_t lo = std::strtoul(text.c_str() + pos, &end, 10);
          const std::size_t hi = std::strtoul(end, nullptr, 10);
          split.insert(split.end(), records.begin() + lo, records.begin() + hi);
          pos = nl + 1;
        }
      }
    });
    EXPECT_TRUE(f.engine.Run().status.ok());
    return splits;
  }

  static std::size_t ReducerOf(const std::string& key) {
    return std::hash<std::string>{}(key) % kReducers;
  }

  MrFixture f;
  std::vector<std::pair<std::string, std::string>> records;
};

using Calls = std::vector<std::pair<std::string, std::vector<std::string>>>;

// Every key of `records` in key order, each with all its values sorted;
// std::string compares its bytes as unsigned char.
Calls SortedGroups(
    const std::vector<std::pair<std::string, std::string>>& records) {
  std::map<std::string, std::vector<std::string>> groups;
  for (const auto& [key, value] : records) groups[key].push_back(value);
  Calls out;
  for (auto& [key, values] : groups) {
    std::sort(values.begin(), values.end());
    out.emplace_back(key, std::move(values));
  }
  return out;
}

// Runs the grouping job, with the combiner when one is given, and checks
// that each reducer saw exactly its keys in order with sorted values, and
// that the spills are serde's encoding size of each map's partitions.
void CheckGroupingJob(GroupingJob& job,
                      const std::optional<ReduceFn>& combine) {
  JobConf conf;
  conf.input_path = "/in/group.txt";
  conf.output_path = "/out/group";
  conf.num_reducers = GroupingJob::kReducers;
  conf.write_output = false;
  Calls calls;
  const ReduceFn reduce = [&calls](const std::string& key,
                                   const std::vector<std::string>& values,
                                   Emitter&) {
    calls.emplace_back(key, values);
  };
  auto result = job.f.mr->RunJob(conf, job.Map(), reduce, combine);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto splits = job.Splits();
  ASSERT_GE(splits.size(), 4u);
  ASSERT_EQ(result->counters.map_tasks, splits.size());
  ASSERT_EQ(result->counters.reduce_tasks, 3u);
  ASSERT_EQ(result->counters.task_retries, 0u);

  const Calls oracle = SortedGroups(job.records);
  std::size_t hot_values = 0;
  bool duplicate = false;
  for (const auto& [key, values] : oracle) {
    if (key == "hot") hot_values = values.size();
    duplicate |= std::adjacent_find(values.begin(), values.end()) !=
                 values.end();
  }
  ASSERT_GE(hot_values, 20000u);
  ASSERT_TRUE(duplicate);
  // Calls of one reducer keep their order when filtered out of the log.
  for (std::size_t r = 0; r < GroupingJob::kReducers; ++r) {
    Calls expected;
    Calls got;
    for (const auto& call : oracle) {
      if (GroupingJob::ReducerOf(call.first) == r) expected.push_back(call);
    }
    for (const auto& call : calls) {
      if (GroupingJob::ReducerOf(call.first) == r) got.push_back(call);
    }
    ASSERT_EQ(got.size(), expected.size()) << "reducer " << r;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, expected[i].first)
          << "reducer " << r << " call " << i;
      ASSERT_TRUE(got[i].second == expected[i].second)
          << "reducer " << r << " call " << i << ": the values of key "
          << got[i].first;
    }
  }

  Bytes spilled = 0;
  for (const auto& split : splits) {
    std::vector<std::vector<std::pair<std::string, std::string>>> partitions(
        GroupingJob::kReducers);
    for (const auto& record : split) {
      partitions[GroupingJob::ReducerOf(record.first)].push_back(record);
    }
    for (const auto& partition : partitions) {
      spilled += serde::EncodedSize(partition);
    }
  }
  EXPECT_EQ(result->counters.spilled_bytes, spilled);
  EXPECT_EQ(result->counters.shuffled_bytes, spilled);
}

TEST(MrTest, ReducersSeeEachKeyInOrderWithSortedValues) {
  GroupingJob job;
  CheckGroupingJob(job, std::nullopt);
}

TEST(MrTest, CombinerSeesEachKeyOfItsMapOnceWithSortedValues) {
  // A pass-through combiner that logs its calls: the reducers' input, and
  // so their check, is the same as without it.
  Calls combined;
  const ReduceFn combine = [&combined](const std::string& key,
                                       const std::vector<std::string>& values,
                                       Emitter& out) {
    combined.emplace_back(key, values);
    for (const std::string& value : values) out.Emit(key, value);
  };
  GroupingJob job;
  CheckGroupingJob(job, combine);
  // Over all map tasks, the combiner calls are each task's keys, each
  // once with all of its values in that task, sorted.
  Calls expected;
  for (const auto& split : job.Splits()) {
    const Calls groups = SortedGroups(split);
    expected.insert(expected.end(), groups.begin(), groups.end());
  }
  ASSERT_EQ(combined.size(), expected.size());
  for (const auto& [key, values] : combined) {
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end())) << key;
  }
  std::sort(combined.begin(), combined.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_TRUE(combined == expected);
}

TEST(MrTest, ShrinkRequeuesTheLastRunningMap) {
  // Elastic shrink kills the worker running the last map while the other
  // worker only wait-polls. No node fails and nothing completes, so only
  // the worker's exit can prompt the coordinator to requeue the map.
  MrFixture f(2);
  MrOptions options;
  options.jvm_startup_per_task = Seconds(1);
  options.job_setup = Millis(100);
  options.slots_per_node = 1;
  f.mr = std::make_unique<MrEngine>(*f.cluster, *f.dfs, options);
  ASSERT_TRUE(f.dfs->Install("/in/shrink.txt", WordCorpus(500)).ok());

  JobConf conf;  // three splits
  conf.input_path = "/in/shrink.txt";
  conf.output_path = "/out/shrink";
  conf.write_output = false;
  std::optional<Result<JobResult>> outcome;
  const MrEngine::JobHandle job =
      f.mr->Submit(conf, WordCountMap(), WordCountReduce(), std::nullopt,
                   [&](Result<JobResult> r) { outcome = std::move(r); });
  // Each worker commits a map at ~1.1 s; worker 0 then takes the third.
  f.engine.ScheduleEvent(1.5, [&] { f.mr->KillWorker(job, 0); });
  // A coordinator that never requeued would poll forever: end the run.
  f.engine.ScheduleEvent(600, [&f] {
    for (sim::Pid pid = 0; pid < f.engine.process_count(); ++pid) {
      if (f.engine.IsAlive(pid)) f.engine.KillNow(pid);
    }
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_EQ((*outcome)->counters.task_retries, 1u);
  EXPECT_EQ((*outcome)->counters.map_tasks, 3u);
}

TEST(MrTest, JvmStartupDominatesSmallJobs) {
  // Many tiny tasks: per-task JVM launches dominate elapsed time — the
  // structural reason Hadoop loses to Spark on iterative work (§II-D).
  MrFixture f;
  ASSERT_TRUE(f.dfs->Install("/in/tiny.txt", WordCorpus(64)).ok());
  JobConf conf;
  conf.input_path = "/in/tiny.txt";
  conf.output_path = "/out/tiny";
  conf.write_output = false;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok());
  // 50 ms per task (test option) + 100 ms setup is the floor.
  EXPECT_GE(result->elapsed, 0.15);
}

TEST(MrTest, ScaledRunCostsMoreSimTime) {
  auto elapsed_at_scale = [](double scale) {
    MrFixture f(4, scale);
    EXPECT_TRUE(f.dfs->Install("/in/s.txt", WordCorpus(2000)).ok());
    JobConf conf;
    conf.input_path = "/in/s.txt";
    conf.output_path = "/out/s";
    conf.write_output = false;
    auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
    EXPECT_TRUE(result.ok());
    return result->elapsed;
  };
  EXPECT_GT(elapsed_at_scale(0.01), elapsed_at_scale(1.0) * 1.5);
}

}  // namespace
}  // namespace pstk::mr
