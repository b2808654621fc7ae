#include "jobs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>

#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "mpi/mpi.h"
#include "mr/mr.h"
#include "probe.h"
#include "sim/engine.h"
#include "spark/spark.h"
#include "workloads/pagerank.h"

namespace perfbench {

namespace {

using namespace pstk;
using K = std::int64_t;
using workloads::VertexId;

constexpr double kTolerance = 1e-6;
/// Per-record closures time one call in this many (see KernelScope).
constexpr int kPerRecord = 64;
/// Fig 4's native AnswersCount CPU rate (MPI charges it per byte read).
constexpr SimTime kNativeCpuPerByte = 1.0 / 1.2e9;

/// Host-time bookkeeping of one job: build phase, entry point call, and the
/// kernel time spent inside it.
class JobTimer {
 public:
  JobTimer(JobReport& report, std::string label, std::string paradigm)
      : report_(report),
        kernels_before_(kernels),
        start_(WallNow()),
        cpu_start_(CpuNow()) {
    report_.label = std::move(label);
    report_.paradigm = std::move(paradigm);
  }
  /// End of the build phase; the entry point call starts.
  void Built() {
    const double now = WallNow();
    report_.build_s = now - start_;
    start_ = now;
  }
  /// End of the entry point call. Reads the engine's always-on counters and
  /// the dispatch host time (recorded only while tracing).
  void Ran(sim::Engine& engine) {
    report_.run_s = WallNow() - start_;
    report_.cpu_s = CpuNow() - cpu_start_;
    obs::Registry& reg = engine.obs();
    for (const char* name :
         {"sim.dispatches", "sim.wakes", "sim.spawns", "net.sends.eager",
          "net.sends.rendezvous", "net.sends.async", "dfs.bytes_read",
          "dfs.remote_reads", "shuffle.bytes_fetched"}) {
      report_.layer[name] = static_cast<double>(reg.CounterByName(name));
    }
    const obs::Histogram* dispatch =
        reg.histogram(reg.Intern("sim.dispatch.host_ns"));
    report_.layer["sim.dispatch_host_s"] =
        dispatch == nullptr ? 0.0 : dispatch->sum() * 1e-9;
    report_.layer["kernel.host_s"] = kernels.host_s - kernels_before_.host_s;
    report_.layer["kernel.calls"] =
        static_cast<double>(kernels.calls - kernels_before_.calls);
  }

 private:
  JobReport& report_;
  KernelTotals kernels_before_;
  double start_;
  double cpu_start_;
};

/// Times a MiniDfs::Install (host time, part of the build phase).
Status TimedInstall(dfs::MiniDfs& dfs, const std::string& path,
                    std::string_view content, std::uint64_t seed,
                    JobReport& report) {
  const double start = WallNow();
  Status status = dfs.Install(path, content, seed);
  report.layer["dfs.install_s"] += WallNow() - start;
  return status;
}

void CheckRanks(double max_delta, JobReport& report) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "|err|=%.3g", max_delta);
  report.detail = buf;
  report.ok = max_delta <= kTolerance;
}

void CheckCounts(std::uint64_t questions, std::uint64_t answers,
                 const workloads::StackExchangeStats& truth,
                 JobReport& report) {
  report.detail = "Q=" + std::to_string(questions) +
                  " A=" + std::to_string(answers);
  report.ok = questions == truth.questions && answers == truth.answers;
}

void Fail(const Status& status, JobReport& report) {
  report.ok = false;
  report.detail = status.ToString();
}

double PageRankRecords(const PageRankInputs& in) {
  return static_cast<double>(in.graph.edge_count()) * in.iterations;
}

std::string FormatRank(double rank) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", rank);
  return buf;
}

/// Folds "v\trank ..." lines into `dense` (the MR PageRank output format).
void ParseRankLines(const std::string& text, std::vector<double>& dense) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto eol = text.find('\n', pos);
    const auto end = eol == std::string::npos ? text.size() : eol;
    const auto tab = text.find('\t', pos);
    if (tab != std::string::npos && tab < end) {
      const auto v = static_cast<std::size_t>(
          std::strtoll(text.c_str() + pos, nullptr, 10));
      if (v < dense.size()) {
        dense[v] = std::strtod(text.c_str() + tab + 1, nullptr);
      }
    }
    pos = end + 1;
  }
}

}  // namespace

JobReport RunMpiPageRank(const PageRankInputs& in, int nodes, int ppn,
                         bool trace) {
  JobReport report;
  JobTimer timer(report, "mpi nodes=" + std::to_string(nodes), "mpi");
  sim::Engine engine;
  engine.EnableTrace(trace);
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes));
  mpi::World world(cluster, nodes * ppn, ppn);
  timer.Built();

  const workloads::Graph& graph = in.graph;
  const VertexId n = graph.vertices;
  double max_delta = 0;
  std::uint64_t allreduce_calls = 0;
  auto elapsed = world.RunSpmd([&](mpi::Comm& comm) {
    static KernelSite scatter_site;
    static KernelSite update_site;
    static KernelSite check_site;
    comm.Barrier();
    const auto lo = static_cast<VertexId>(std::uint64_t{n} *
                                          static_cast<unsigned>(comm.rank()) /
                                          static_cast<unsigned>(comm.size()));
    const auto hi = static_cast<VertexId>(
        std::uint64_t{n} * static_cast<unsigned>(comm.rank() + 1) /
        static_cast<unsigned>(comm.size()));
    std::vector<double> local_ranks(hi - lo, 1.0);
    std::vector<double> contrib(n, 0.0);
    std::vector<double> summed(n, 0.0);
    for (int iter = 0; iter < in.iterations; ++iter) {
      {
        KernelScope scope(scatter_site);
        std::fill(contrib.begin(), contrib.end(), 0.0);
        for (VertexId v = lo; v < hi; ++v) {
          const std::size_t degree = graph.out_degree(v);
          if (degree == 0) continue;
          const double share =
              local_ranks[v - lo] / static_cast<double>(degree);
          for (std::uint64_t e = graph.offsets[v]; e < graph.offsets[v + 1];
               ++e) {
            contrib[graph.targets[e]] += share;
          }
        }
      }
      const auto local_edges = graph.offsets[hi] - graph.offsets[lo];
      comm.ctx().Compute(
          cluster.ComputeTime(static_cast<double>(local_edges + n), 1));
      comm.Allreduce<double>(contrib, summed);
      ++allreduce_calls;
      {
        KernelScope scope(update_site);
        for (VertexId v = lo; v < hi; ++v) {
          local_ranks[v - lo] =
              workloads::kBaseRank + workloads::kDamping * summed[v];
        }
      }
      comm.ctx().Compute(cluster.ComputeTime(static_cast<double>(n), 1));
    }
    if (comm.rank() == 0) {
      KernelScope scope(check_site);
      std::vector<double> ranks(n, 1.0);
      if (in.iterations > 0) {
        for (VertexId v = 0; v < n; ++v) {
          ranks[v] = workloads::kBaseRank + workloads::kDamping * summed[v];
        }
      }
      max_delta = workloads::MaxRankDelta(ranks, in.reference);
    }
  });
  timer.Ran(engine);
  report.records = PageRankRecords(in);
  report.layer["mpi.allreduce_calls"] = static_cast<double>(allreduce_calls);
  report.layer["mpi.allreduce_bytes"] =
      static_cast<double>(allreduce_calls) * n * sizeof(double);
  if (!elapsed.ok()) {
    Fail(elapsed.status(), report);
    return report;
  }
  report.virtual_s = elapsed.value();
  CheckRanks(max_delta, report);
  return report;
}

JobReport RunSparkPageRank(const PageRankInputs& in, int nodes, int ppn,
                           bool rdma, bool tuned, bool trace) {
  JobReport report;
  JobTimer timer(report,
                 std::string(tuned ? "spark-bdb" : "spark-hibench") +
                     (rdma ? "-rdma" : "") + " nodes=" + std::to_string(nodes),
                 "spark");
  sim::Engine engine;
  engine.EnableTrace(trace);
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes));
  spark::SparkOptions options;
  options.executors_per_node = ppn;
  options.rdma_shuffle = rdma;
  spark::MiniSpark spark(cluster, nullptr, options);
  timer.Built();

  Status job_status;
  double max_delta = 0;
  auto result = spark.RunApp([&](spark::SparkContext& sc) {
    static KernelSite init_site;
    static KernelSite contrib_site;
    static KernelSite merge_site;
    static KernelSite update_site;
    static KernelSite check_site;
    const int parts = sc.default_parallelism();
    auto links = sc.Parallelize(in.links, parts).AsPairs<K, std::vector<K>>();
    if (tuned) {
      links = links.PartitionBy(parts);
      links.Persist(spark::StorageLevel::kMemoryAndDisk);
    }
    auto ranks = links.MapValues<double>([](const std::vector<K>&) {
      KernelScope scope(init_site, kPerRecord);
      return 1.0;
    });
    for (int i = 0; i < in.iterations; ++i) {
      // Narrow join when co-partitioned (tuned); otherwise both sides
      // shuffle every iteration.
      auto contribs =
          links.Join(ranks)
              .AsRdd()
              .FlatMap<std::pair<K, double>>(
                  [](const std::pair<K, std::pair<std::vector<K>, double>>&
                         entry) {
                    KernelScope scope(contrib_site, kPerRecord);
                    const auto& [src, pair] = entry;
                    const auto& [urls, rank] = pair;
                    std::vector<std::pair<K, double>> out;
                    out.reserve(urls.size() + 1);
                    out.emplace_back(src, 0.0);
                    const double share =
                        rank / static_cast<double>(urls.size());
                    for (K url : urls) out.emplace_back(url, share);
                    return out;
                  })
              .AsPairs<K, double>();
      auto summed = contribs.ReduceByKey(
          [](double a, double b) {
            KernelScope scope(merge_site, kPerRecord);
            return a + b;
          },
          parts);
      ranks = summed.MapValues<double>([](const double& sum) {
        KernelScope scope(update_site, kPerRecord);
        return workloads::kBaseRank + workloads::kDamping * sum;
      });
      if (tuned) ranks.Persist(spark::StorageLevel::kMemoryAndDisk);
      auto count = ranks.Count();  // materialize each step (BigDataBench)
      if (!count.ok()) {
        job_status = count.status();
        return;
      }
    }
    auto final_ranks = ranks.CollectAsMap();
    if (!final_ranks.ok()) {
      job_status = final_ranks.status();
      return;
    }
    KernelScope scope(check_site);
    std::vector<double> dense(in.reference.size(), workloads::kBaseRank);
    for (const auto& [v, r] : final_ranks.value()) {
      if (v >= 0 && static_cast<std::size_t>(v) < dense.size()) {
        dense[static_cast<std::size_t>(v)] = r;
      }
    }
    max_delta = workloads::MaxRankDelta(dense, in.reference);
  });
  timer.Ran(engine);
  report.records = PageRankRecords(in);
  report.layer["spark.iterations"] = in.iterations;
  if (!result.ok() || !job_status.ok()) {
    Fail(result.ok() ? job_status : result.status(), report);
    return report;
  }
  const spark::AppStats& stats = result->stats;
  report.layer["spark.tasks"] = static_cast<double>(stats.tasks_launched);
  report.layer["spark.cache_hits"] = static_cast<double>(stats.cache_hits);
  report.layer["spark.cache_misses"] = static_cast<double>(stats.cache_misses);
  report.virtual_s = result->elapsed;
  CheckRanks(max_delta, report);
  return report;
}

JobReport RunMrPageRank(const PageRankInputs& in, int nodes, bool trace) {
  JobReport report;
  JobTimer timer(report, "mr nodes=" + std::to_string(nodes), "mr");
  sim::Engine engine;
  engine.EnableTrace(trace);
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes));
  dfs::DfsOptions dfs_options;
  dfs_options.block_size = 256 * kKiB;  // a dozen map splits per job
  dfs::MiniDfs dfs(cluster, dfs_options);
  if (Status s = TimedInstall(dfs, "/pr/iter-0", in.text, 97, report);
      !s.ok()) {
    Fail(s, report);
    return report;
  }
  mr::MrEngine mr_engine(cluster, dfs);
  timer.Built();

  // The closures parse and format inside their KernelScope and emit
  // outside it: Emit is the framework's code.
  auto map = [](const std::string& line, mr::Emitter& emit) {
    static KernelSite site;
    std::string key;
    std::vector<std::string> targets;
    std::string share;
    std::string links = "L";
    {
      KernelScope scope(site, kPerRecord);
      const auto tab = line.find('\t');
      if (tab == std::string::npos) return;
      key = line.substr(0, tab);
      char* cursor = nullptr;
      const double rank = std::strtod(line.c_str() + tab + 1, &cursor);
      while (cursor != nullptr && *cursor == ' ') {
        const char* start = ++cursor;
        while (*cursor != '\0' && *cursor != ' ') ++cursor;
        targets.emplace_back(start, static_cast<std::size_t>(cursor - start));
        links += ' ';
        links += targets.back();
      }
      if (!targets.empty()) {
        share = FormatRank(rank / static_cast<double>(targets.size()));
      }
    }
    for (const std::string& target : targets) emit.Emit(target, share);
    emit.Emit(key, links);  // every vertex survives into the next iteration
  };
  auto reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& emit) {
    static KernelSite site;
    std::string line;
    {
      KernelScope scope(site, kPerRecord);
      double sum = 0;
      std::string links;
      for (const std::string& value : values) {
        if (!value.empty() && value[0] == 'L') {
          links = value.size() > 1 ? value.substr(2) : std::string();
        } else {
          sum += std::strtod(value.c_str(), nullptr);
        }
      }
      line = FormatRank(workloads::kBaseRank + workloads::kDamping * sum);
      if (!links.empty()) {
        line += ' ';
        line += links;
      }
    }
    emit.Emit(key, std::move(line));
  };

  Status status;
  double max_delta = 0;
  double virtual_s = 0;
  mr::Counters totals;
  std::function<void(int)> chain = [&](int iter) {
    if (iter == in.iterations) {
      engine.Spawn("check", [&](sim::Context& ctx) {
        static KernelSite site;
        virtual_s = ctx.now();
        std::vector<double> dense(in.reference.size(), workloads::kBaseRank);
        for (int r = 0; r < nodes; ++r) {
          auto content = dfs.ReadAll(ctx, 0,
                                     "/pr/iter-" + std::to_string(iter) +
                                         "/part-r-" + std::to_string(r));
          if (!content.ok()) {
            status = content.status();
            return;
          }
          KernelScope scope(site);
          ParseRankLines(content.value().ToString(), dense);
        }
        KernelScope scope(site);
        max_delta = workloads::MaxRankDelta(dense, in.reference);
      });
      return;
    }
    mr::JobConf conf;
    conf.name = "pr-" + std::to_string(iter);
    conf.input_path = "/pr/iter-" + std::to_string(iter);
    conf.output_path = "/pr/iter-" + std::to_string(iter + 1);
    conf.num_reducers = nodes;
    mr_engine.Submit(conf, map, reduce, std::nullopt,
                     [&, iter](Result<mr::JobResult> job) {
                       if (!job.ok()) {
                         status = job.status();
                         return;
                       }
                       totals.spilled_bytes += job->counters.spilled_bytes;
                       totals.shuffled_bytes += job->counters.shuffled_bytes;
                       totals.map_output_records +=
                           job->counters.map_output_records;
                       chain(iter + 1);
                     });
  };
  chain(0);
  const sim::RunResult run = engine.Run();
  timer.Ran(engine);
  report.records = PageRankRecords(in);
  report.layer["mr.spilled_bytes"] = static_cast<double>(totals.spilled_bytes);
  report.layer["mr.shuffled_bytes"] =
      static_cast<double>(totals.shuffled_bytes);
  report.layer["mr.map_output_records"] =
      static_cast<double>(totals.map_output_records);
  if (status.ok()) status = run.status;
  if (!status.ok()) {
    Fail(status, report);
    return report;
  }
  report.virtual_s = virtual_s;
  CheckRanks(max_delta, report);
  return report;
}

JobReport RunMpiAnswers(const PostInputs& in, int procs, int ppn, bool trace) {
  JobReport report;
  JobTimer timer(report, "mpi procs=" + std::to_string(procs),
                 "mpi");
  const int nodes = (procs + ppn - 1) / ppn;
  sim::Engine engine;
  engine.EnableTrace(trace);
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes),
                           in.scale);
  for (int node = 0; node < nodes; ++node) {
    cluster.scratch(node).Install("/scratch/posts.txt", in.data);
  }
  mpi::World world(cluster, procs, ppn);
  timer.Built();

  std::vector<std::uint64_t> total(2, 0);
  auto elapsed = world.RunSpmd([&](mpi::Comm& comm) {
    static KernelSite site;
    auto file = mpi::File::OpenAll(comm, "/scratch/posts.txt");
    if (!file.ok()) return;
    const Bytes chunk = file->size() / comm.size();
    const Bytes offset = chunk * comm.rank();
    const Bytes len =
        comm.rank() == comm.size() - 1 ? file->size() - offset : chunk;
    auto part =
        file->ReadLinesAtAll(comm, offset, static_cast<std::int64_t>(len));
    if (!part.ok()) return;
    workloads::StackExchangeStats counts;
    {
      KernelScope scope(site);
      counts = workloads::CountPosts(part.value());
    }
    comm.ctx().Compute(static_cast<double>(len) * kNativeCpuPerByte);
    const std::vector<std::uint64_t> mine{counts.questions, counts.answers};
    std::vector<std::uint64_t> sum(2, 0);
    comm.Reduce<std::uint64_t>(mine, sum, 0);
    if (comm.rank() == 0) total = sum;
  });
  timer.Ran(engine);
  report.records = static_cast<double>(in.lines);
  if (!elapsed.ok()) {
    Fail(elapsed.status(), report);
    return report;
  }
  report.virtual_s = elapsed.value();
  CheckCounts(total[0], total[1], in.truth, report);
  return report;
}

JobReport RunMrAnswers(const PostInputs& in, int nodes, int ppn, bool trace) {
  JobReport report;
  JobTimer timer(report, "mr nodes=" + std::to_string(nodes), "mr");
  sim::Engine engine;
  engine.EnableTrace(trace);
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes),
                           in.scale);
  dfs::MiniDfs dfs(cluster);  // 128 MB modeled blocks
  if (Status s = TimedInstall(dfs, "/in/posts.txt", in.data, 0, report);
      !s.ok()) {
    Fail(s, report);
    return report;
  }
  mr::MrOptions options;
  options.slots_per_node = ppn;
  mr::MrEngine mr_engine(cluster, dfs, options);
  timer.Built();

  auto map = [](const std::string& line, mr::Emitter& out) {
    static KernelSite site;
    workloads::PostKind kind;
    {
      KernelScope scope(site, kPerRecord);
      kind = workloads::ClassifyPost(line);
    }
    switch (kind) {
      case workloads::PostKind::kQuestion: out.Emit("Q", "1"); break;
      case workloads::PostKind::kAnswer: out.Emit("A", "1"); break;
      default: break;
    }
  };
  auto reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& out) {
    static KernelSite site;
    std::int64_t sum = 0;
    {
      KernelScope scope(site);
      for (const auto& v : values) sum += std::strtoll(v.c_str(), nullptr, 10);
    }
    out.Emit(key, std::to_string(sum));
  };

  Status status;
  std::uint64_t counts[2] = {0, 0};  // questions, answers
  mr::JobConf conf;
  conf.input_path = "/in/posts.txt";
  conf.output_path = "/out/ac";
  conf.num_reducers = 1;
  mr_engine.Submit(conf, map, reduce, reduce, [&](Result<mr::JobResult> job) {
    if (!job.ok()) {
      status = job.status();
      return;
    }
    report.virtual_s = job->elapsed;
    report.layer["mr.spilled_bytes"] =
        static_cast<double>(job->counters.spilled_bytes);
    report.layer["mr.shuffled_bytes"] =
        static_cast<double>(job->counters.shuffled_bytes);
    report.layer["mr.map_output_records"] =
        static_cast<double>(job->counters.map_output_records);
    engine.Spawn("check", [&](sim::Context& ctx) {
      static KernelSite site;
      auto content = dfs.ReadAll(ctx, 0, "/out/ac/part-r-0");
      if (!content.ok()) {
        status = content.status();
        return;
      }
      KernelScope scope(site);
      const std::string text = content.value().ToString();
      for (std::size_t pos = 0; pos + 2 < text.size();) {
        const auto eol = std::min(text.find('\n', pos), text.size());
        if (text[pos + 1] == '\t' && (text[pos] == 'Q' || text[pos] == 'A')) {
          counts[text[pos] == 'Q' ? 0 : 1] =
              std::strtoull(text.c_str() + pos + 2, nullptr, 10);
        }
        pos = eol + 1;
      }
    });
  });
  const sim::RunResult run = engine.Run();
  timer.Ran(engine);
  report.records = static_cast<double>(in.lines);
  if (status.ok()) status = run.status;
  if (!status.ok()) {
    Fail(status, report);
    return report;
  }
  CheckCounts(counts[0], counts[1], in.truth, report);
  return report;
}

JobReport RunSparkAnswers(const PostInputs& in, int nodes, int ppn,
                          bool trace) {
  JobReport report;
  JobTimer timer(report, "spark nodes=" + std::to_string(nodes),
                 "spark");
  sim::Engine engine;
  engine.EnableTrace(trace);
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes),
                           in.scale);
  dfs::MiniDfs dfs(cluster);
  if (Status s = TimedInstall(dfs, "/in/posts.txt", in.data, 0, report);
      !s.ok()) {
    Fail(s, report);
    return report;
  }
  spark::SparkOptions options;
  options.executors_per_node = ppn;
  spark::MiniSpark spark(cluster, &dfs, options);
  timer.Built();

  using Counts = std::pair<std::uint64_t, std::uint64_t>;
  Status job_status;
  Counts total{0, 0};
  auto result = spark.RunApp([&](spark::SparkContext& sc) {
    auto lines = sc.TextFile("/in/posts.txt");
    if (!lines.ok()) {
      job_status = lines.status();
      return;
    }
    auto counted = lines->Map<Counts>([](const std::string& line) {
                          static KernelSite site;
                          KernelScope scope(site, kPerRecord);
                          switch (workloads::ClassifyPost(line)) {
                            case workloads::PostKind::kQuestion:
                              return Counts{1, 0};
                            case workloads::PostKind::kAnswer:
                              return Counts{0, 1};
                            default:
                              return Counts{0, 0};
                          }
                        })
                       .Reduce([](const Counts& a, const Counts& b) {
                         static KernelSite site;
                         KernelScope scope(site, kPerRecord);
                         return Counts{a.first + b.first, a.second + b.second};
                       });
    if (!counted.ok()) {
      job_status = counted.status();
      return;
    }
    total = counted.value();
  });
  timer.Ran(engine);
  report.records = static_cast<double>(in.lines);
  if (!result.ok() || !job_status.ok()) {
    Fail(result.ok() ? job_status : result.status(), report);
    return report;
  }
  const spark::AppStats& stats = result->stats;
  report.layer["spark.tasks"] = static_cast<double>(stats.tasks_launched);
  report.layer["spark.cache_hits"] = static_cast<double>(stats.cache_hits);
  report.layer["spark.cache_misses"] = static_cast<double>(stats.cache_misses);
  report.virtual_s = result->elapsed;
  CheckCounts(total.first, total.second, in.truth, report);
  return report;
}

}  // namespace perfbench
