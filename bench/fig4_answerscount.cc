// Figure 4: the StackExchange AnswersCount benchmark over an 80 GB text
// dataset, swept over process counts (8 processes per node).
//
//  * OpenMP runs only on a single node (8- and 16-core configurations);
//  * MPI uses MPI-IO collective reads whose `int` count caps a rank's
//    chunk at 2 GB — with 80 GiB the job is IMPOSSIBLE below 41 ranks
//    (the paper: "we had to use more than 40 processes");
//  * Hadoop MapReduce persists all intermediate results on disk;
//  * Spark caches/streams in memory and scales best.
//
//   ./build/bench/fig4_answerscount [--smoke] [scale=0.001] [gb=80]
//       [maxprocs=128]
//
// maxprocs=16384 extends the sweep past 10^4 ranks (see EXPERIMENTS.md).
// --smoke sweeps to 512 ranks at scale=0.00002 (about a second) and exits
// non-zero unless the paper's shape holds in every row (ctest runs it).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_opts.h"
#include "buf/bytes.h"
#include "cluster/cluster.h"
#include "common/config.h"
#include "common/table.h"
#include "dfs/dfs.h"
#include "mpi/mpi.h"
#include "mr/mr.h"
#include "sim/engine.h"
#include "spark/spark.h"
#include "workloads/stackexchange.h"

using namespace pstk;

namespace {

constexpr SimTime kNativeCpuPerByte = 1.0 / 1.2e9;

struct Env {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::MiniDfs> dfs;
};

std::unique_ptr<Env> MakeEnv(int nodes, double scale, const std::string& data,
                             bool with_dfs, bool with_local) {
  auto env = std::make_unique<Env>();
  env->cluster = std::make_unique<cluster::Cluster>(
      env->engine, cluster::ClusterSpec::Comet(nodes), scale);
  if (with_dfs) {
    env->dfs = std::make_unique<dfs::MiniDfs>(*env->cluster);  // 128MB blocks
    if (!env->dfs->Install("/in/posts.txt", data).ok()) return nullptr;
  }
  if (with_local) {
    // Every node stages the same bytes: one shared copy, not one per node.
    const buf::Bytes staged = buf::Bytes::Copy(data);
    for (int n = 0; n < nodes; ++n) {
      env->cluster->scratch(n).Install("/scratch/posts.txt", staged);
    }
  }
  bench::Observability::Instance().Attach(env->engine);
  return env;
}

SimTime RunOpenMp(int threads, double scale, const std::string& data) {
  auto env = MakeEnv(1, scale, data, false, true);
  SimTime elapsed = -1;
  env->engine.Spawn("omp", [&](sim::Context& ctx) {
    auto text = env->cluster->scratch(0).ReadAll(ctx, "/scratch/posts.txt");
    if (!text.ok()) return;
    (void)workloads::CountPosts(text.value());  // real kernel
    const double modeled =
        static_cast<double>(env->cluster->Modeled(text.value().size()));
    const double efficiency = 1.0 / (1.0 + 0.02 * (threads - 1));
    ctx.Compute(modeled * kNativeCpuPerByte /
                (static_cast<double>(threads) * efficiency));
    elapsed = ctx.now();
  });
  const bool ok = env->engine.Run().status.ok();
  bench::Observability::Instance().Collect(
      env->engine, "openmp threads=" + std::to_string(threads));
  return ok ? elapsed : -1;
}

/// Returns -1 on infrastructure error, -2 when the int-count limit bites.
SimTime RunMpi(int procs, int ppn, double scale, const std::string& data) {
  const int nodes = (procs + ppn - 1) / ppn;
  auto env = MakeEnv(nodes, scale, data, false, true);
  bool unsupported = false;
  auto elapsed = mpi::World(*env->cluster, procs, ppn)
                     .RunSpmd([&](mpi::Comm& comm) {
    auto file = mpi::File::OpenAll(comm, "/scratch/posts.txt");
    if (!file.ok()) return;
    const Bytes chunk = file->size() / comm.size();
    const Bytes offset = chunk * comm.rank();
    const Bytes len =
        comm.rank() == comm.size() - 1 ? file->size() - offset : chunk;
    // The collective read itself rejects per-rank counts above INT_MAX
    // (the MPI_File_read_at_all `int` count), failing symmetrically on
    // every rank; under --verify this also files an io-overflow finding.
    auto part =
        file->ReadLinesAtAll(comm, offset, static_cast<std::int64_t>(len));
    if (!part.ok()) {
      if (comm.rank() == 0 &&
          part.status().ToString().find("INT_MAX") != std::string::npos) {
        unsupported = true;
      }
      return;
    }
    const auto counts = workloads::CountPosts(part.value());
    comm.ctx().Compute(static_cast<double>(len) * kNativeCpuPerByte);
    const std::vector<std::uint64_t> mine{counts.questions, counts.answers};
    std::vector<std::uint64_t> total(2);
    comm.Reduce<std::uint64_t>(mine, total, 0);
  });
  bench::Observability::Instance().Collect(
      env->engine, "mpi procs=" + std::to_string(procs));
  if (!elapsed.ok()) return -1;
  return unsupported ? -2 : elapsed.value();
}

SimTime RunHadoop(int nodes, int ppn, double scale, const std::string& data) {
  auto env = MakeEnv(nodes, scale, data, true, false);
  mr::MrOptions options;
  options.slots_per_node = ppn;
  mr::MrEngine engine(*env->cluster, *env->dfs, options);
  mr::JobConf conf;
  conf.input_path = "/in/posts.txt";
  conf.output_path = "/out/ac";
  conf.num_reducers = 1;
  auto map = [](const std::string& line, mr::Emitter& out) {
    switch (workloads::ClassifyPost(line)) {
      case workloads::PostKind::kQuestion: out.Emit("Q", "1"); break;
      case workloads::PostKind::kAnswer: out.Emit("A", "1"); break;
      default: break;
    }
  };
  auto reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& out) {
    std::int64_t sum = 0;
    for (const auto& v : values) sum += std::strtoll(v.c_str(), nullptr, 10);
    out.Emit(key, std::to_string(sum));
  };
  auto result = engine.RunJob(conf, map, reduce, reduce);
  bench::Observability::Instance().Collect(
      env->engine, "hadoop nodes=" + std::to_string(nodes));
  return result.ok() ? result->elapsed : -1;
}

SimTime RunSpark(int nodes, int ppn, double scale, const std::string& data) {
  auto env = MakeEnv(nodes, scale, data, true, false);
  spark::SparkOptions options;
  options.executors_per_node = ppn;
  spark::MiniSpark spark(*env->cluster, env->dfs.get(), options);
  SimTime job = -1;
  auto result = spark.RunApp([&](spark::SparkContext& sc) {
    using Counts = std::pair<std::uint64_t, std::uint64_t>;
    auto lines = sc.TextFile("/in/posts.txt");
    if (!lines.ok()) return;
    const SimTime start = sc.ctx().now();
    auto total = lines->Map<Counts>([](const std::string& line) {
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
                       return Counts{a.first + b.first, a.second + b.second};
                     });
    if (!total.ok()) return;
    job = sc.ctx().now() - start;
  });
  bench::Observability::Instance().Collect(
      env->engine, "spark nodes=" + std::to_string(nodes));
  return result.ok() ? job : -1;
}

std::string Cell(SimTime t) {
  if (t == -2) return "N/A (>2GB/rank)";
  if (t < 0) return "error";
  return FormatDuration(t);
}

struct SweepRow {
  int procs = 0;
  SimTime omp = -1;
  SimTime mpi = -1;
  SimTime hadoop = -1;
  SimTime spark = -1;
};

/// The paper's Fig 4 shape at 80 GiB, row by row: MPI is N/A up to 40
/// processes and runs from 48, Hadoop is slower than Spark, OpenMP runs
/// only on one node (8 and 16 processes), and MPI beats Spark wherever it
/// runs. Returns one line per violation.
std::vector<std::string> ShapeViolations(const std::vector<SweepRow>& rows) {
  std::vector<std::string> violations;
  for (const SweepRow& r : rows) {
    auto fail = [&](const char* what) {
      violations.push_back(std::to_string(r.procs) + " procs: " + what);
    };
    if ((r.omp >= 0) != (r.procs <= 16)) fail("OpenMP row out of place");
    if (r.procs <= 40 && r.mpi != -2) {
      fail("MPI ran past the 2 GB/rank limit");
    }
    if (r.procs >= 48 && r.mpi < 0) fail("MPI did not run");
    if (r.spark < 0 || r.hadoop <= r.spark) {
      fail("Hadoop not slower than Spark");
    }
    if (r.mpi >= 0 && r.mpi >= r.spark) fail("MPI not faster than Spark");
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Observability::Instance().ParseFlags(&argc, argv);
  const bool smoke = bench::TakeFlag(&argc, argv, "--smoke");
  auto config = Config::FromArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  const double scale = config->GetDouble("scale", smoke ? 0.00002 : 0.001);
  const Bytes logical =
      static_cast<Bytes>(config->GetInt("gb", 80)) * kGiB;
  // maxprocs extends the paper's 8..128 sweep: 256..1024 ranks are routine
  // on the fiber backend, and maxprocs=16384 sweeps past 10^4 ranks (see
  // EXPERIMENTS.md for the recipe and expected wall times).
  const int maxprocs =
      static_cast<int>(config->GetInt("maxprocs", smoke ? 512 : 128));
  const int ppn = 8;  // paper: 8 processes per node

  workloads::StackExchangeParams params;
  params.target_bytes =
      static_cast<Bytes>(static_cast<double>(logical) * scale);
  const std::string data = workloads::GenerateStackExchange(params, nullptr);

  std::printf("Figure 4 — StackExchange AnswersCount, %s dataset "
              "(%d procs/node, scale=%g)\n\n",
              FormatBytes(logical).c_str(), ppn, scale);

  Table table;
  table.SetHeader({"processes", "nodes", "OpenMP", "MPI", "Hadoop", "Spark"});
  const int proc_counts[] = {8,   16,  24,  32,   40,   48,   64,   96,  128,
                             256, 512, 1024, 2048, 4096, 8192, 16384};
  std::vector<SweepRow> rows;
  for (int procs : proc_counts) {
    if (procs > maxprocs) break;
    const int nodes = procs / ppn;
    SweepRow& row = rows.emplace_back();
    row.procs = procs;
    row.omp = procs <= 16 ? RunOpenMp(procs, scale, data) : -3;
    row.mpi = RunMpi(procs, ppn, scale, data);
    row.hadoop = RunHadoop(nodes, ppn, scale, data);
    row.spark = RunSpark(nodes, ppn, scale, data);
    table.Row()
        .Cell(std::int64_t{procs})
        .Cell(std::int64_t{nodes})
        .Cell(procs <= 16 ? Cell(row.omp) : std::string("single node only"))
        .Cell(Cell(row.mpi))
        .Cell(Cell(row.hadoop))
        .Cell(Cell(row.spark));
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): OpenMP is confined to one node; MPI cannot\n"
      "run below ~41 processes (2 GB int-count limit in MPI-IO) and scales\n"
      "modestly; Hadoop pays disk-persisted intermediates + per-task JVMs;\n"
      "Spark scales best on this I/O-heavy workload.\n");
  bool shape_ok = true;
  if (smoke) {
    const std::vector<std::string> violations = ShapeViolations(rows);
    for (const std::string& v : violations) {
      std::fprintf(stderr, "FAIL: %s\n", v.c_str());
    }
    shape_ok = violations.empty();
    std::printf("\nShape check (--smoke): %s\n", shape_ok ? "ok" : "FAILED");
  }
  return bench::Observability::Instance().Finish() && shape_ok ? 0 : 1;
}
