// Figure 3: the reduce microbenchmark — OSU-style MPI_Reduce latency vs
// the equivalent Spark parallelize().reduce() job, on 64 processes
// (8 nodes x 8 processes/node), for element counts from 4 B to 1 MB of
// floats per process.
//
// Spark semantics per the paper (§V-B1): the Spark array length equals
// (number of processes) x (MPI per-process array length), reduced to one
// scalar; Spark-RDMA differs only in the shuffle engine, which this
// benchmark barely exercises — hence its marginal effect.
//
//   ./build/bench/fig3_reduce [procs=64] [ppn=8] [iters=5]
//
// Exits non-zero, naming each failure on stderr, unless the paper's two
// claims hold: MPI is at least 100x faster than Spark at 4 B, and
// Spark-RDMA is within 1% of Spark at each size (ctest diffs the stdout).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_opts.h"
#include "cluster/cluster.h"
#include "common/config.h"
#include "common/table.h"
#include "mpi/mpi.h"
#include "sim/engine.h"
#include "spark/spark.h"

using namespace pstk;

namespace {

SimTime MeasureMpiReduce(int procs, int ppn, Bytes message_bytes, int iters) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(
                                       (procs + ppn - 1) / ppn));
  mpi::World world(cluster, procs, ppn);
  bench::Observability::Instance().Attach(engine);
  SimTime per_op = 0;
  auto elapsed = world.RunSpmd([&](mpi::Comm& comm) {
    const std::size_t elements = message_bytes / sizeof(float);
    std::vector<float> data(std::max<std::size_t>(1, elements), 1.0F);
    std::vector<float> out(data.size());
    comm.Barrier();
    const SimTime start = comm.ctx().now();
    for (int i = 0; i < iters; ++i) {
      comm.Reduce<float>(data, out, /*root=*/0);
    }
    comm.Barrier();
    if (comm.rank() == 0) {
      per_op = (comm.ctx().now() - start) / iters;
    }
  });
  bench::Observability::Instance().Collect(
      engine, "mpi-reduce " + FormatBytes(message_bytes));
  if (!elapsed.ok()) return -1;
  return per_op;
}

SimTime MeasureSparkReduce(int procs, int ppn, Bytes message_bytes, int iters,
                           bool rdma) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(
                                       (procs + ppn - 1) / ppn));
  spark::SparkOptions options;
  options.executors_per_node = ppn;
  options.rdma_shuffle = rdma;
  spark::MiniSpark spark(cluster, nullptr, options);
  bench::Observability::Instance().Attach(engine);

  SimTime per_op = -1;
  auto result = spark.RunApp([&](spark::SparkContext& sc) {
    // 'size' = number_of_processes * MPI_array_size (paper Fig 2).
    const std::size_t elements =
        std::max<std::size_t>(1, message_bytes / sizeof(float)) *
        static_cast<std::size_t>(procs);
    const SimTime start = sc.ctx().now();
    for (int i = 0; i < iters; ++i) {
      std::vector<float> zeros(elements, 1.0F);
      auto rdd = sc.Parallelize(std::move(zeros), procs);
      auto sum = rdd.Reduce([](const float& a, const float& b) {
        return a + b;
      });
      if (!sum.ok()) return;
    }
    per_op = (sc.ctx().now() - start) / iters;
  });
  bench::Observability::Instance().Collect(
      engine, std::string("spark-reduce ") + FormatBytes(message_bytes) +
                  (rdma ? " rdma" : ""));
  if (!result.ok()) return -1;
  return per_op;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Observability::Instance().ParseFlags(&argc, argv);
  auto config = Config::FromArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  const int procs = static_cast<int>(config->GetInt("procs", 64));
  const int ppn = static_cast<int>(config->GetInt("ppn", 8));
  const int iters = static_cast<int>(config->GetInt("iters", 5));

  std::printf("Figure 3 — Reduce microbenchmark, %d processes "
              "(%d processes/node)\n\n", procs, ppn);
  Table table;
  table.SetHeader({"msg size/proc", "MPI", "Spark (IPoIB)", "Spark-RDMA",
                   "Spark/MPI"});
  const Bytes sizes[] = {4,        64,        1 * kKiB,  16 * kKiB,
                         128 * kKiB, 512 * kKiB, 1 * kMiB};
  std::vector<std::string> violations;
  for (Bytes size : sizes) {
    const SimTime mpi = MeasureMpiReduce(procs, ppn, size, iters);
    const SimTime sp = MeasureSparkReduce(procs, ppn, size, iters, false);
    const SimTime sp_rdma = MeasureSparkReduce(procs, ppn, size, iters, true);
    if (size == 4 && !(mpi > 0 && sp >= 100 * mpi)) {
      violations.push_back("MPI is not 100x faster than Spark at 4 B");
    }
    if (!(std::abs(sp_rdma - sp) <= 0.01 * sp)) {
      violations.push_back("Spark-RDMA is not within 1% of Spark at " +
                           FormatBytes(size));
    }
    table.Row()
        .Cell(FormatBytes(size))
        .Cell(FormatDuration(mpi))
        .Cell(FormatDuration(sp))
        .Cell(FormatDuration(sp_rdma))
        .Cell(sp / mpi, 0);
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): MPI orders of magnitude faster at every\n"
      "size (asynchronous tuned collectives over RDMA vs driver-scheduled\n"
      "jobs over sockets); Spark-RDMA ~= Spark because this benchmark\n"
      "shuffles almost nothing, so the RDMA shuffle engine is marginal.\n");
  for (const std::string& v : violations) {
    std::fprintf(stderr, "FAIL: %s\n", v.c_str());
  }
  const bool finished = bench::Observability::Instance().Finish();
  return finished && violations.empty() ? 0 : 1;
}
