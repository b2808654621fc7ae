// Figure 6: BigDataBench PageRank (the *tuned* implementation of the
// paper's Fig 5 — partitioned link table, persisted per-step RDDs), MPI vs
// Spark vs Spark-RDMA, 16 processes/node, swept over node counts.
//
// The paper runs 1,000,000 vertices; the default here is a 300,000-vertex
// instance of the same power-law family so the benchmark executes end to
// end in seconds (pass vertices=1000000 for the full size).
//
// Exits 1, with a FAIL: line per broken claim on stderr, unless Spark gets
// faster with each added node count, Spark-RDMA stays within 5% of Spark,
// and MPI is at least 5x faster than Spark at every node count. Spark
// falls monotonically only at the default size: smaller graphs flatten
// its 4- and 8-node times.
//
//   ./build/bench/fig6_pagerank_bdb [vertices=300000] [iters=5]
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_opts.h"
#include "common/config.h"
#include "common/table.h"
#include "pagerank_common.h"
#include "workloads/pagerank.h"

using namespace pstk;

int main(int argc, char** argv) {
  bench::Observability::Instance().ParseFlags(&argc, argv);
  auto config = Config::FromArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  workloads::GraphParams gparams;
  gparams.vertices =
      static_cast<workloads::VertexId>(config->GetInt("vertices", 300000));
  const int iters = static_cast<int>(config->GetInt("iters", 5));

  const workloads::Graph graph = workloads::GenerateGraph(gparams);
  const auto reference = workloads::PageRankReference(graph, iters);

  std::printf("Figure 6 — BigDataBench PageRank (tuned, persist), "
              "%u vertices, %llu edges, %d iterations, 16 procs/node\n\n",
              graph.vertices,
              static_cast<unsigned long long>(graph.edge_count()), iters);

  Table table;
  table.SetHeader({"nodes", "MPI", "Spark", "Spark-RDMA", "|err| max"});
  std::vector<std::string> violations;
  std::optional<SimTime> previous_spark;
  int previous_nodes = 0;
  for (int nodes : {1, 2, 4, 8}) {
    bench::PageRankConfig pr;
    pr.nodes = nodes;
    pr.iterations = iters;
    pr.persist = true;

    auto mpi = bench::RunMpiPageRank(graph, reference, pr);
    pr.rdma = false;
    auto sp = bench::RunSparkPageRankBdb(graph, reference, pr);
    pr.rdma = true;
    auto sp_rdma = bench::RunSparkPageRankBdb(graph, reference, pr);

    double err = 0;
    for (const auto& r : {&mpi, &sp, &sp_rdma}) {
      if (r->ok()) err = std::max(err, r->value().max_delta_vs_reference);
    }
    const std::string at = " at " + std::to_string(nodes) + " node(s)";
    if (!mpi.ok() || !sp.ok() || !sp_rdma.ok()) {
      violations.push_back("a run failed" + at);
    } else {
      const SimTime spark = sp->elapsed;
      if (previous_spark.has_value() && !(spark < *previous_spark)) {
        violations.push_back("Spark " + FormatDuration(spark) + at +
                             " is not faster than " +
                             FormatDuration(*previous_spark) + " at " +
                             std::to_string(previous_nodes) + " node(s)");
      }
      if (std::abs(sp_rdma->elapsed - spark) > 0.05 * spark) {
        violations.push_back("Spark-RDMA " + FormatDuration(sp_rdma->elapsed) +
                             " is not within 5% of Spark " +
                             FormatDuration(spark) + at);
      }
      if (!(5 * mpi->elapsed <= spark)) {
        violations.push_back("MPI " + FormatDuration(mpi->elapsed) +
                             " is not 5x faster than Spark " +
                             FormatDuration(spark) + at);
      }
      previous_spark = spark;
      previous_nodes = nodes;
    }
    table.Row()
        .Cell(std::int64_t{nodes})
        .Cell(mpi.ok() ? FormatDuration(mpi->elapsed) : "error")
        .Cell(sp.ok() ? FormatDuration(sp->elapsed) : "error")
        .Cell(sp_rdma.ok() ? FormatDuration(sp_rdma->elapsed) : "error")
        .Cell(err, 9);
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): MPI performs almost the same across node\n"
      "counts (communication-bound allreduce) while Spark improves with\n"
      "nodes; Spark-RDMA ~= Spark because the tuned implementation keeps\n"
      "each stage's data local (persist + co-partitioning), leaving the\n"
      "RDMA shuffle engine almost nothing to accelerate.\n");
  for (const std::string& v : violations) {
    std::fprintf(stderr, "FAIL: %s\n", v.c_str());
  }
  const bool finished = bench::Observability::Instance().Finish();
  return finished && violations.empty() ? 0 : 1;
}
