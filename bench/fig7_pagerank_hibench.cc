// Figure 7: HiBench PageRank — the shuffle-heavy implementation (no
// partitioner reuse, no persist), Spark default (IPoIB sockets) vs
// Spark-RDMA, 16 processes/node, swept over node counts.
//
// Exits 1, with a FAIL: line per broken claim on stderr, unless Spark-RDMA
// is no slower than Spark at every node count and faster from 2 nodes on.
//
//   ./build/bench/fig7_pagerank_hibench [vertices=300000] [iters=5]
#include <cstdio>
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

  std::printf("Figure 7 — HiBench PageRank (shuffle-heavy), %u vertices, "
              "%llu edges, %d iterations, 16 procs/node\n\n",
              graph.vertices,
              static_cast<unsigned long long>(graph.edge_count()), iters);

  Table table;
  table.SetHeader({"nodes", "Spark (IPoIB)", "Spark-RDMA", "speedup",
                   "shuffled (Spark)"});
  std::vector<std::string> violations;
  for (int nodes : {1, 2, 4, 8}) {
    bench::PageRankConfig pr;
    pr.nodes = nodes;
    pr.iterations = iters;

    pr.rdma = false;
    auto sp = bench::RunSparkPageRankHiBench(graph, reference, pr);
    pr.rdma = true;
    auto sp_rdma = bench::RunSparkPageRankHiBench(graph, reference, pr);
    const std::string at = " at " + std::to_string(nodes) + " node(s)";
    if (!sp.ok() || !sp_rdma.ok()) {
      violations.push_back("a run failed" + at);
      table.Row().Cell(std::int64_t{nodes}).Cell("error").Cell("error");
      continue;
    }
    const bool multi_node = nodes >= 2;
    if (multi_node ? !(sp_rdma->elapsed < sp->elapsed)
                   : sp_rdma->elapsed > sp->elapsed) {
      violations.push_back(
          "Spark-RDMA " + FormatDuration(sp_rdma->elapsed) +
          (multi_node ? " is not faster than" : " is slower than") +
          " Spark " + FormatDuration(sp->elapsed) + at);
    }
    table.Row()
        .Cell(std::int64_t{nodes})
        .Cell(FormatDuration(sp->elapsed))
        .Cell(FormatDuration(sp_rdma->elapsed))
        .Cell(sp->elapsed / sp_rdma->elapsed, 2)
        .Cell(FormatBytes(sp->shuffle_fetched));
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): with a high data-shuffling rate and more\n"
      "nodes (more traffic crossing the fabric), the RDMA shuffle engine\n"
      "outperforms the default socket engine — unlike Fig 6's tuned code.\n");
  for (const std::string& v : violations) {
    std::fprintf(stderr, "FAIL: %s\n", v.c_str());
  }
  const bool finished = bench::Observability::Instance().Finish();
  return finished && violations.empty() ? 0 : 1;
}
