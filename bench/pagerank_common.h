// Shared PageRank runners for the Fig 6 / Fig 7 / ablation benchmarks:
// the BigDataBench-style tuned Spark version (partitionBy + persist, per
// Fig 5 of the paper), the HiBench-style shuffle-heavy Spark version, and
// the MPI implementation (dense rank vector + allreduce per iteration).
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "dfs/dfs.h"
#include "sim/engine.h"
#include "workloads/graph.h"

namespace pstk::bench {

struct PageRankRun {
  SimTime elapsed = 0;              // job/app time (incl. framework startup)
  Bytes shuffle_fetched = 0;        // modeled bytes over the shuffle fabric
  double max_delta_vs_reference = 0;
};

struct PageRankConfig {
  int nodes = 8;
  int procs_per_node = 16;  // paper: 16 processes/node for Fig 6/7
  int iterations = 5;
  bool rdma = false;        // Spark-RDMA shuffle engine
  bool persist = true;      // only honored by the BigDataBench variant
};

/// Tuned BigDataBench style: hash-partitioned persisted links, narrow
/// join, persisted per-iteration ranks (paper Fig 5).
Result<PageRankRun> RunSparkPageRankBdb(const workloads::Graph& graph,
                                        const std::vector<double>& reference,
                                        const PageRankConfig& config);

/// HiBench style: links parallelized once, but with no partitioner and no
/// persist, so the join reshuffles the full link table every iteration.
Result<PageRankRun> RunSparkPageRankHiBench(
    const workloads::Graph& graph, const std::vector<double>& reference,
    const PageRankConfig& config);

/// MPI implementation: block-partitioned vertices, local contribution
/// accumulation, dense Allreduce of the contribution vector per iteration.
Result<PageRankRun> RunMpiPageRank(const workloads::Graph& graph,
                                   const std::vector<double>& reference,
                                   const PageRankConfig& config);

}  // namespace pstk::bench
