// The simulated paper jobs the benchmark runs, one function per
// (paradigm, application). Each builds its own engine + cluster (+ DFS)
// like the figure benches do, calls one public entry point, checks the
// job's answer against the serial reference, and reports host time,
// virtual time and the layer counters it read from outside.
//
// The job bodies follow bench/pagerank_common.cc, bench/fig4_answerscount.cc
// and the MR path of bench/ablation_recovery.cc, with the benchmark's own
// kernels wrapped in KernelScopes. They are kept here rather than shared so
// that the measured workload stays fixed while the figure benches change.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads/graph.h"
#include "workloads/stackexchange.h"

namespace perfbench {

/// Inputs of the PageRank jobs, built once per run (the set-up phase).
struct PageRankInputs {
  int iterations = 0;
  pstk::workloads::Graph graph;
  std::vector<double> reference;  // workloads::PageRankReference
  /// (vertex, out-links) records handed to Spark's Parallelize.
  std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>> links;
  /// MR text form, one "v\t1 t1 t2 ..." line per vertex.
  std::string text;
};

/// Inputs of the AnswersCount jobs.
struct PostInputs {
  double scale = 1.0;   // staged bytes / logical bytes
  std::string data;     // the staged post lines
  std::uint64_t lines = 0;
  pstk::workloads::StackExchangeStats truth;  // generator ground truth
};

/// What one job reports. Layer entries are counters read from the job's
/// engine and framework results, plus host times; they are filled on every
/// run, but the host times that need tracing (dispatch and kernel time) are
/// only meaningful in a traced round.
struct JobReport {
  std::string label;
  std::string paradigm;       // "mpi", "spark" or "mr": its layer prefix
  bool ok = false;           // ran to completion and passed its check
  std::string detail;        // the check's figure, or the error
  double virtual_s = 0;      // simulated job time (entry point's result)
  double records = 0;        // simulated input records processed
  double build_s = 0;        // host: engine, cluster, DFS and scratch set-up
  double run_s = 0;          // host: the framework entry point call
  double cpu_s = 0;          // host CPU (user + sys) of build + run
  std::map<std::string, double> layer;
};

/// Dense-vector MPI PageRank: block-partitioned scatter and one Allreduce
/// of the full contribution vector per iteration.
JobReport RunMpiPageRank(const PageRankInputs& in, int nodes, int ppn,
                         bool trace);
/// Spark PageRank. `tuned` is the BigDataBench version (co-partitioned,
/// persisted links, narrow join); otherwise HiBench's, which shuffles both
/// join sides every iteration.
JobReport RunSparkPageRank(const PageRankInputs& in, int nodes, int ppn,
                           bool rdma, bool tuned, bool trace);
/// Text PageRank on MiniMR: one chained job per iteration, each reading the
/// previous job's DFS output; the last output is parsed back and checked.
JobReport RunMrPageRank(const PageRankInputs& in, int nodes, bool trace);

/// AnswersCount: MPI-IO collective read of node-local scratch + Reduce.
JobReport RunMpiAnswers(const PostInputs& in, int procs, int ppn, bool trace);
/// AnswersCount on MiniMR over the DFS, output parsed back from the DFS.
JobReport RunMrAnswers(const PostInputs& in, int nodes, int ppn, bool trace);
/// AnswersCount on MiniSpark over the DFS (TextFile + Map + Reduce).
JobReport RunSparkAnswers(const PostInputs& in, int nodes, int ppn,
                          bool trace);

}  // namespace perfbench
