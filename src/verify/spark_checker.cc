// Spark/MapReduce invariant checker ("spark-invariants"): lineage
// acyclicity, stage-barrier violations, and the recompute-storm diagnostic
// for iteratively reused un-persisted RDDs (the paper's Fig. 5/6 persist()
// lesson).
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "verify/verify.h"

namespace pstk::verify {

namespace {

Finding CycleFinding(const std::vector<int>& path, int back_to) {
  std::ostringstream cycle;
  bool in_cycle = false;
  for (int node : path) {
    if (node == back_to) in_cycle = true;
    if (in_cycle) cycle << node << " -> ";
  }
  cycle << back_to;
  return Finding{Severity::kError, "spark-invariants", "spark-lineage-cycle",
                 "RDD lineage is cyclic: " + cycle.str() +
                     "; lineage must be a DAG for recovery to terminate",
                 "rdd " + std::to_string(back_to), 0};
}

}  // namespace

struct Hub::SparkInvariants {
  // (job, rdd, partition) -> times materialized.
  std::map<std::tuple<int, int, int>, int> computes;
  std::set<std::pair<int, int>> warned_rdds;  // (job, rdd)
};

void Hub::Free::operator()(SparkInvariants* tables) const { delete tables; }

void Hub::SparkLineage(const std::vector<LineageEdge>& edges) {
  std::map<int, std::vector<int>> parents;
  std::set<int> nodes;
  for (const LineageEdge& e : edges) {
    parents[e.child].push_back(e.parent);
    nodes.insert(e.child);
    nodes.insert(e.parent);
  }
  // Iterative DFS, colored: 1 = on stack, 2 = done.
  std::map<int, int> color;
  for (int start : nodes) {
    if (color[start] != 0) continue;
    std::vector<std::pair<int, std::size_t>> stack{{start, 0}};
    std::vector<int> path{start};
    color[start] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& ps = parents[node];
      if (next < ps.size()) {
        const int parent = ps[next++];
        if (color[parent] == 1) {
          Report(CycleFinding(path, parent));
          color[parent] = 2;  // report each cycle once
        } else if (color[parent] == 0) {
          color[parent] = 1;
          stack.emplace_back(parent, 0);
          path.push_back(parent);
        }
      } else {
        color[node] = 2;
        stack.pop_back();
        path.pop_back();
      }
    }
  }
}

void Hub::SparkPartitionComputed(int job, int rdd, int partition,
                                 bool persisted, SimTime t) {
  SparkInvariants& spark = Tables(spark_);
  const int count = ++spark.computes[{job, rdd, partition}];
  if (persisted || count < 2) return;
  if (!spark.warned_rdds.insert({job, rdd}).second) return;
  std::ostringstream msg;
  msg << "recompute storm: un-persisted RDD " << rdd << " partition "
      << partition << " was materialized " << count
      << " times; every reuse re-runs its lineage from the source — "
         "persist()/cache() it before iterative reuse (paper Fig. 5/6)";
  Report(Finding{Severity::kWarning, "spark-invariants",
                 "spark-recompute-storm", msg.str(),
                 "rdd " + std::to_string(rdd), t});
}

void Hub::StageBarrier(std::string_view framework, int stage_id, int ready,
                       int total, bool will_recover, SimTime t) {
  std::ostringstream msg;
  msg << framework << " stage barrier: a consumer of stage/shuffle "
      << stage_id << " found only " << ready << "/" << total
      << " producer outputs available";
  if (will_recover) {
    msg << "; the scheduler re-runs the missing producers (lineage/"
           "task retry)";
    Report(Finding{Severity::kWarning, "spark-invariants",
                   "stage-barrier-retry", msg.str(), std::string(framework),
                   t});
  } else {
    msg << " and no recovery path exists (stage-barrier violation)";
    Report(Finding{Severity::kError, "spark-invariants",
                   "stage-barrier-violation", msg.str(),
                   std::string(framework), t});
  }
}

}  // namespace pstk::verify
