// MiniMR: a Hadoop-MapReduce-like engine on the simulated cluster.
//
// Structural fidelity to stock Hadoop 2.x (what the paper benchmarks):
//  * input splits = MiniDFS blocks, map tasks scheduled with locality
//    preference, bounded by per-node task slots;
//  * every task pays a JVM launch cost (Hadoop starts a JVM per task —
//    the big constant the paper's Fig 4 Hadoop-vs-Spark gap comes from);
//  * map outputs are partitioned, sorted, optionally combined, and
//    *spilled to local disk*; reducers shuffle them over sockets, merge on
//    disk, reduce, and write to the DFS — "Hadoop relies heavily on disk
//    operations and persists intermediate results on disk" (§V-C). The
//    map-side sort and the reduce-side merge are charged in virtual time;
//    on the host, map tasks spill in emit order and each reducer groups
//    its fetched records once, so a ReduceFn sees the keys and values
//    that a sort-merge would give;
//  * failed tasks are re-executed automatically, including re-running
//    completed map tasks whose host died before reducers fetched them.
//
// The API is deliberately Hadoop-shaped: a JobConf, a Mapper over input
// lines emitting (key, value) pairs, an optional Combiner, and a Reducer
// over (key, grouped values).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/units.h"
#include "dfs/dfs.h"
#include "net/network.h"
#include "sim/engine.h"

namespace pstk::mr {

/// Collector handed to map/combine/reduce functions.
class Emitter {
 public:
  virtual ~Emitter() = default;
  /// The views need only last for the call: the record is copied.
  virtual void Emit(std::string_view key, std::string_view value) = 0;
};

using MapFn =
    std::function<void(const std::string& line, Emitter& out)>;
/// reduce(key, values, out) — also used as the combiner signature.
using ReduceFn = std::function<void(
    const std::string& key, const std::vector<std::string>& values,
    Emitter& out)>;

struct JobConf {
  std::string name = "mr-job";
  std::string input_path;      // MiniDFS file, or a directory of files
                               // (e.g. a previous job's output_path)
  std::string output_path;     // MiniDFS directory; part-r-<N> files
  int num_reducers = 1;
  int max_attempts = 4;        // per task
  bool write_output = true;    // benchmarks may skip the DFS write
  /// Explicit worker->node placement (one worker per entry), overriding the
  /// nodes x slots_per_node grid; set by pstk::sched's elastic placement.
  std::vector<int> worker_nodes;
  /// Node hosting the coordinator (ApplicationMaster).
  int coordinator_node = 0;
};

struct MrOptions {
  /// Hadoop launches one JVM per task.
  SimTime jvm_startup_per_task = Seconds(1.2);
  /// Job submission + ApplicationMaster launch.
  SimTime job_setup = Seconds(2.0);
  /// CPU cost per input record in map (JVM interpretation overhead baked in).
  SimTime map_cpu_per_record = Nanos(150);
  /// CPU per byte through the MR record pipeline (Text objects,
  /// context.write, serialization): ~25 MB/s per core, Hadoop-2-era text
  /// job throughput.
  SimTime cpu_per_byte = 1.0 / 25e6;
  /// Sort cost per record per merge level.
  SimTime sort_cpu_per_record = Nanos(80);
  /// Concurrent task slots per node (Hadoop: containers).
  int slots_per_node = 8;
  /// Hadoop shuffles over sockets, never RDMA.
  net::TransportParams transport = net::TransportParams::IPoIB();
  /// Coordinator poll period for dead-worker detection.
  SimTime heartbeat = Seconds(1.0);
};

struct Counters {
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t input_records = 0;
  std::uint64_t map_output_records = 0;
  std::uint64_t reduce_output_records = 0;
  Bytes spilled_bytes = 0;    // modeled, to local disks
  Bytes shuffled_bytes = 0;   // modeled, over the network
};

struct JobResult {
  SimTime elapsed = 0;   // submission to job completion
  Counters counters;
};

class MrEngine {
 public:
  struct Job;  // internal coordinator state; opaque to callers
  /// Opaque handle to a submitted job, usable for elastic grow/shrink.
  using JobHandle = std::shared_ptr<Job>;

  MrEngine(cluster::Cluster& cluster, dfs::MiniDfs& dfs, MrOptions options = {});

  /// Submit and run a job to completion inside the current engine run.
  /// Spawns the coordinator + per-slot worker processes; the caller runs
  /// the engine (or use RunJob for the common standalone case).
  JobHandle Submit(JobConf conf, MapFn map, ReduceFn reduce,
                   std::optional<ReduceFn> combine,
                   std::function<void(Result<JobResult>)> on_done);

  /// Convenience: submit + engine.Run() and return the outcome.
  Result<JobResult> RunJob(JobConf conf, MapFn map, ReduceFn reduce,
                           std::optional<ReduceFn> combine = std::nullopt);

  /// Elastic growth: add one worker (container) on `node` to a running
  /// job. The worker joins the pull loop immediately; returns its id.
  int AddWorker(const JobHandle& job, int node);
  /// Elastic shrink: kill worker `worker_id`. Its running task is requeued
  /// by the coordinator's dead-worker sweep.
  void KillWorker(const JobHandle& job, int worker_id);
  [[nodiscard]] static bool JobFinished(const JobHandle& job);

  [[nodiscard]] const MrOptions& options() const { return options_; }

 private:

  void CoordinatorMain(sim::Context& ctx, Job& job);
  void WorkerMain(sim::Context& ctx, Job& job, int worker_id);
  void RunMapTask(sim::Context& ctx, Job& job, int worker_id, int map_id);
  void RunReduceTask(sim::Context& ctx, Job& job, int worker_id,
                     int reduce_id);
  void SweepDeadWorkers(Job& job);
  bool NoLiveWorkers(const Job& job);
  /// CPU charge for `records`/`bytes` of actual data, inflated to logical
  /// scale.
  void ChargeRecords(sim::Context& ctx, std::uint64_t records, Bytes bytes,
                     SimTime per_record);

  cluster::Cluster& cluster_;
  dfs::MiniDfs& dfs_;
  MrOptions options_;
  std::shared_ptr<net::Fabric> fabric_;
  int job_seq_ = 0;

  struct MrTags {
    // Task and phase spans (Chrome trace).
    obs::TagId map_task = obs::kNoTag;
    obs::TagId reduce_task = obs::kNoTag;
    obs::TagId map_read = obs::kNoTag;
    obs::TagId map_map = obs::kNoTag;
    obs::TagId map_sort = obs::kNoTag;
    obs::TagId map_spill = obs::kNoTag;
    obs::TagId reduce_shuffle = obs::kNoTag;
    obs::TagId reduce_merge = obs::kNoTag;
    obs::TagId reduce_reduce = obs::kNoTag;
    obs::TagId reduce_output = obs::kNoTag;
    // Per-phase elapsed-virtual-time histograms (seconds).
    obs::TagId time_map_read = obs::kNoTag;
    obs::TagId time_map = obs::kNoTag;
    obs::TagId time_sort = obs::kNoTag;
    obs::TagId time_spill = obs::kNoTag;
    obs::TagId time_shuffle = obs::kNoTag;
    obs::TagId time_merge = obs::kNoTag;
    obs::TagId time_reduce = obs::kNoTag;
    obs::TagId time_output = obs::kNoTag;
    // Job counters mirrored from Counters at completion.
    obs::TagId map_tasks = obs::kNoTag;
    obs::TagId reduce_tasks = obs::kNoTag;
    obs::TagId task_retries = obs::kNoTag;
    obs::TagId recovery_task_retries = obs::kNoTag;  // live (not job-end)
    obs::TagId spilled_bytes = obs::kNoTag;
    obs::TagId shuffled_bytes = obs::kNoTag;
  };
  MrTags tags_;
};

}  // namespace pstk::mr
