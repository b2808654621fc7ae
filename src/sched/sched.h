// pstk::sched — a cluster-level job scheduler between cluster::Cluster and
// the framework runtimes.
//
// The paper's batch experiments run one job on an idle cluster; the real
// divide between the HPC and Big Data stacks is resource management (Jha et
// al.): gang-scheduled rigid jobs vs elastic task pools. This module makes
// that divide measurable in one codebase:
//
//  * gang placement (MPI/SHMEM): all-or-nothing *whole-node* allocation —
//    the job starts only when every node it needs is entirely free, and it
//    owns those nodes exclusively until it finishes or is preempted;
//  * elastic placement (Spark/MR): per-core allocation — the job starts as
//    soon as `min_procs` cores are free anywhere, and the scheduler grows
//    it toward `procs` (executors/containers added mid-run) or shrinks it
//    under pressure (lineage/task-retry absorbs the loss);
//  * fair-share queues: the next job to place comes from the queue with the
//    least accrued core-seconds per unit weight (FIFO within a queue);
//  * EASY backfilling: jobs behind a blocked queue head may jump ahead iff
//    their user-estimated runtime finishes before the head's shadow time;
//  * priority preemption composing with src/ckpt: a blocked high-priority
//    job evicts lower-priority work — gang victims are killed and requeued
//    (their next attempt restores from the latest committed snapshot
//    epoch), elastic victims are shrunk toward min_procs.
//
// The scheduler is a passive, event-driven object: Submit and the OnJob*
// callbacks run a synchronous scheduling pass and return — nothing in the
// submit path may block on simulated time. See DESIGN.md §sched for the
// determinism stance.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/units.h"
#include "obs/obs.h"
#include "sim/engine.h"

namespace pstk::sched {

enum class Paradigm { kMpi, kShmem, kSpark, kMr };

[[nodiscard]] const char* ParadigmName(Paradigm paradigm);
/// Gang paradigms launch all procs at once on exclusively-held nodes.
[[nodiscard]] inline bool IsGang(Paradigm paradigm) {
  return paradigm == Paradigm::kMpi || paradigm == Paradigm::kShmem;
}

/// What the scheduler granted for one launch attempt.
struct Launch {
  int job_id = -1;
  /// 0 on the first launch; preempted gang jobs relaunch with attempt+1
  /// (their adapter restores from the latest snapshot epoch).
  int attempt = 0;
  /// proc -> node. Gang: exactly spec.procs entries. Elastic: the initial
  /// grant, between spec.min_procs and spec.procs entries.
  std::vector<int> placement;
  /// spec.procs — the ceiling the scheduler may grow an elastic job to.
  int max_procs = 0;
};

/// Control surface an adapter returns from its launcher. Any hook may be
/// null when the operation does not apply to the paradigm.
struct JobHooks {
  /// Elastic: add one proc on `node`; false = decline (no headroom).
  std::function<bool(int node)> grow;
  /// Elastic: remove one proc; returns the node it freed, or -1.
  std::function<int()> shrink;
  /// Gang: hard-stop every process of the job (preemption). The next
  /// attempt is the adapter's chance to restore from checkpoints.
  std::function<void()> kill;
};

using Launcher = std::function<JobHooks(const Launch&)>;

struct JobSpec {
  std::string name = "job";
  std::string queue = "default";
  Paradigm paradigm = Paradigm::kMpi;
  /// Gang: rank/PE count. Elastic: target executor/container count.
  int procs = 1;
  /// Elastic floor: start once this many cores are free. Gang ignores it
  /// (all-or-nothing).
  int min_procs = 1;
  /// Packing density: procs per node (gang: ranks per node; elastic: the
  /// per-node executor cap).
  int procs_per_node = 8;
  /// User-estimated runtime; backfilling trusts it for shadow times.
  SimTime est_runtime = Seconds(60);
  /// Higher priority may preempt lower. Equal priorities never preempt.
  int priority = 0;
  Launcher launch;
};

enum class JobState { kPending, kRunning, kDone };

/// Read-only per-job record (also the scheduler's internal bookkeeping).
struct JobInfo {
  int id = -1;
  JobSpec spec;
  JobState state = JobState::kPending;
  SimTime submit_time = 0;
  SimTime first_start = -1;  // -1 until the job first ran
  SimTime last_start = -1;   // start of the current/most recent attempt
  SimTime end_time = -1;
  int attempt = 0;
  int preemptions = 0;
  bool backfilled = false;
  /// Current allocation: node -> reserved cores.
  std::map<int, int> alloc;
  int procs_running = 0;  // elastic: current proc count
};

/// Pending-job queues with fair-share ordering. Fair share picks the
/// nonempty queue with the least accrued usage per unit weight
/// (core-seconds / weight, ties broken by queue name); within a queue,
/// jobs run FIFO except that preempted jobs re-enter at the front.
class JobQueue {
 public:
  /// Enqueue a pending job. `front` = requeue after preemption.
  void Submit(int job_id, const std::string& queue, bool front = false);
  void Remove(int job_id, const std::string& queue);
  [[nodiscard]] bool Empty() const;
  [[nodiscard]] std::size_t Pending() const;

  void SetWeight(const std::string& queue, double weight);
  void AddUsage(const std::string& queue, double core_seconds);
  [[nodiscard]] double Share(const std::string& queue) const;

  /// Head job of the fair-share-ranked queue; nullopt when all empty.
  [[nodiscard]] std::optional<int> FairShareHead() const;
  /// Every pending job, queues ranked by fair share, FIFO within each —
  /// the backfill scan order.
  [[nodiscard]] std::vector<int> InScanOrder() const;

 private:
  struct Entry {
    std::deque<int> jobs;
    double weight = 1.0;
    double usage = 0;  // accrued core-seconds
  };
  /// Queue names ranked by share (usage/weight), ties by name.
  [[nodiscard]] std::vector<const std::map<std::string, Entry>::value_type*>
  Ranked() const;
  std::map<std::string, Entry> queues_;
};

struct SchedOptions {
  /// Fair-share weight per queue (unlisted queues get 1.0).
  std::map<std::string, double> queue_weights;
};

class Scheduler {
 public:
  Scheduler(cluster::Cluster& cluster, const SchedOptions& options = {});

  /// Submit a job and run a scheduling pass. Callable before the engine
  /// runs or from inside events/processes (arrivals are engine events).
  /// Must never block on simulated time.
  int Submit(JobSpec spec);

  /// Adapters call this when their job finishes. The release + follow-up
  /// scheduling pass runs in a fresh engine event, so runtime teardown
  /// code never re-enters the scheduler.
  void OnJobDone(int job_id);

  [[nodiscard]] const JobInfo& job(int job_id) const;
  [[nodiscard]] int jobs_submitted() const {
    return static_cast<int>(jobs_.size());
  }
  [[nodiscard]] int jobs_done() const { return jobs_done_; }
  [[nodiscard]] int jobs_running() const { return jobs_running_; }
  [[nodiscard]] int preemptions() const { return preemptions_; }
  [[nodiscard]] int backfills() const { return backfills_; }
  /// Core-seconds of reserved capacity accrued so far (up to `now`).
  [[nodiscard]] double busy_core_seconds();
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }

 private:
  void SchedulePass();
  [[nodiscard]] bool TryStart(JobInfo& job, bool backfill);
  /// Place against a hypothetical free-core vector (ShadowTime simulates
  /// future frees through the same code path placements use).
  [[nodiscard]] bool TryPlaceGang(const JobInfo& job,
                                  const std::vector<int>& free,
                                  std::vector<int>* placement) const;
  [[nodiscard]] bool TryPlaceElastic(const JobInfo& job,
                                     const std::vector<int>& free,
                                     std::vector<int>* placement) const;
  [[nodiscard]] std::vector<int> FreeCoresNow() const;
  [[nodiscard]] bool CanPlace(const JobInfo& job) const;
  void StartJob(JobInfo& job, std::vector<int> placement, bool backfill);
  /// Free lower-priority capacity for `job`; true if anything was evicted.
  bool TryPreemptFor(const JobInfo& job);
  void PreemptGang(JobInfo& victim);
  void ShrinkElastic(JobInfo& victim, int cores_wanted);
  void OfferGrowth();
  /// Earliest time `job` could start given running jobs' estimated ends
  /// (the EASY backfill shadow time). Infinity when estimates never free
  /// enough.
  [[nodiscard]] SimTime ShadowTime(const JobInfo& job) const;
  /// Fold elapsed time into queue usage + busy core-seconds.
  void AccrueUsage();
  void ReleaseAll(JobInfo& job);
  void CompleteJob(int job_id);

  cluster::Cluster& cluster_;
  sim::Engine& engine_;
  JobQueue queue_;
  std::map<int, JobInfo> jobs_;
  std::map<int, JobHooks> hooks_;
  int next_job_id_ = 0;
  int jobs_done_ = 0;
  int jobs_running_ = 0;
  int preemptions_ = 0;
  int backfills_ = 0;
  int grow_rr_cursor_ = 0;  // round-robin fairness for growth offers
  SimTime last_accrual_ = 0;
  double busy_core_seconds_ = 0;
  bool in_pass_ = false;  // passes never nest

  struct Tags {
    obs::TagId submitted = obs::kNoTag;
    obs::TagId started = obs::kNoTag;
    obs::TagId completed = obs::kNoTag;
    obs::TagId preempted = obs::kNoTag;
    obs::TagId backfilled = obs::kNoTag;
    obs::TagId grown = obs::kNoTag;
    obs::TagId shrunk = obs::kNoTag;
    obs::TagId queue_wait = obs::kNoTag;  // histogram, seconds
    obs::TagId utilization_cores = obs::kNoTag;
  };
  Tags tags_;
};

}  // namespace pstk::sched
