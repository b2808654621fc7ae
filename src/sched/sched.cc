#include "sched/sched.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/log.h"

namespace pstk::sched {

const char* ParadigmName(Paradigm paradigm) {
  switch (paradigm) {
    case Paradigm::kMpi:
      return "mpi";
    case Paradigm::kShmem:
      return "shmem";
    case Paradigm::kSpark:
      return "spark";
    case Paradigm::kMr:
      return "mr";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

void JobQueue::Submit(int job_id, const std::string& queue, bool front) {
  Entry& entry = queues_[queue];
  if (front) {
    entry.jobs.push_front(job_id);
  } else {
    entry.jobs.push_back(job_id);
  }
}

void JobQueue::Remove(int job_id, const std::string& queue) {
  auto it = queues_.find(queue);
  PSTK_CHECK_MSG(it != queues_.end(), "unknown queue " << queue);
  auto pos = std::find(it->second.jobs.begin(), it->second.jobs.end(), job_id);
  PSTK_CHECK_MSG(pos != it->second.jobs.end(),
                 "job " << job_id << " not pending in queue " << queue);
  it->second.jobs.erase(pos);
}

bool JobQueue::Empty() const { return Pending() == 0; }

std::size_t JobQueue::Pending() const {
  std::size_t n = 0;
  for (const auto& [name, entry] : queues_) n += entry.jobs.size();
  return n;
}

void JobQueue::SetWeight(const std::string& queue, double weight) {
  PSTK_CHECK_MSG(weight > 0, "queue weight must be positive");
  queues_[queue].weight = weight;
}

void JobQueue::AddUsage(const std::string& queue, double core_seconds) {
  queues_[queue].usage += core_seconds;
}

double JobQueue::Share(const std::string& queue) const {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return 0;
  return it->second.usage / it->second.weight;
}

std::vector<const std::map<std::string, JobQueue::Entry>::value_type*>
JobQueue::Ranked() const {
  std::vector<const std::map<std::string, Entry>::value_type*> ranked;
  for (const auto& entry : queues_) ranked.push_back(&entry);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto* a, const auto* b) {
                     const double share_a = a->second.usage / a->second.weight;
                     const double share_b = b->second.usage / b->second.weight;
                     if (share_a != share_b) return share_a < share_b;
                     return a->first < b->first;
                   });
  return ranked;
}

std::optional<int> JobQueue::FairShareHead() const {
  for (const auto* entry : Ranked()) {
    if (!entry->second.jobs.empty()) return entry->second.jobs.front();
  }
  return std::nullopt;
}

std::vector<int> JobQueue::InScanOrder() const {
  std::vector<int> order;
  for (const auto* entry : Ranked()) {
    for (int id : entry->second.jobs) order.push_back(id);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Scheduler::Scheduler(cluster::Cluster& cluster, const SchedOptions& options)
    : cluster_(cluster), engine_(cluster.engine()) {
  for (const auto& [queue, weight] : options.queue_weights) {
    queue_.SetWeight(queue, weight);
  }
  obs::Registry& reg = engine_.obs();
  tags_.submitted = reg.Intern("sched.submitted");
  tags_.started = reg.Intern("sched.started");
  tags_.completed = reg.Intern("sched.completed");
  tags_.preempted = reg.Intern("sched.preempted");
  tags_.backfilled = reg.Intern("sched.backfilled");
  tags_.grown = reg.Intern("sched.grown");
  tags_.shrunk = reg.Intern("sched.shrunk");
  tags_.queue_wait = reg.Intern("sched.queue_wait");
  tags_.utilization_cores = reg.Intern("sched.busy_cores");
}

int Scheduler::Submit(JobSpec spec) {
  PSTK_CHECK_MSG(spec.procs >= 1, "job needs at least one proc");
  PSTK_CHECK_MSG(spec.procs_per_node >= 1, "procs_per_node must be >= 1");
  PSTK_CHECK_MSG(spec.min_procs >= 1 && spec.min_procs <= spec.procs,
                 "min_procs must be in [1, procs]");
  PSTK_CHECK_MSG(static_cast<bool>(spec.launch), "job needs a launcher");
  const int id = next_job_id_++;
  JobInfo& job = jobs_[id];
  job.id = id;
  job.spec = std::move(spec);
  job.submit_time = engine_.now();
  queue_.Submit(id, job.spec.queue);
  engine_.obs().Add(tags_.submitted);
  if (!in_pass_) SchedulePass();
  return id;
}

void Scheduler::OnJobDone(int job_id) {
  // Decouple from the caller: completion is reported from inside framework
  // teardown (the last rank / the driver), and the follow-up scheduling
  // pass spawns new processes — that belongs in its own engine event.
  engine_.ScheduleEvent(engine_.now(),
                        [this, job_id] { CompleteJob(job_id); });
}

const JobInfo& Scheduler::job(int job_id) const {
  auto it = jobs_.find(job_id);
  PSTK_CHECK_MSG(it != jobs_.end(), "unknown job " << job_id);
  return it->second;
}

double Scheduler::busy_core_seconds() {
  AccrueUsage();
  return busy_core_seconds_;
}

void Scheduler::AccrueUsage() {
  const SimTime now = engine_.now();
  const SimTime dt = now - last_accrual_;
  if (dt <= 0) return;
  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    int cores = 0;
    for (const auto& [node, count] : job.alloc) cores += count;
    queue_.AddUsage(job.spec.queue, static_cast<double>(cores) * dt);
    busy_core_seconds_ += static_cast<double>(cores) * dt;
  }
  last_accrual_ = now;
}

std::vector<int> Scheduler::FreeCoresNow() const {
  std::vector<int> free(static_cast<std::size_t>(cluster_.nodes()));
  for (int n = 0; n < cluster_.nodes(); ++n) free[n] = cluster_.FreeCores(n);
  return free;
}

bool Scheduler::TryPlaceGang(const JobInfo& job, const std::vector<int>& free,
                             std::vector<int>* placement) const {
  const int ppn = job.spec.procs_per_node;
  const int nodes_needed = (job.spec.procs + ppn - 1) / ppn;
  // All-or-nothing, whole-node: a gang node must be entirely free, and the
  // job owns it exclusively (which is what makes preemption-by-node safe).
  std::vector<int> chosen;
  for (int n = 0; n < cluster_.nodes() &&
                  static_cast<int>(chosen.size()) < nodes_needed;
       ++n) {
    if (free[n] == cluster_.cores_per_node()) chosen.push_back(n);
  }
  if (static_cast<int>(chosen.size()) < nodes_needed) return false;
  if (placement != nullptr) {
    placement->clear();
    for (int r = 0; r < job.spec.procs; ++r) {
      placement->push_back(chosen[r / ppn]);
    }
  }
  return true;
}

bool Scheduler::TryPlaceElastic(const JobInfo& job,
                                const std::vector<int>& free,
                                std::vector<int>* placement) const {
  const int ppn = job.spec.procs_per_node;
  std::vector<int> grant;
  int remaining = job.spec.procs;
  for (int n = 0; n < cluster_.nodes() && remaining > 0; ++n) {
    const int take = std::min({free[n], ppn, remaining});
    for (int i = 0; i < take; ++i) grant.push_back(n);
    remaining -= take;
  }
  if (static_cast<int>(grant.size()) < job.spec.min_procs) return false;
  if (placement != nullptr) *placement = std::move(grant);
  return true;
}

bool Scheduler::CanPlace(const JobInfo& job) const {
  const std::vector<int> free = FreeCoresNow();
  return IsGang(job.spec.paradigm) ? TryPlaceGang(job, free, nullptr)
                                   : TryPlaceElastic(job, free, nullptr);
}

bool Scheduler::TryStart(JobInfo& job, bool backfill) {
  const std::vector<int> free = FreeCoresNow();
  std::vector<int> placement;
  const bool placed = IsGang(job.spec.paradigm)
                          ? TryPlaceGang(job, free, &placement)
                          : TryPlaceElastic(job, free, &placement);
  if (!placed) return false;
  StartJob(job, std::move(placement), backfill);
  return true;
}

void Scheduler::StartJob(JobInfo& job, std::vector<int> placement,
                         bool backfill) {
  queue_.Remove(job.id, job.spec.queue);
  // Reserve: gang takes its nodes whole, elastic takes one core per proc.
  if (IsGang(job.spec.paradigm)) {
    std::set<int> nodes(placement.begin(), placement.end());
    for (int node : nodes) {
      PSTK_CHECK(cluster_.ReserveCores(node, cluster_.cores_per_node(),
                                       job.id));
      job.alloc[node] = cluster_.cores_per_node();
    }
  } else {
    for (int node : placement) {
      PSTK_CHECK(cluster_.ReserveCores(node, 1, job.id));
      ++job.alloc[node];
    }
  }
  job.state = JobState::kRunning;
  job.last_start = engine_.now();
  job.procs_running = static_cast<int>(placement.size());
  ++jobs_running_;
  obs::Registry& reg = engine_.obs();
  reg.Add(tags_.started);
  if (job.first_start < 0) {
    job.first_start = engine_.now();
    reg.Observe(tags_.queue_wait, job.first_start - job.submit_time);
  }
  if (backfill) {
    job.backfilled = true;
    ++backfills_;
    reg.Add(tags_.backfilled);
  }
  PSTK_INFO("sched") << job.spec.name << " (job " << job.id << ", "
                     << ParadigmName(job.spec.paradigm) << ") starts on "
                     << placement.size() << " proc(s), attempt "
                     << job.attempt;
  Launch launch;
  launch.job_id = job.id;
  launch.attempt = job.attempt;
  launch.placement = std::move(placement);
  launch.max_procs = job.spec.procs;
  hooks_[job.id] = job.spec.launch(launch);
}

SimTime Scheduler::ShadowTime(const JobInfo& job) const {
  std::vector<int> free = FreeCoresNow();
  // Running jobs hand their allocations back in estimated-end order.
  std::vector<const JobInfo*> running;
  for (const auto& [id, other] : jobs_) {
    if (other.state == JobState::kRunning) running.push_back(&other);
  }
  std::stable_sort(running.begin(), running.end(),
                   [](const JobInfo* a, const JobInfo* b) {
                     return a->last_start + a->spec.est_runtime <
                            b->last_start + b->spec.est_runtime;
                   });
  const bool gang = IsGang(job.spec.paradigm);
  for (const JobInfo* other : running) {
    for (const auto& [node, cores] : other->alloc) free[node] += cores;
    const bool fits = gang ? TryPlaceGang(job, free, nullptr)
                           : TryPlaceElastic(job, free, nullptr);
    if (fits) return other->last_start + other->spec.est_runtime;
  }
  return std::numeric_limits<SimTime>::infinity();
}

bool Scheduler::TryPreemptFor(const JobInfo& job) {
  if (job.spec.priority <= 0) return false;
  bool evicted = false;
  std::set<int> tried;
  while (!CanPlace(job)) {
    // Victim: lowest priority first, then youngest (least lost work).
    const JobInfo* victim = nullptr;
    for (const auto& [id, other] : jobs_) {
      if (other.state != JobState::kRunning) continue;
      if (other.spec.priority >= job.spec.priority) continue;
      if (tried.count(id) > 0) continue;
      if (!IsGang(other.spec.paradigm) &&
          other.procs_running <= other.spec.min_procs) {
        continue;  // already at its elastic floor
      }
      if (victim == nullptr ||
          other.spec.priority < victim->spec.priority ||
          (other.spec.priority == victim->spec.priority &&
           other.last_start > victim->last_start)) {
        victim = &other;
      }
    }
    if (victim == nullptr) return evicted;
    tried.insert(victim->id);
    JobInfo& mut = jobs_.at(victim->id);
    if (IsGang(mut.spec.paradigm)) {
      PreemptGang(mut);
    } else {
      ShrinkElastic(mut, mut.procs_running - mut.spec.min_procs);
    }
    evicted = true;
  }
  return evicted;
}

void Scheduler::PreemptGang(JobInfo& victim) {
  PSTK_INFO("sched") << victim.spec.name << " (job " << victim.id
                     << ") preempted at t=" << engine_.now();
  auto hooks = hooks_.find(victim.id);
  PSTK_CHECK(hooks != hooks_.end() &&
             static_cast<bool>(hooks->second.kill));
  hooks->second.kill();
  hooks_.erase(hooks);
  ReleaseAll(victim);
  victim.state = JobState::kPending;
  ++victim.attempt;
  ++victim.preemptions;
  jobs_running_--;
  ++preemptions_;
  engine_.obs().Add(tags_.preempted);
  // Back to the *front* of its queue: the job already waited its turn, and
  // its next attempt resumes from the latest committed snapshot epoch.
  queue_.Submit(victim.id, victim.spec.queue, /*front=*/true);
}

void Scheduler::ShrinkElastic(JobInfo& victim, int cores_wanted) {
  auto hooks = hooks_.find(victim.id);
  PSTK_CHECK(hooks != hooks_.end());
  if (!hooks->second.shrink) return;
  while (cores_wanted > 0 && victim.procs_running > victim.spec.min_procs) {
    const int node = hooks->second.shrink();
    if (node < 0) break;
    cluster_.ReleaseCores(node, 1, victim.id);
    auto it = victim.alloc.find(node);
    PSTK_CHECK(it != victim.alloc.end() && it->second > 0);
    if (--it->second == 0) victim.alloc.erase(it);
    --victim.procs_running;
    --cores_wanted;
    engine_.obs().Add(tags_.shrunk);
  }
}

void Scheduler::OfferGrowth() {
  // Leftover cores go to running elastic jobs below their target, one proc
  // per job per round (round-robin from after the last grown job, so a
  // single hungry app cannot starve the others).
  std::vector<int> candidates;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kRunning && !IsGang(job.spec.paradigm) &&
        job.procs_running < job.spec.procs && hooks_[id].grow) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) return;
  // Rotate so ids above the cursor go first.
  std::stable_partition(candidates.begin(), candidates.end(),
                        [this](int id) { return id > grow_rr_cursor_; });
  bool granted = true;
  while (granted) {
    granted = false;
    for (auto it = candidates.begin(); it != candidates.end();) {
      JobInfo& job = jobs_.at(*it);
      if (job.procs_running >= job.spec.procs) {
        it = candidates.erase(it);
        continue;
      }
      int node = -1;
      for (int n = 0; n < cluster_.nodes(); ++n) {
        auto held = job.alloc.find(n);
        const int mine = held == job.alloc.end() ? 0 : held->second;
        if (cluster_.FreeCores(n) > 0 && mine < job.spec.procs_per_node) {
          node = n;
          break;
        }
      }
      if (node < 0 || !hooks_[*it].grow(node)) {
        it = candidates.erase(it);
        continue;
      }
      PSTK_CHECK(cluster_.ReserveCores(node, 1, job.id));
      ++job.alloc[node];
      ++job.procs_running;
      grow_rr_cursor_ = job.id;
      engine_.obs().Add(tags_.grown);
      granted = true;
      ++it;
    }
  }
}

void Scheduler::SchedulePass() {
  PSTK_CHECK(!in_pass_);
  in_pass_ = true;
  AccrueUsage();
  bool progress = true;
  while (progress) {
    progress = false;
    const std::optional<int> head = queue_.FairShareHead();
    if (head.has_value()) {
      JobInfo& job = jobs_.at(*head);
      if (TryStart(job, /*backfill=*/false)) {
        progress = true;
        continue;
      }
      if (TryPreemptFor(job) && TryStart(job, /*backfill=*/false)) {
        progress = true;
        continue;
      }
      // Head is blocked: EASY backfill — later jobs may start now iff
      // their estimate finishes before the head's shadow time.
      const SimTime shadow = ShadowTime(job);
      for (int id : queue_.InScanOrder()) {
        if (id == *head) continue;
        JobInfo& candidate = jobs_.at(id);
        if (engine_.now() + candidate.spec.est_runtime > shadow) continue;
        if (TryStart(candidate, /*backfill=*/true)) {
          progress = true;
          break;
        }
      }
    }
  }
  OfferGrowth();
  // Instantaneous reserved capacity at every scheduling decision point —
  // the utilization histogram the service bench reports.
  engine_.obs().Observe(tags_.utilization_cores,
                        static_cast<double>(cluster_.UsedCores()));
  in_pass_ = false;
}

void Scheduler::ReleaseAll(JobInfo& job) {
  for (const auto& [node, count] : job.alloc) {
    cluster_.ReleaseCores(node, count, job.id);
  }
  job.alloc.clear();
  job.procs_running = 0;
}

void Scheduler::CompleteJob(int job_id) {
  JobInfo& job = jobs_.at(job_id);
  // Stale completion: the job was preempted in the same instant its done
  // event was in flight (the relaunched attempt will report again), or a
  // duplicate completion event. Either way there is nothing to release.
  if (job.state != JobState::kRunning) return;
  AccrueUsage();
  ReleaseAll(job);
  hooks_.erase(job_id);
  job.state = JobState::kDone;
  job.end_time = engine_.now();
  ++jobs_done_;
  jobs_running_--;
  engine_.obs().Add(tags_.completed);
  PSTK_INFO("sched") << job.spec.name << " (job " << job_id << ") done at t="
                     << job.end_time;
  SchedulePass();
}

}  // namespace pstk::sched
