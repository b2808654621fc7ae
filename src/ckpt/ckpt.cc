#include "ckpt/ckpt.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/log.h"

namespace pstk::ckpt {

SimTime YoungDalyInterval(SimTime write_cost, SimTime mtbf) {
  PSTK_CHECK_MSG(mtbf > 0, "MTBF must be positive");
  if (write_cost <= 0) return 0;
  const SimTime tau = std::sqrt(2.0 * write_cost * mtbf);
  return std::max(tau, write_cost);
}

// ---------------------------------------------------------------------------
// SnapshotStore
// ---------------------------------------------------------------------------

SnapshotStore::SnapshotStore(int nranks) : nranks_(nranks) {
  PSTK_CHECK_MSG(nranks_ > 0, "store needs at least one rank");
}

bool SnapshotStore::RecordWrite(int epoch, int rank, serde::Buffer fragment,
                                std::vector<int> copies) {
  PSTK_CHECK_MSG(rank >= 0 && rank < nranks_, "bad rank " << rank);
  auto [it, created] = epochs_.try_emplace(epoch);
  Epoch& e = it->second;
  if (created) e.fragments.resize(static_cast<std::size_t>(nranks_));
  FragmentEntry& entry = e.fragments[static_cast<std::size_t>(rank)];
  // A replay after rollback rewrites fragments a failed attempt left
  // behind; the write count must not double-count those.
  const bool first_write = !entry.written;
  entry.data = std::move(fragment);
  entry.copies = std::move(copies);
  entry.written = true;
  if (first_write) ++e.written;
  return first_write && e.written == nranks_;
}

void SnapshotStore::DropNode(int node) {
  for (auto& [epoch, e] : epochs_) {
    for (FragmentEntry& entry : e.fragments) {
      entry.copies.erase(
          std::remove(entry.copies.begin(), entry.copies.end(), node),
          entry.copies.end());
    }
  }
}

std::optional<int> SnapshotStore::LatestRestorableEpoch() const {
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
    const Epoch& e = it->second;
    if (e.written < nranks_) continue;
    const bool all_alive = std::all_of(
        e.fragments.begin(), e.fragments.end(),
        [](const FragmentEntry& f) { return !f.copies.empty(); });
    if (all_alive) return it->first;
  }
  return std::nullopt;
}

const std::vector<int>& SnapshotStore::FragmentCopies(int epoch,
                                                      int rank) const {
  static const std::vector<int> kNone;
  const auto it = epochs_.find(epoch);
  if (it == epochs_.end()) return kNone;
  const auto& fragments = it->second.fragments;
  if (rank < 0 || rank >= static_cast<int>(fragments.size())) return kNone;
  return fragments[static_cast<std::size_t>(rank)].copies;
}

const serde::Buffer* SnapshotStore::Fragment(int epoch, int rank) const {
  const auto it = epochs_.find(epoch);
  if (it == epochs_.end()) return nullptr;
  const auto& fragments = it->second.fragments;
  if (rank < 0 || rank >= static_cast<int>(fragments.size())) return nullptr;
  const FragmentEntry& entry = fragments[static_cast<std::size_t>(rank)];
  return entry.written && !entry.copies.empty() ? &entry.data : nullptr;
}

// ---------------------------------------------------------------------------
// CheckpointCoordinator
// ---------------------------------------------------------------------------

CheckpointCoordinator::CheckpointCoordinator(cluster::Cluster& cluster,
                                             SnapshotStore& store,
                                             const CkptPolicy& policy)
    : cluster_(cluster), store_(store), policy_(policy) {
  restore_epoch_ = store_.LatestRestorableEpoch();
  obs::Registry& reg = cluster_.engine().obs();
  tags_.writes = reg.Intern("ckpt.writes");
  tags_.bytes = reg.Intern("ckpt.bytes");
  tags_.replica_bytes = reg.Intern("ckpt.replica_bytes");
  tags_.commits = reg.Intern("ckpt.commits");
  tags_.restores = reg.Intern("ckpt.restores");
  tags_.write_time = reg.Intern("ckpt.time.write");
  if (policy_.target_disk == Target::kLocalSsd && policy_.replicate) {
    fabric_ = cluster_.fabric();
  }
}

std::shared_ptr<storage::Disk> CheckpointCoordinator::TargetDisk(int node) {
  if (policy_.target_disk == Target::kNfs) {
    if (nfs_ == nullptr) {
      nfs_ = std::make_shared<storage::Disk>(storage::DiskParams::NfsServer());
      nfs_->AttachObs(&cluster_.engine().obs(), "storage.nfs");
    }
    return nfs_;
  }
  return cluster_.scratch_disk(node);
}

const serde::Buffer* CheckpointCoordinator::Restore(sim::Context& ctx,
                                                    int rank, int node) {
  if (!restore_epoch_.has_value()) return nullptr;
  const serde::Buffer* fragment = store_.Fragment(*restore_epoch_, rank);
  PSTK_CHECK_MSG(fragment != nullptr,
                 "restore epoch " << *restore_epoch_
                                  << " lost rank " << rank << "'s fragment");
  const Bytes modeled = cluster_.Modeled(fragment->size());
  // Read the fragment back from wherever a copy survived.
  SimTime ready;
  if (policy_.target_disk == Target::kNfs) {
    ready = TargetDisk(node)->Read(modeled, ctx.now());
  } else {
    // Prefer the local copy; otherwise stream from the buddy node.
    const auto& copies = store_.FragmentCopies(*restore_epoch_, rank);
    int source = copies.empty() ? node : copies.front();
    for (int copy : copies) {
      if (copy == node) source = node;
    }
    ready = cluster_.scratch_disk(source)->Read(modeled, ctx.now());
    if (source != node) {
      if (fabric_ == nullptr) fabric_ = cluster_.fabric();
      const auto times = fabric_->Transfer(source, node, modeled, ready);
      ctx.Compute(times.receiver_cpu);
      ready = times.arrival;
    }
  }
  ctx.SleepUntil(ready);
  ctx.Compute(static_cast<double>(modeled) * policy_.serialize_cpu_per_byte);
  cluster_.engine().obs().Add(tags_.restores);
  cluster_.engine().verify().OnCkptRestore(rank, *restore_epoch_, ctx.now());
  return fragment;
}

void CheckpointCoordinator::Checkpoint(sim::Context& ctx, int rank, int node,
                                       int epoch,
                                       const serde::Buffer& state) {
  // First rank reaching this boundary decides whether the epoch is due;
  // collectives order boundaries, so every rank sees the same decision.
  auto [it, first_arrival] = due_.try_emplace(epoch, false);
  if (first_arrival) {
    const SimTime now = ctx.now();
    if (!last_due_time_.has_value()) {
      last_due_time_ = now;  // anchor: the interval counts from entry
    } else if (policy_.interval > 0 &&
               now - *last_due_time_ >= policy_.interval) {
      it->second = true;
      last_due_time_ = now;
    }
  }
  if (!it->second) return;

  obs::Registry& reg = cluster_.engine().obs();
  const Bytes modeled = cluster_.Modeled(state.size());
  const SimTime start = ctx.now();
  ctx.Compute(static_cast<double>(modeled) * policy_.serialize_cpu_per_byte);

  std::vector<int> copies;
  SimTime done;
  if (policy_.target_disk == Target::kNfs) {
    done = TargetDisk(node)->Write(modeled, ctx.now());
    copies.push_back(SnapshotStore::kNfsNode);
  } else {
    done = cluster_.scratch_disk(node)->Write(modeled, ctx.now());
    copies.push_back(node);
    if (policy_.replicate) {
      const int buddy = (node + 1) % cluster_.nodes();
      if (buddy != node && !cluster_.NodeFailed(buddy)) {
        const auto times = fabric_->Transfer(node, buddy, modeled, ctx.now());
        ctx.Compute(times.sender_cpu);
        const SimTime replica_done =
            cluster_.scratch_disk(buddy)->Write(modeled, times.arrival);
        done = std::max(done, replica_done);
        copies.push_back(buddy);
        reg.Add(tags_.replica_bytes, modeled);
      }
    }
  }
  ctx.SleepUntil(done);

  reg.Add(tags_.writes);
  reg.Add(tags_.bytes, modeled);
  reg.Observe(tags_.write_time, ctx.now() - start);
  bytes_written_ += modeled;
  cluster_.engine().verify().OnCkptWrite(rank, epoch, modeled, ctx.now());

  if (store_.RecordWrite(epoch, rank, state, std::move(copies))) {
    ++commits_;
    commit_times_[epoch] = ctx.now();
    reg.Add(tags_.commits);
    cluster_.engine().verify().OnCkptCommit(epoch, store_.nranks(),
                                            store_.nranks(), ctx.now());
  }
}

std::optional<SimTime> CheckpointCoordinator::CommitTime(int epoch) const {
  const auto it = commit_times_.find(epoch);
  if (it == commit_times_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// RestartManager
// ---------------------------------------------------------------------------

RestartManager::RestartManager(CkptPolicy policy, sim::FaultPlan faults)
    : policy_(policy), faults_(std::move(faults)) {
  std::stable_sort(faults_.events.begin(), faults_.events.end(),
                   [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
                     return a.time < b.time;
                   });
}

Result<RecoveryOutcome> RestartManager::RunLoop(
    const HpcJob& job,
    const std::function<std::function<SimTime()>(
        sim::Engine&, cluster::Cluster&, CheckpointCoordinator&)>& spawn) {
  PSTK_CHECK_MSG(job.procs > 0 && job.procs_per_node > 0,
                 "HpcJob needs procs and procs_per_node");
  SnapshotStore store(job.procs);
  RecoveryOutcome out;
  SimTime global = 0;
  std::size_t next_fault = 0;
  for (int attempt = 0; attempt <= policy_.max_restarts; ++attempt) {
    sim::Engine engine(/*seed=*/1);
    cluster::Cluster cluster(engine, job.spec);
    if (job.on_attempt) job.on_attempt(engine, cluster);
    CheckpointCoordinator coordinator(cluster, store, policy_);
    // A lost node wipes its scratch — and the snapshot fragments on it.
    cluster.SubscribeNodeFailure(
        [&store](int node, SimTime) { store.DropNode(node); });
    // Faults that land while the job sits in the requeue hit no processes;
    // inject only the earliest fault this attempt can experience. Once it
    // kills the job the rest belong to later attempts.
    while (next_fault < faults_.events.size() &&
           faults_.events[next_fault].time < global) {
      ++next_fault;
    }
    if (next_fault < faults_.events.size()) {
      const sim::FaultEvent& ev = faults_.events[next_fault];
      cluster.FailNode(ev.node, ev.time - global);
    }
    auto job_end = spawn(engine, cluster, coordinator);
    const sim::RunResult run = engine.Run();
    ++out.attempts;
    out.checkpoints_committed += coordinator.commits();
    out.snapshot_bytes += coordinator.bytes_written();
    const bool completed = run.killed == 0;
    if (job.on_attempt_end != nullptr) {
      job.on_attempt_end(engine, attempt, completed);
    }
    if (completed) {
      if (!run.status.ok()) return run.status;
      out.completed = true;
      out.time_to_solution = global + job_end();
      return out;
    }

    // The failure consumed this attempt: account the lost work and requeue.
    ++out.restarts;
    ++next_fault;
    const SimTime span = run.end_time;
    SimTime replay_from = 0;
    if (const auto epoch = store.LatestRestorableEpoch()) {
      if (const auto commit = coordinator.CommitTime(*epoch)) {
        replay_from = *commit;
      }
    }
    const SimTime rollback = std::max<SimTime>(span - replay_from, 0);
    out.rollback_work += rollback;
    obs::Registry& reg = engine.obs();
    reg.Add(reg.Intern("recovery.restarts"));
    reg.Add(reg.Intern("recovery.rollback_work_ms"),
            static_cast<std::uint64_t>(rollback * 1e3));
    PSTK_INFO("ckpt") << "attempt " << attempt << " lost at t=" << span
                      << " (global " << global + span << "); rolling back "
                      << rollback << "s of work, restart in "
                      << policy_.restart_delay << "s";
    global += span + policy_.restart_delay;
  }
  out.completed = false;
  out.time_to_solution = global;
  return out;  // did-not-finish within max_restarts: data, not an error
}

Result<RecoveryOutcome> RestartManager::RunMpi(const HpcJob& job,
                                               const MpiBody& body,
                                               const mpi::MpiOptions& options) {
  return RunLoop(job, [&](sim::Engine&, cluster::Cluster& cluster,
                          CheckpointCoordinator& coordinator) {
    auto world = std::make_shared<mpi::World>(cluster, job.procs,
                                              job.procs_per_node, options);
    CheckpointCoordinator* coord = &coordinator;
    world->SpawnRanks([coord, &body](mpi::Comm& comm) { body(comm, *coord); });
    return std::function<SimTime()>(
        [world] { return world->job_end_time(); });
  });
}

Result<RecoveryOutcome> RestartManager::RunShmem(
    const HpcJob& job, const ShmemBody& body,
    const shmem::ShmemOptions& options) {
  return RunLoop(job, [&](sim::Engine&, cluster::Cluster& cluster,
                          CheckpointCoordinator& coordinator) {
    auto world = std::make_shared<shmem::ShmemWorld>(
        cluster, job.procs, job.procs_per_node, options);
    CheckpointCoordinator* coord = &coordinator;
    world->SpawnPes([coord, &body](shmem::Pe& pe) { body(pe, *coord); });
    return std::function<SimTime()>(
        [world] { return world->job_end_time(); });
  });
}

}  // namespace pstk::ckpt
