#include "spark/spark.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/check.h"
#include "common/log.h"

namespace pstk::spark {

namespace {

// Control-plane message tags.
constexpr int kTagTask = 1;      // driver -> executor
constexpr int kTagTaskDone = 2;  // executor -> driver
constexpr int kTagTaskFail = 3;  // executor -> driver (fetch failure)
constexpr int kTagExit = 4;      // driver -> executor

struct TaskHeader {
  std::uint64_t task_set = 0;
  std::int32_t partition = 0;
};

// Task messages start with a fixed 12-byte header (task_set, partition).
constexpr std::size_t kTaskHeaderBytes = 12;

void WriteHeader(serde::Writer& w, std::uint64_t task_set, int partition) {
  w.WriteRaw<std::uint64_t>(task_set);
  w.WriteRaw<std::int32_t>(partition);
}

buf::Bytes EncodeTask(std::uint64_t task_set, int partition) {
  serde::Writer w;
  w.Reserve(kTaskHeaderBytes);
  WriteHeader(w, task_set, partition);
  return w.TakeBytes();
}

buf::Bytes EncodeTaskFail(std::uint64_t task_set, int partition,
                          int shuffle_id) {
  serde::Writer w;
  w.Reserve(kTaskHeaderBytes + 4);
  WriteHeader(w, task_set, partition);
  w.WriteRaw<std::int32_t>(shuffle_id);
  return w.TakeBytes();
}

/// Decode the header every task message starts with.
TaskHeader DecodeHeader(const buf::Bytes& payload) {
  // The slice is a temporary, but the chunk it points into is owned by
  // `payload`, so the reader's view stays valid.
  serde::Reader r(payload.Slice(0, kTaskHeaderBytes));
  TaskHeader h;
  h.task_set = r.ReadRaw<std::uint64_t>().value();
  h.partition = r.ReadRaw<std::int32_t>().value();
  return h;
}

/// Collect every lineage edge (child -> parent) reachable from `rdd` for
/// the verify hub's acyclicity check.
void CollectLineage(RddBase& rdd, std::set<int>& seen,
                    std::vector<verify::LineageEdge>& out) {
  if (!seen.insert(rdd.id()).second) return;
  for (const auto& parent : rdd.narrow_parents) {
    out.push_back(verify::LineageEdge{rdd.id(), parent->id()});
    CollectLineage(*parent, seen, out);
  }
  for (const auto& dep : rdd.shuffle_deps) {
    out.push_back(verify::LineageEdge{rdd.id(), dep->parent_ptr()->id()});
    CollectLineage(*dep->parent_ptr(), seen, out);
  }
}

/// Collect the job's shuffle dependencies in parents-first order.
void CollectShuffleDeps(RddBase& rdd, std::set<int>& seen_rdds,
                        std::set<int>& seen_shuffles,
                        std::vector<std::shared_ptr<ShuffleDepBase>>& out) {
  if (!seen_rdds.insert(rdd.id()).second) return;
  for (const auto& parent : rdd.narrow_parents) {
    CollectShuffleDeps(*parent, seen_rdds, seen_shuffles, out);
  }
  for (const auto& dep : rdd.shuffle_deps) {
    CollectShuffleDeps(*dep->parent_ptr(), seen_rdds, seen_shuffles, out);
    if (seen_shuffles.insert(dep->shuffle_id()).second) {
      out.push_back(dep);
    }
  }
}

}  // namespace

// ===========================================================================
// TaskRt
// ===========================================================================

double TaskRt::data_scale() const { return app_.data_scale(); }

void TaskRt::ChargeRecords(std::uint64_t records, Bytes bytes) {
  const double inflate = 1.0 / app_.data_scale();
  const SimTime seconds =
      inflate *
      (static_cast<double>(records) * app_.options.cpu_per_record +
       static_cast<double>(bytes) * app_.options.cpu_per_byte);
  ctx_.Compute(seconds);
  if (app_.obs != nullptr) {
    app_.obs->Observe(app_.obs_tags.time_compute, seconds);
  }
}

void TaskRt::ChargeSerde(std::uint64_t records, Bytes actual_bytes) {
  ChargeRecords(records,
                static_cast<Bytes>(
                    static_cast<double>(actual_bytes) *
                    app_.options.java_serialization_factor));
}

PartitionHandle TaskRt::Evaluate(RddBase& rdd, int p) {
  if (rdd.storage_level != StorageLevel::kNone) {
    if (const BlockStore::Block* block =
            app_.block_store->Lookup(executor_, rdd.id(), p)) {
      ++app_.stats.cache_hits;
      if (block->on_disk) {
        const SimTime t0 = ctx_.now();
        const SimTime done = app_.cluster->scratch_disk(node_)->Read(
            block->modeled_size, t0);
        ctx_.SleepUntil(done);
        if (app_.obs != nullptr) {
          app_.obs->Observe(app_.obs_tags.time_persist_io, ctx_.now() - t0);
        }
      }
      return block->data;
    }
    ++app_.stats.cache_misses;
  }

  PartitionHandle data = rdd.Compute(*this, p);
  app_.verify->OnSparkPartitionComputed(
      app_.verify_job, rdd.id(), p, rdd.storage_level != StorageLevel::kNone,
      ctx_.now());

  if (rdd.storage_level != StorageLevel::kNone) {
    BlockStore::Block block;
    block.data = data;
    block.modeled_size = app_.Modeled(rdd.SizeOf(data));
    block.level = rdd.storage_level;
    Bytes spilled = 0;
    app_.block_store->Put(executor_, rdd.id(), p, block, &spilled);
    if (spilled > 0) {
      app_.stats.cache_spilled_bytes += spilled;
      const SimTime t0 = ctx_.now();
      const SimTime done =
          app_.cluster->scratch_disk(node_)->Write(spilled, t0);
      ctx_.SleepUntil(done);
      if (app_.obs != nullptr) {
        app_.obs->Observe(app_.obs_tags.time_persist_io, ctx_.now() - t0);
      }
    }
  }
  return data;
}

std::vector<buf::Bytes> TaskRt::FetchShuffle(int shuffle_id,
                                             int reduce_partition) {
  const int num_maps = app_.shuffle_store.NumMaps(shuffle_id);
  std::vector<buf::Bytes> buffers;
  buffers.reserve(static_cast<std::size_t>(num_maps));
  const SimTime t0 = ctx_.now();
  SimTime last_arrival = ctx_.now();
  SimTime cpu = 0;
  for (int m = 0; m < num_maps; ++m) {
    const ShuffleStore::MapOutput* output =
        app_.shuffle_store.GetMapOutput(shuffle_id, m);
    if (output == nullptr || !app_.ExecutorAlive(output->executor)) {
      if (app_.verify->active()) {
        int ready = 0;
        for (int i = 0; i < num_maps; ++i) {
          const ShuffleStore::MapOutput* o =
              app_.shuffle_store.GetMapOutput(shuffle_id, i);
          if (o != nullptr && app_.ExecutorAlive(o->executor)) ++ready;
        }
        // The stage barrier broke (a reducer started with map outputs
        // missing), but lineage-based recovery will recompute them.
        app_.verify->OnStageBarrier("spark", shuffle_id, ready, num_maps,
                                    /*will_recover=*/true, ctx_.now());
      }
      throw FetchFailed{shuffle_id};
    }
    const buf::Bytes& bucket =
        output->buckets[static_cast<std::size_t>(reduce_partition)];
    const Bytes modeled = app_.Modeled(static_cast<Bytes>(
        static_cast<double>(bucket.size()) *
        app_.options.java_serialization_factor));
    if (output->executor == executor_) {
      app_.stats.shuffle_local_bytes += modeled;
      if (app_.obs != nullptr) {
        app_.obs->Add(app_.obs_tags.bytes_local, modeled);
      }
      continue;  // served from the local shuffle file / page cache
    }
    app_.stats.shuffle_fetched_bytes += modeled;
    if (app_.obs != nullptr) {
      app_.obs->Add(app_.options.rdma_shuffle ? app_.obs_tags.bytes_rdma
                                              : app_.obs_tags.bytes_socket,
                    modeled);
    }
    // All fetches are issued concurrently (Spark opens several streams);
    // NIC timelines provide the serialization.
    const auto times = app_.shuffle_fabric->Transfer(output->node, node_,
                                                     modeled, ctx_.now());
    cpu += times.receiver_cpu;
    last_arrival = std::max(last_arrival, times.arrival);
  }
  ctx_.Compute(cpu);
  ctx_.SleepUntil(last_arrival);
  // While this task slept on the fetch, a node failure may have dropped an
  // executor's map outputs (DropExecutor erases them; a re-run's
  // PutMapOutput replaces them). A reducer must not consume data whose
  // producer died mid-fetch — the real transfer would have broken — so
  // only now, with virtual time advanced past the transfer, alias the
  // surviving buckets (refcount bumps, no copy) and treat any loss as a
  // fetch failure so the driver reruns the map stage.
  for (int m = 0; m < num_maps; ++m) {
    const ShuffleStore::MapOutput* output =
        app_.shuffle_store.GetMapOutput(shuffle_id, m);
    if (output == nullptr || !app_.ExecutorAlive(output->executor)) {
      throw FetchFailed{shuffle_id};
    }
    buffers.push_back(
        output->buckets[static_cast<std::size_t>(reduce_partition)]);
  }
  Bytes fetched = 0;
  for (const buf::Bytes& bucket : buffers) fetched += bucket.size();
  if (app_.obs != nullptr) {
    app_.obs->Add(app_.obs_tags.bytes_fetched, fetched);
    app_.obs->Observe(app_.obs_tags.time_shuffle_net, ctx_.now() - t0);
  }
  return buffers;
}

void TaskRt::CommitShuffleOutput(int shuffle_id, int map_partition,
                                 std::vector<buf::Bytes> buckets) {
  Bytes total = 0;
  for (const auto& bucket : buckets) total += bucket.size();
  const Bytes modeled = app_.Modeled(static_cast<Bytes>(
      static_cast<double>(total) * app_.options.java_serialization_factor));
  // Shuffle files land on the executor's local disk.
  const SimTime t0 = ctx_.now();
  const SimTime done = app_.cluster->scratch_disk(node_)->Write(modeled, t0);
  ctx_.SleepUntil(done);
  if (app_.obs != nullptr) {
    app_.obs->Observe(app_.obs_tags.time_shuffle_disk, ctx_.now() - t0);
  }

  ShuffleStore::MapOutput output;
  output.executor = executor_;
  output.node = node_;
  output.buckets = std::move(buckets);
  app_.shuffle_store.PutMapOutput(shuffle_id, map_partition,
                                  std::move(output));
}

Result<buf::Bytes> TaskRt::ReadDfsBlock(const std::string& path,
                                        std::size_t block) {
  if (app_.dfs == nullptr) {
    return FailedPrecondition("no DFS configured for this app");
  }
  return app_.dfs->ReadBlock(ctx_, node_, path, block);
}

Result<buf::Bytes> TaskRt::ReadLocalLines(const std::string& path,
                                          Bytes offset, Bytes length) {
  return app_.cluster->scratch(node_).ReadLines(ctx_, path, offset, length);
}

// ===========================================================================
// SparkContext: factories
// ===========================================================================

Result<Rdd<std::string>> SparkContext::TextFile(const std::string& path) {
  if (app_.dfs == nullptr) {
    return FailedPrecondition("no DFS configured for this app");
  }
  auto locations = app_.dfs->BlockLocations(path);
  if (!locations.ok()) return locations.status();
  auto node = std::make_shared<TextFileDfsNode>(NewRddId(), path,
                                                std::move(locations).value());
  return Rdd<std::string>(this, node);
}

Result<Rdd<std::string>> SparkContext::TextFileLocal(const std::string& path) {
  // The file must be present on every node's scratch (the paper copies it
  // there); use node 0's copy for metadata.
  auto size = app_.cluster->scratch(0).Size(path);
  if (!size.ok()) return size.status();
  for (int n = 0; n < app_.cluster->nodes(); ++n) {
    if (!app_.cluster->scratch(n).Exists(path)) {
      return FailedPrecondition("local file " + path + " missing on node " +
                                std::to_string(n));
    }
  }
  const auto actual_split = std::max<Bytes>(
      1, static_cast<Bytes>(static_cast<double>(app_.options.local_split_bytes) *
                            app_.data_scale()));
  const int splits = static_cast<int>(
      (size.value() + actual_split - 1) / std::max<Bytes>(1, actual_split));
  auto node = std::make_shared<TextFileLocalNode>(
      NewRddId(), path, size.value(), actual_split, std::max(1, splits));
  return Rdd<std::string>(this, node);
}

// ===========================================================================
// SparkContext: DAG scheduler
// ===========================================================================

std::vector<int> SparkContext::PreferredExecutors(RddBase& rdd, int p) const {
  // Cached copies win.
  if (rdd.storage_level != StorageLevel::kNone) {
    std::vector<int> cached = app_.block_store->CachedExecutors(rdd.id(), p);
    std::erase_if(cached, [&](int e) { return !app_.ExecutorAlive(e); });
    if (!cached.empty()) return cached;
  }
  // Source locality (DFS block replicas).
  const std::vector<int> nodes = rdd.PreferredNodes(p);
  if (!nodes.empty()) {
    std::vector<int> executors;
    for (const ExecutorInfo& info : app_.executors) {
      if (!app_.ExecutorAlive(info.id)) continue;
      if (std::find(nodes.begin(), nodes.end(), info.node) != nodes.end()) {
        executors.push_back(info.id);
      }
    }
    return executors;
  }
  if (!rdd.narrow_parents.empty()) {
    return PreferredExecutors(*rdd.narrow_parents.front(), p);
  }
  return {};
}

void SparkContext::SweepExecutors() {
  for (ExecutorInfo& info : app_.executors) {
    if (info.alive && !app_.ExecutorAlive(info.id)) {
      info.alive = false;
      app_.shuffle_store.DropExecutor(info.id);
      app_.block_store->DropExecutor(info.id);
      PSTK_INFO("spark") << "executor " << info.id << " on node " << info.node
                         << " lost";
    }
    // Standalone-master reacquisition: a worker on a healed node
    // re-registers and the master hands the app a fresh executor (its
    // shuffle/cache state is gone — lineage recomputes what is needed).
    if (!info.alive && app_.respawn_executor &&
        !app_.cluster->NodeFailed(info.node)) {
      app_.control->endpoint(info.id).Reap();
      app_.respawn_executor(info);
      info.alive = true;
      info.busy = false;
      app_.obs->Add(app_.obs_tags.recovery_executors_reacquired);
      PSTK_INFO("spark") << "executor " << info.id << " reacquired on node "
                         << info.node;
    }
  }
}

SparkContext::TaskSetOutcome SparkContext::RunTaskSet(
    RddBase& locality_rdd, const std::vector<int>& partitions,
    const TaskClosure& closure,
    std::map<int, buf::Bytes>* results) {
  TaskSetOutcome outcome;
  if (partitions.empty()) return outcome;

  sim::Scope stage_scope(ctx_, app_.obs_tags.stage);
  const std::uint64_t task_set = app_.next_task_set++;
  app_.closures[task_set] = std::make_shared<const TaskClosure>(closure);

  // A previous task set may have aborted (fetch failure) with tasks still
  // in flight; those executors dropped the stale work, so treat everyone
  // as idle — their queued messages execute in order anyway.
  for (ExecutorInfo& info : app_.executors) info.busy = false;

  net::Endpoint& ep = app_.control->endpoint(app_.driver_endpoint);
  std::deque<int> pending(partitions.begin(), partitions.end());
  std::map<int, int> running;  // partition -> executor
  std::set<int> done;
  std::map<int, int> attempts;

  // Locality preferences, computed once.
  std::map<int, std::vector<int>> prefs;
  for (int p : partitions) prefs[p] = PreferredExecutors(locality_rdd, p);

  auto pick_task = [&](const ExecutorInfo& info) -> std::optional<int> {
    if (pending.empty()) return std::nullopt;
    // Executor-local (cached) first, then node-local, then anything.
    for (int pass = 0; pass < 3; ++pass) {
      for (auto it = pending.begin(); it != pending.end(); ++it) {
        const std::vector<int>& pref = prefs[*it];
        bool match = false;
        if (pass == 0) {
          match = std::find(pref.begin(), pref.end(), info.id) != pref.end();
        } else if (pass == 1) {
          for (int e : pref) {
            if (app_.executors[e].node == info.node) {
              match = true;
              break;
            }
          }
        } else {
          match = true;
        }
        if (match) {
          const int p = *it;
          pending.erase(it);
          return p;
        }
      }
    }
    return std::nullopt;
  };

  auto finish = [&](Status status, bool fetch_failed) {
    app_.closures.erase(task_set);
    outcome.status = std::move(status);
    outcome.fetch_failed = fetch_failed;
    return outcome;
  };

  while (done.size() < partitions.size()) {
    // Assign work to idle executors.
    for (ExecutorInfo& info : app_.executors) {
      if (!info.alive || info.busy || pending.empty()) continue;
      auto task = pick_task(info);
      if (!task.has_value()) break;
      const int p = *task;
      if (++attempts[p] > 4) {
        return finish(Internal("task for partition " + std::to_string(p) +
                               " failed 4 times"),
                      false);
      }
      ctx_.Compute(app_.options.driver_per_task);
      const Bytes ship = app_.options.task_message_bytes +
                         app_.Modeled(locality_rdd.ExtraTaskShipBytes(p));
      ep.SendAsync(ctx_, info.id, kTagTask, EncodeTask(task_set, p), ship);
      info.busy = true;
      running[p] = info.id;
      ++app_.stats.tasks_launched;
    }

    auto msg = ep.RecvWithTimeout(ctx_, ctx_.now() + app_.options.heartbeat);
    if (!msg.has_value()) {
      SweepExecutors();
      bool requeued = false;
      for (auto it = running.begin(); it != running.end();) {
        if (!app_.executors[it->second].alive) {
          pending.push_back(it->first);
          ++app_.stats.task_retries;
          app_.obs->Add(app_.obs_tags.recovery_task_retries);
          it = running.erase(it);
          requeued = true;
        } else {
          ++it;
        }
      }
      if (!requeued) {
        bool any_alive = false;
        for (const ExecutorInfo& info : app_.executors) {
          any_alive = any_alive || info.alive;
        }
        if (!any_alive) {
          return finish(Unavailable("all Spark executors lost"), false);
        }
      }
      continue;
    }

    const TaskHeader header = DecodeHeader(msg->payload);
    const int executor = msg->src;
    if (executor >= 0 && executor < static_cast<int>(app_.executors.size())) {
      app_.executors[executor].busy = false;
    }
    if (header.task_set != task_set) continue;  // stale completion
    if (done.count(header.partition) > 0) continue;

    if (msg->tag == kTagTaskDone) {
      running.erase(header.partition);
      done.insert(header.partition);
      if (results != nullptr) {
        // Zero-copy: the result is the message payload past the header.
        (*results)[header.partition] = msg->payload.Slice(kTaskHeaderBytes);
      }
    } else if (msg->tag == kTagTaskFail) {
      ++app_.stats.fetch_failures;
      app_.obs->Add(app_.obs_tags.recovery_fetch_failures);
      running.erase(header.partition);
      SweepExecutors();
      return finish(OkStatus(), /*fetch_failed=*/true);
    }
  }
  return finish(OkStatus(), false);
}

Result<std::vector<buf::Bytes>> SparkContext::RunJob(
    std::shared_ptr<RddBase> final_rdd,
    TaskClosure result_closure) {
  sim::Scope job_scope(ctx_, app_.obs_tags.job);
  ctx_.Compute(app_.options.driver_per_job);
  ++app_.stats.jobs;

  std::vector<std::shared_ptr<ShuffleDepBase>> deps;
  {
    std::set<int> seen_rdds;
    std::set<int> seen_shuffles;
    CollectShuffleDeps(*final_rdd, seen_rdds, seen_shuffles, deps);
  }
  if (app_.verify->active()) {
    std::vector<verify::LineageEdge> edges;
    std::set<int> seen;
    CollectLineage(*final_rdd, seen, edges);
    app_.verify->OnSparkLineage(edges);
  }

  std::map<int, buf::Bytes> results;
  std::set<int> result_done;
  const int max_rounds = 8 * static_cast<int>(deps.size() + 2);
  for (int round = 0; round < max_rounds; ++round) {
    // First incomplete shuffle stage runs next (deps are parents-first).
    ShuffleDepBase* next = nullptr;
    for (const auto& dep : deps) {
      if (!app_.shuffle_store.Complete(dep->shuffle_id())) {
        next = dep.get();
        break;
      }
    }
    if (next != nullptr) {
      auto dep_ptr = *std::find_if(deps.begin(), deps.end(),
                                   [&](const auto& d) {
                                     return d.get() == next;
                                   });
      const std::vector<int> missing =
          app_.shuffle_store.MissingMaps(next->shuffle_id());
      auto map_closure = [dep_ptr](TaskRt& rt, int p, serde::Writer& out) {
        auto buckets = dep_ptr->RunMapTask(rt, p);
        rt.CommitShuffleOutput(dep_ptr->shuffle_id(), p, std::move(buckets));
        serde::Encode<std::uint8_t>(out, 1);
      };
      TaskSetOutcome outcome =
          RunTaskSet(next->parent(), missing, map_closure, nullptr);
      if (!outcome.status.ok()) return outcome.status;
      continue;  // fetch_failed or success: either way re-derive readiness
    }

    // All shuffles complete: run missing result partitions.
    std::vector<int> missing_results;
    for (int p = 0; p < final_rdd->num_partitions(); ++p) {
      if (result_done.count(p) == 0) missing_results.push_back(p);
    }
    std::map<int, buf::Bytes> partials;
    TaskSetOutcome outcome =
        RunTaskSet(*final_rdd, missing_results, result_closure, &partials);
    if (!outcome.status.ok()) return outcome.status;
    for (auto& [p, buffer] : partials) {
      results[p] = std::move(buffer);
      result_done.insert(p);
    }
    if (outcome.fetch_failed) continue;
    if (static_cast<int>(result_done.size()) == final_rdd->num_partitions()) {
      std::vector<buf::Bytes> ordered;
      ordered.reserve(results.size());
      for (auto& [p, buffer] : results) ordered.push_back(std::move(buffer));
      return ordered;
    }
  }
  return Internal("job exceeded stage retry budget");
}

// ===========================================================================
// MiniSpark deployment
// ===========================================================================

MiniSpark::MiniSpark(cluster::Cluster& cluster, dfs::MiniDfs* dfs,
                     SparkOptions options)
    : cluster_(cluster), app_(std::make_shared<AppState>()) {
  app_->options = std::move(options);
  app_->cluster = &cluster;
  app_->dfs = dfs;
  app_->obs = &cluster.engine().obs();
  app_->verify = &cluster.engine().verify();
  app_->verify_job = app_->verify->NewJob();
  app_->obs_tags.job = app_->obs->Intern("spark.job");
  app_->obs_tags.stage = app_->obs->Intern("spark.stage");
  app_->obs_tags.task = app_->obs->Intern("spark.task");
  app_->obs_tags.time_compute = app_->obs->Intern("spark.time.compute");
  app_->obs_tags.time_shuffle_net = app_->obs->Intern("spark.time.shuffle_net");
  app_->obs_tags.time_shuffle_disk =
      app_->obs->Intern("spark.time.shuffle_disk");
  app_->obs_tags.time_persist_io = app_->obs->Intern("spark.time.persist_io");
  app_->obs_tags.tasks = app_->obs->Intern("spark.tasks");
  app_->obs_tags.bytes_socket = app_->obs->Intern("spark.shuffle.bytes.socket");
  app_->obs_tags.bytes_rdma = app_->obs->Intern("spark.shuffle.bytes.rdma");
  app_->obs_tags.bytes_local = app_->obs->Intern("spark.shuffle.bytes.local");
  app_->obs_tags.bytes_fetched = app_->obs->Intern("shuffle.bytes_fetched");
  app_->obs_tags.recovery_task_retries =
      app_->obs->Intern("recovery.spark.task_retries");
  app_->obs_tags.recovery_fetch_failures =
      app_->obs->Intern("recovery.spark.fetch_failures");
  app_->obs_tags.recovery_executors_reacquired =
      app_->obs->Intern("recovery.spark.executors_reacquired");
  app_->control = std::make_unique<net::Network>(
      cluster.engine(), cluster.fabric(app_->options.control_transport));
  app_->shuffle_fabric =
      cluster.fabric(app_->options.rdma_shuffle
                         ? app_->options.rdma_transport
                         : app_->options.shuffle_transport);
  const Bytes per_executor_memory = static_cast<Bytes>(
      static_cast<double>(cluster.spec().node.memory) *
      app_->options.storage_memory_fraction /
      static_cast<double>(app_->options.executors_per_node));
  app_->block_store = std::make_unique<BlockStore>(per_executor_memory);

  const std::vector<int>& placement = app_->options.executor_nodes;
  const int executors =
      placement.empty() ? cluster.nodes() * app_->options.executors_per_node
                        : static_cast<int>(placement.size());
  // The driver endpoint sits past the growth headroom so AddExecutor can
  // hand out fresh executor ids without colliding with it.
  app_->driver_endpoint = std::max(executors, app_->options.max_executors);
  app_->executors.resize(static_cast<std::size_t>(executors));
  for (int e = 0; e < executors; ++e) {
    const int node =
        placement.empty() ? e / app_->options.executors_per_node : placement[e];
    PSTK_CHECK_MSG(node >= 0 && node < cluster.nodes(),
                   "executor node " << node << " out of range");
    app_->executors[e] = ExecutorInfo{e, node, sim::kNoPid, false, false};
    app_->control->CreateEndpoint(e, node);
  }
  app_->control->CreateEndpoint(app_->driver_endpoint,
                                app_->options.driver_node);
}

void MiniSpark::Submit(DriverBody body,
                       std::function<void(Result<AppResult>)> on_done) {
  // Executor processes.
  for (ExecutorInfo& info : app_->executors) {
    info.pid = cluster_.engine().Spawn(
        app_->options.name + "-exec-" + std::to_string(info.id),
        [this, id = info.id](sim::Context& ctx) { ExecutorMain(ctx, id); },
        info.node);
    info.alive = true;
  }
  if (app_->options.reacquire_executors) {
    app_->respawn_executor = [this](ExecutorInfo& info) {
      info.pid = cluster_.engine().Spawn(
          app_->options.name + "-exec-" + std::to_string(info.id),
          [this, id = info.id](sim::Context& ctx) { ExecutorMain(ctx, id); },
          info.node);
    };
  }
  // Driver process (client mode).
  cluster_.engine().Spawn(
      app_->options.name + "-driver",
      [this, body = std::move(body),
       on_done = std::move(on_done)](sim::Context& ctx) {
        DriverMain(ctx, body, on_done);
      },
      app_->options.driver_node);
}

int MiniSpark::AddExecutor(int node) {
  const int id = static_cast<int>(app_->executors.size());
  PSTK_CHECK_MSG(id < app_->driver_endpoint,
                 "executor growth past max_executors=" << app_->driver_endpoint);
  app_->executors.push_back(ExecutorInfo{id, node, sim::kNoPid, false, false});
  app_->control->CreateEndpoint(id, node);
  ExecutorInfo& info = app_->executors.back();
  info.pid = cluster_.engine().Spawn(
      app_->options.name + "-exec-" + std::to_string(id),
      [this, id](sim::Context& ctx) { ExecutorMain(ctx, id); }, node);
  info.alive = true;
  return id;
}

void MiniSpark::RemoveExecutor(int executor_id) {
  ExecutorInfo& info =
      app_->executors[static_cast<std::size_t>(executor_id)];
  if (info.pid != sim::kNoPid && cluster_.engine().IsAlive(info.pid)) {
    // The driver's next SweepExecutors drops its shuffle/cache state and
    // lineage recomputes anything lost — the elastic shrink path.
    cluster_.engine().KillNow(info.pid);
  }
}

Result<AppResult> MiniSpark::RunApp(DriverBody body) {
  std::optional<Result<AppResult>> outcome;
  Submit(std::move(body),
         [&outcome](Result<AppResult> result) { outcome = std::move(result); });
  const sim::RunResult run = cluster_.engine().Run();
  if (outcome.has_value()) return *std::move(outcome);
  if (!run.status.ok()) return run.status;
  return Internal("Spark app never completed");
}

void MiniSpark::DriverMain(sim::Context& ctx, DriverBody body,
                           std::function<void(Result<AppResult>)> on_done) {
  const SimTime start = ctx.now();
  // spark-submit, driver JVM, executor registration.
  ctx.SleepUntil(start + app_->options.app_startup);

  SparkContext sc(*app_, ctx);
  body(sc);

  // Tear the executors down.
  app_->app_done = true;
  net::Endpoint& ep = app_->control->endpoint(app_->driver_endpoint);
  for (const ExecutorInfo& info : app_->executors) {
    if (app_->ExecutorAlive(info.id)) {
      ep.SendAsync(ctx, info.id, kTagExit, buf::Bytes{});
    }
  }

  AppResult result;
  result.elapsed = ctx.now() - start;
  result.stats = app_->stats;
  on_done(result);
}

void MiniSpark::ExecutorMain(sim::Context& ctx, int executor_id) {
  net::Endpoint& ep = app_->control->endpoint(executor_id);
  const int node = app_->executors[static_cast<std::size_t>(executor_id)].node;
  for (;;) {
    // Wake periodically so app teardown can't strand us.
    auto msg = ep.RecvWithTimeout(ctx, ctx.now() + 30.0);
    if (!msg.has_value()) {
      if (app_->app_done) return;
      continue;
    }
    if (msg->tag == kTagExit) return;
    PSTK_CHECK(msg->tag == kTagTask);
    const TaskHeader header = DecodeHeader(msg->payload);

    const auto found = app_->closures.find(header.task_set);
    if (found == app_->closures.end()) continue;  // stale task
    const std::shared_ptr<const TaskClosure> closure = found->second;

    ctx.Compute(app_->options.executor_per_task);
    app_->obs->Add(app_->obs_tags.tasks);
    sim::Scope task_scope(ctx, app_->obs_tags.task);
    TaskRt rt(*app_, ctx, executor_id, node);
    try {
      // The result is encoded right after the header, so the completion
      // message is one chunk.
      serde::Writer done;
      done.Reserve(kTaskHeaderBytes);
      WriteHeader(done, header.task_set, header.partition);
      (*closure)(rt, header.partition, done);
      const Bytes modeled =
          app_->Modeled(done.size() - kTaskHeaderBytes) + kKiB;
      ep.SendAsync(ctx, app_->driver_endpoint, kTagTaskDone, done.TakeBytes(),
                   modeled);
    } catch (const FetchFailed& failed) {
      ep.SendAsync(ctx, app_->driver_endpoint, kTagTaskFail,
                   EncodeTaskFail(header.task_set, header.partition,
                                  failed.shuffle_id));
    }
  }
}

}  // namespace pstk::spark
