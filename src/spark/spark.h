// MiniSpark public API: SparkContext (driver-side facade), the Rdd /
// PairRdd user handles, and the MiniSpark deployment (driver + executors
// on the simulated cluster).
//
// The deployment model matches the paper's runs: one driver process plus
// `executors_per_node` single-core executor processes per node; driver <->
// executor orchestration always travels over Java sockets (IPoIB), while
// shuffle data uses sockets or the RDMA engine depending on
// SparkOptions::rdma_shuffle (the Spark-RDMA plugin of Lu et al.).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "dfs/dfs.h"
#include "net/network.h"
#include "sim/engine.h"
#include "spark/rdd.h"
#include "spark/runtime.h"
#include "spark/task_rt.h"

namespace pstk::spark {

template <typename T>
class Rdd;
template <typename K, typename V>
class PairRdd;

struct ExecutorInfo {
  int id = -1;
  int node = -1;
  sim::Pid pid = sim::kNoPid;
  bool alive = false;
  bool busy = false;
};

struct AppStats {
  std::uint64_t jobs = 0;
  std::uint64_t tasks_launched = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t fetch_failures = 0;
  Bytes shuffle_fetched_bytes = 0;  // modeled bytes moved over the fabric
  Bytes shuffle_local_bytes = 0;    // modeled bytes served executor-locally
  Bytes cache_spilled_bytes = 0;    // modeled bytes spilled by BlockManager
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Interned tags for the Spark layer's obs instrumentation; filled by
/// MiniSpark against the engine's registry.
struct SparkObsTags {
  // Spans (Chrome trace).
  obs::TagId job = obs::kNoTag;
  obs::TagId stage = obs::kNoTag;
  obs::TagId task = obs::kNoTag;
  // Where-time-goes histograms (virtual seconds per occurrence).
  obs::TagId time_compute = obs::kNoTag;
  obs::TagId time_shuffle_net = obs::kNoTag;
  obs::TagId time_shuffle_disk = obs::kNoTag;
  obs::TagId time_persist_io = obs::kNoTag;
  // Counters.
  obs::TagId tasks = obs::kNoTag;
  obs::TagId bytes_socket = obs::kNoTag;
  obs::TagId bytes_rdma = obs::kNoTag;
  obs::TagId bytes_local = obs::kNoTag;
  obs::TagId bytes_fetched = obs::kNoTag;  // actual bytes handed to reducers
  // Recovery work (cross-framework `recovery.*` namespace; the MPI/SHMEM
  // side's counters come from ckpt::RestartManager).
  obs::TagId recovery_task_retries = obs::kNoTag;
  obs::TagId recovery_fetch_failures = obs::kNoTag;
  obs::TagId recovery_executors_reacquired = obs::kNoTag;
};

/// A task body: computes partition `p` on an executor and encodes its
/// result into `out`, right after the task header the executor wrote.
using TaskClosure = std::function<void(TaskRt&, int, serde::Writer&)>;

/// Engine-global application state shared by driver and executors.
struct AppState {
  SparkOptions options;
  cluster::Cluster* cluster = nullptr;
  dfs::MiniDfs* dfs = nullptr;  // may be null (local-file apps)
  obs::Registry* obs = nullptr;
  verify::Hub* verify = nullptr;  // the engine's verify hub; always set
  int verify_job = 0;             // this app's number on that hub
  SparkObsTags obs_tags;
  std::unique_ptr<net::Network> control;      // driver + executor endpoints
  std::shared_ptr<net::Fabric> shuffle_fabric;
  ShuffleStore shuffle_store;
  std::unique_ptr<BlockStore> block_store;
  std::vector<ExecutorInfo> executors;
  /// Re-spawns one executor process on its (healed) node; installed by
  /// MiniSpark::Submit when SparkOptions::reacquire_executors is set.
  std::function<void(ExecutorInfo&)> respawn_executor;
  int driver_endpoint = 0;
  /// Closures of the running task sets. RunTaskSet drops its entry when
  /// the set ends, possibly on a fetch failure while another executor is
  /// still inside the closure, so each executor holds a reference of its
  /// own for the length of its task.
  std::map<std::uint64_t, std::shared_ptr<const TaskClosure>> closures;
  std::uint64_t next_task_set = 1;
  int next_rdd_id = 0;
  int next_shuffle_id = 0;
  AppStats stats;
  bool app_done = false;

  [[nodiscard]] double data_scale() const { return cluster->data_scale(); }
  [[nodiscard]] Bytes Modeled(Bytes actual) const {
    return cluster->Modeled(actual);
  }
  [[nodiscard]] bool ExecutorAlive(int executor) const {
    return cluster->engine().IsAlive(executors[executor].pid);
  }
};

/// Driver-side facade: RDD factories and the DAG scheduler entry point.
/// Constructed by MiniSpark inside the driver process.
class SparkContext {
 public:
  SparkContext(AppState& app, sim::Context& ctx) : app_(app), ctx_(ctx) {}

  [[nodiscard]] int default_parallelism() const {
    return app_.options.default_parallelism > 0
               ? app_.options.default_parallelism
               : static_cast<int>(app_.executors.size());
  }
  [[nodiscard]] sim::Context& ctx() { return ctx_; }
  [[nodiscard]] AppState& app() { return app_; }
  [[nodiscard]] const AppStats& stats() const { return app_.stats; }

  /// sc.parallelize(data, slices) — data ships inside the task closures.
  template <typename T>
  Rdd<T> Parallelize(std::vector<T> data, int slices = 0);

  /// sc.textFile("hdfs://...") — one partition per MiniDFS block.
  Result<Rdd<std::string>> TextFile(const std::string& path);

  /// sc.textFile("file://...") — the file must be staged on every node's
  /// local scratch; fixed-size splits with line-boundary handling.
  Result<Rdd<std::string>> TextFileLocal(const std::string& path);

  // -- internals used by the handles (public for template access) ---------

  int NewRddId() { return app_.next_rdd_id++; }
  int NewShuffleId() { return app_.next_shuffle_id++; }
  void RegisterShuffle(int shuffle_id, int num_maps, int num_reduces) {
    app_.shuffle_store.Register(shuffle_id, num_maps, num_reduces);
  }

  /// DAG-schedule a job: run `result_closure` over every partition of
  /// `final_rdd` (parent shuffle stages first), with lineage-based retry
  /// on executor loss. Returns per-partition serialized results (each a
  /// zero-copy slice of the executor's completion message).
  Result<std::vector<buf::Bytes>> RunJob(std::shared_ptr<RddBase> final_rdd,
                                         TaskClosure result_closure);

  void Unpersist(int rdd_id) { app_.block_store->DropRdd(rdd_id); }

 private:
  struct TaskSetOutcome {
    Status status;
    bool fetch_failed = false;
  };
  TaskSetOutcome RunTaskSet(RddBase& locality_rdd,
                            const std::vector<int>& partitions,
                            const TaskClosure& closure,
                            std::map<int, buf::Bytes>* results);
  std::vector<int> PreferredExecutors(RddBase& rdd, int p) const;
  void SweepExecutors();

  AppState& app_;
  sim::Context& ctx_;
};

// ===========================================================================
// User handles
// ===========================================================================

template <typename T>
class Rdd {
 public:
  Rdd(SparkContext* sc, std::shared_ptr<TypedRdd<T>> node)
      : sc_(sc), node_(std::move(node)) {}

  [[nodiscard]] int num_partitions() const { return node_->num_partitions(); }
  [[nodiscard]] const std::shared_ptr<TypedRdd<T>>& node() const {
    return node_;
  }
  [[nodiscard]] SparkContext* context() const { return sc_; }

  // -- transformations (lazy) ----------------------------------------------

  template <typename U>
  Rdd<U> Map(std::function<U(const T&)> fn) const {
    return Rdd<U>(sc_, std::make_shared<MapNode<T, U>>(
                           sc_->NewRddId(), node_, std::move(fn), false));
  }

  template <typename U>
  Rdd<U> FlatMap(std::function<std::vector<U>(const T&)> fn) const {
    return Rdd<U>(sc_, std::make_shared<FlatMapNode<T, U>>(
                           sc_->NewRddId(), node_, std::move(fn)));
  }

  Rdd<T> Filter(std::function<bool(const T&)> pred) const {
    return Rdd<T>(sc_, std::make_shared<FilterNode<T>>(
                           sc_->NewRddId(), node_, std::move(pred)));
  }

  /// rdd.union(other): concatenation of partitions; narrow, no shuffle.
  Rdd<T> Union(const Rdd<T>& other) const {
    return Rdd<T>(sc_, std::make_shared<UnionNode<T>>(sc_->NewRddId(), node_,
                                                      other.node()));
  }

  /// rdd.distinct(): one shuffle, keyed on the element itself.
  Rdd<T> Distinct(int num_partitions = 0) const {
    auto keyed =
        KeyBy<T>([](const T& item) { return item; })
            .template MapValues<std::uint8_t>(
                [](const T&) { return std::uint8_t{1}; })
            .ReduceByKey([](std::uint8_t a, std::uint8_t) { return a; },
                         num_partitions);
    return keyed.Keys();
  }

  /// Turn into a pair RDD by deriving a key per element.
  template <typename K>
  PairRdd<K, T> KeyBy(std::function<K(const T&)> key_fn) const;

  /// View a pair-typed RDD as a PairRdd (T must be std::pair<K, V>).
  template <typename K, typename V>
  PairRdd<K, V> AsPairs() const;

  // -- persistence ------------------------------------------------------------

  Rdd<T>& Persist(StorageLevel level = StorageLevel::kMemoryOnly) {
    node_->storage_level = level;
    return *this;
  }
  Rdd<T>& Cache() { return Persist(StorageLevel::kMemoryOnly); }
  void Unpersist() {
    node_->storage_level = StorageLevel::kNone;
    sc_->Unpersist(node_->id());
  }

  // -- actions -----------------------------------------------------------------

  Result<std::vector<T>> Collect() const {
    auto node = node_;
    auto buffers =
        sc_->RunJob(node, [node](TaskRt& rt, int p, serde::Writer& out) {
          serde::Encode(out, *rt.EvaluateTyped<T>(*node, p));
        });
    if (!buffers.ok()) return buffers.status();
    std::vector<T> out;
    for (const buf::Bytes& buffer : buffers.value()) {
      auto part = serde::DecodeFromBytes<std::vector<T>>(buffer);
      if (!part.ok()) return part.status();
      for (auto& item : part.value()) out.push_back(std::move(item));
    }
    return out;
  }

  Result<std::int64_t> Count() const {
    auto node = node_;
    auto buffers =
        sc_->RunJob(node, [node](TaskRt& rt, int p, serde::Writer& out) {
          auto part = rt.EvaluateTyped<T>(*node, p);
          serde::Encode<std::uint64_t>(out, part->size());
        });
    if (!buffers.ok()) return buffers.status();
    std::int64_t total = 0;
    for (const buf::Bytes& buffer : buffers.value()) {
      auto n = serde::DecodeFromBytes<std::uint64_t>(buffer);
      if (!n.ok()) return n.status();
      total += static_cast<std::int64_t>(n.value());
    }
    return total;
  }

  /// rdd.reduce(f): executor-side partial fold, driver-side final fold.
  Result<T> Reduce(std::function<T(const T&, const T&)> fn) const {
    auto node = node_;
    auto buffers = sc_->RunJob(node, [node, fn](TaskRt& rt, int p,
                                               serde::Writer& out) {
      auto part = rt.EvaluateTyped<T>(*node, p);
      std::vector<T> partial;
      if (!part->empty()) {
        T acc = (*part)[0];
        for (std::size_t i = 1; i < part->size(); ++i) {
          acc = fn(acc, (*part)[i]);
        }
        partial.push_back(std::move(acc));
      }
      rt.ChargeRecords(part->size(), 0);
      serde::Encode(out, partial);
    });
    if (!buffers.ok()) return buffers.status();
    std::optional<T> acc;
    for (const buf::Bytes& buffer : buffers.value()) {
      auto partial = serde::DecodeFromBytes<std::vector<T>>(buffer);
      if (!partial.ok()) return partial.status();
      for (const T& value : partial.value()) {
        acc = acc.has_value() ? fn(*acc, value) : value;
      }
    }
    if (!acc.has_value()) return InvalidArgument("reduce of empty RDD");
    return *acc;
  }

 private:
  SparkContext* sc_;
  std::shared_ptr<TypedRdd<T>> node_;
};

template <typename K, typename V>
class PairRdd {
 public:
  using P = std::pair<K, V>;
  PairRdd(SparkContext* sc, std::shared_ptr<TypedRdd<P>> node)
      : sc_(sc), node_(std::move(node)) {}

  [[nodiscard]] int num_partitions() const { return node_->num_partitions(); }
  [[nodiscard]] const std::shared_ptr<TypedRdd<P>>& node() const {
    return node_;
  }
  [[nodiscard]] std::optional<int> partitioner() const {
    return node_->partitioner;
  }
  [[nodiscard]] Rdd<P> AsRdd() const { return Rdd<P>(sc_, node_); }

  template <typename V2>
  PairRdd<K, V2> MapValues(std::function<V2(const V&)> fn) const {
    auto mapped = std::make_shared<MapNode<P, std::pair<K, V2>>>(
        sc_->NewRddId(), node_,
        [fn](const P& kv) {
          return std::pair<K, V2>(kv.first, fn(kv.second));
        },
        /*preserves_partitioning=*/true);
    return PairRdd<K, V2>(sc_, mapped);
  }

  Rdd<K> Keys() const {
    return AsRdd().template Map<K>([](const P& kv) { return kv.first; });
  }
  Rdd<V> Values() const {
    return AsRdd().template Map<V>([](const P& kv) { return kv.second; });
  }

  /// reduceByKey with map-side combine (one shuffle).
  PairRdd<K, V> ReduceByKey(std::function<V(V, V)> fn,
                            int num_partitions = 0) const {
    const int reduces = ResolveParts(num_partitions);
    auto dep = std::make_shared<ShuffleDepImpl<K, V, V>>(
        sc_->NewShuffleId(), node_, reduces, [](const V& v) { return v; },
        [fn](V acc, const V& v) { return fn(std::move(acc), v); });
    sc_->RegisterShuffle(dep->shuffle_id(), node_->num_partitions(), reduces);
    auto shuffled = std::make_shared<ShuffledNode<K, V>>(
        sc_->NewRddId(), dep,
        [fn](V a, V b) { return fn(std::move(a), std::move(b)); });
    return PairRdd<K, V>(sc_, shuffled);
  }

  PairRdd<K, std::vector<V>> GroupByKey(int num_partitions = 0) const {
    const int reduces = ResolveParts(num_partitions);
    auto dep = std::make_shared<ShuffleDepImpl<K, V, std::vector<V>>>(
        sc_->NewShuffleId(), node_, reduces,
        [](const V& v) { return std::vector<V>{v}; },
        [](std::vector<V> acc, const V& v) {
          acc.push_back(v);
          return acc;
        });
    sc_->RegisterShuffle(dep->shuffle_id(), node_->num_partitions(), reduces);
    auto shuffled = std::make_shared<ShuffledNode<K, std::vector<V>>>(
        sc_->NewRddId(), dep, [](std::vector<V> a, std::vector<V> b) {
          for (auto& v : b) a.push_back(std::move(v));
          return a;
        });
    return PairRdd<K, std::vector<V>>(sc_, shuffled);
  }

  /// Hash-repartition, keeping raw pairs (sets the partitioner, enabling
  /// narrow joins downstream — the BigDataBench PageRank tuning).
  PairRdd<K, V> PartitionBy(int num_partitions) const {
    auto dep = std::make_shared<ShuffleDepImpl<K, V, V>>(
        sc_->NewShuffleId(), node_, num_partitions);
    sc_->RegisterShuffle(dep->shuffle_id(), node_->num_partitions(),
                         num_partitions);
    auto shuffled = std::make_shared<ShuffledNode<K, V>>(sc_->NewRddId(), dep,
                                                         /*merge=*/nullptr);
    return PairRdd<K, V>(sc_, shuffled);
  }

  /// Inner join. Narrow (no shuffle) when both sides already share the
  /// same hash partitioner; otherwise both sides shuffle.
  template <typename W>
  PairRdd<K, std::pair<V, W>> Join(const PairRdd<K, W>& other,
                                   int num_partitions = 0) const {
    if (node_->partitioner.has_value() &&
        node_->partitioner == other.node()->partitioner) {
      auto joined = std::make_shared<NarrowJoinNode<K, V, W>>(
          sc_->NewRddId(), node_, other.node());
      return PairRdd<K, std::pair<V, W>>(sc_, joined);
    }
    const int reduces = ResolveParts(num_partitions);
    auto left_dep = std::make_shared<ShuffleDepImpl<K, V, V>>(
        sc_->NewShuffleId(), node_, reduces);
    sc_->RegisterShuffle(left_dep->shuffle_id(), node_->num_partitions(),
                         reduces);
    auto right_dep = std::make_shared<ShuffleDepImpl<K, W, W>>(
        sc_->NewShuffleId(), other.node(), reduces);
    sc_->RegisterShuffle(right_dep->shuffle_id(),
                         other.node()->num_partitions(), reduces);
    auto joined = std::make_shared<ShuffledJoinNode<K, V, W>>(
        sc_->NewRddId(), left_dep, right_dep);
    return PairRdd<K, std::pair<V, W>>(sc_, joined);
  }

  PairRdd<K, V>& Persist(StorageLevel level = StorageLevel::kMemoryOnly) {
    node_->storage_level = level;
    return *this;
  }
  void Unpersist() {
    node_->storage_level = StorageLevel::kNone;
    sc_->Unpersist(node_->id());
  }

  Result<std::int64_t> Count() const { return AsRdd().Count(); }
  Result<std::vector<P>> Collect() const { return AsRdd().Collect(); }
  /// Like inserting every collected pair in turn: a key's last value wins.
  Result<std::map<K, V>> CollectAsMap() const {
    auto pairs = Collect();
    if (!pairs.ok()) return pairs.status();
    std::vector<P>& items = pairs.value();
    const auto key_less = [](const P& a, const P& b) {
      return a.first < b.first;
    };
    // Stable, so equal keys stay in collect order and the last is the one
    // kept; the map is then built in key order, each node at its end.
    std::stable_sort(items.begin(), items.end(), key_less);
    std::map<K, V> out;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i + 1 < items.size() && !key_less(items[i], items[i + 1])) continue;
      out.emplace_hint(out.end(), std::move(items[i].first),
                       std::move(items[i].second));
    }
    return out;
  }

 private:
  int ResolveParts(int requested) const {
    if (requested > 0) return requested;
    if (node_->partitioner.has_value()) return *node_->partitioner;
    return node_->num_partitions();
  }
  SparkContext* sc_;
  std::shared_ptr<TypedRdd<P>> node_;
};

// -- deferred handle methods -------------------------------------------------

template <typename T>
template <typename K>
PairRdd<K, T> Rdd<T>::KeyBy(std::function<K(const T&)> key_fn) const {
  auto mapped = std::make_shared<MapNode<T, std::pair<K, T>>>(
      sc_->NewRddId(), node_,
      [key_fn](const T& item) { return std::pair<K, T>(key_fn(item), item); },
      false);
  return PairRdd<K, T>(sc_, mapped);
}

template <typename T>
template <typename K, typename V>
PairRdd<K, V> Rdd<T>::AsPairs() const {
  static_assert(std::is_same_v<T, std::pair<K, V>>,
                "AsPairs requires T == std::pair<K, V>");
  return PairRdd<K, V>(sc_, node_);
}

template <typename T>
Rdd<T> SparkContext::Parallelize(std::vector<T> data, int slices) {
  if (slices <= 0) slices = default_parallelism();
  auto node = std::make_shared<ParallelizeNode<T>>(NewRddId(),
                                                   std::move(data), slices);
  return Rdd<T>(this, node);
}

// ===========================================================================
// Deployment
// ===========================================================================

struct AppResult {
  SimTime elapsed = 0;  // spark-submit to driver exit (incl. startup)
  AppStats stats;
};

class MiniSpark {
 public:
  using DriverBody = std::function<void(SparkContext&)>;

  /// `dfs` may be null for apps that only use local files / parallelize.
  MiniSpark(cluster::Cluster& cluster, dfs::MiniDfs* dfs,
            SparkOptions options = {});

  /// Spawn driver + executors; the caller runs the engine.
  void Submit(DriverBody body, std::function<void(Result<AppResult>)> on_done);

  /// Submit + engine.Run(); the common standalone path.
  Result<AppResult> RunApp(DriverBody body);

  /// Elastic growth: spawn one more executor on `node` (requires
  /// SparkOptions::max_executors headroom). Returns the new executor id.
  /// The driver picks it up on its next task round.
  int AddExecutor(int node);
  /// Elastic shrink: kill executor `executor_id`. Its shuffle/cache state
  /// is dropped by the driver's sweep and lineage recomputes what's needed.
  void RemoveExecutor(int executor_id);

  [[nodiscard]] AppState& app() { return *app_; }

 private:
  void DriverMain(sim::Context& ctx, DriverBody body,
                  std::function<void(Result<AppResult>)> on_done);
  void ExecutorMain(sim::Context& ctx, int executor_id);

  cluster::Cluster& cluster_;
  std::shared_ptr<AppState> app_;
};

}  // namespace pstk::spark
