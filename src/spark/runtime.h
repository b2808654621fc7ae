// MiniSpark runtime state shared between the driver and executors:
// options, the shuffle output registry, and the block manager (RDD cache).
//
// Everything here is engine-global data manipulated under the simulator's
// cooperative scheduling (never concurrently), mirroring state that real
// Spark keeps in the driver's MapOutputTracker / BlockManagerMaster.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buf/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "net/fabric.h"
#include "serde/serde.h"

namespace pstk::spark {

enum class StorageLevel : std::uint8_t {
  kNone = 0,
  kMemoryOnly,
  kMemoryAndDisk,
  kDiskOnly,
};

struct SparkOptions {
  /// The paper runs 8 or 16 single-core executor processes per node.
  int executors_per_node = 8;
  /// Fraction of (node memory / executors per node) usable for RDD cache.
  double storage_memory_fraction = 0.6;
  /// Use the RDMA shuffle engine (Lu et al.) instead of Java sockets.
  /// Orchestration always stays on sockets, matching the plugin.
  bool rdma_shuffle = false;
  /// Re-spawn executor processes on nodes that came back after a failure
  /// (standalone-master worker re-registration). Off by default: the
  /// paper's runs keep a fixed executor set for the app's lifetime.
  bool reacquire_executors = false;

  /// Transport for driver<->executor control traffic (Java sockets).
  net::TransportParams control_transport = net::TransportParams::IPoIB();
  /// Transport for socket-mode shuffle traffic.
  net::TransportParams shuffle_transport = net::TransportParams::IPoIB();
  /// Transport for RDMA-mode shuffle traffic.
  net::TransportParams rdma_transport = net::TransportParams::RdmaFdr();

  /// spark-submit + executor JVM launch before the driver program runs.
  SimTime app_startup = Seconds(4.0);
  /// Driver-side cost per job (DAG build, stage submission).
  SimTime driver_per_job = Millis(60);
  /// Driver-side cost per task (serialize closure, bookkeeping).
  SimTime driver_per_task = Millis(0.15);
  /// Executor-side cost per task (deserialize, thread handoff).
  SimTime executor_per_task = Millis(1.0);
  /// JVM per-record transformation cost (boxed objects, iterator chains,
  /// hash-aggregation inserts — Scala/Java 7 era).
  SimTime cpu_per_record = Nanos(300);
  /// JVM per-byte processing cost. Calibrated from the paper's own Table
  /// II: 80 GB over 8 nodes x 8 executors in ~30 s is ~42 MB/s per core of
  /// JVM text pipeline (line objects, iterators, codecs) — Java 7 vintage.
  SimTime cpu_per_byte = 1.0 / 42e6;
  /// Size multiplier of JavaSerializer output over compact binary (boxed
  /// objects, class descriptors): shuffle bytes on the wire/disk and the
  /// serde CPU both scale by it.
  double java_serialization_factor = 4.0;
  /// Serialized size of a plain task closure message.
  Bytes task_message_bytes = 8 * kKiB;
  /// Split size for local (non-DFS) text files.
  Bytes local_split_bytes = 128 * kMiB;
  /// Driver poll period for executor liveness.
  SimTime heartbeat = Seconds(1.0);
  /// Default partition count for parallelize (0 = total executor count).
  int default_parallelism = 0;

  /// Explicit executor->node placement: one executor per entry, overriding
  /// the nodes x executors_per_node grid. pstk::sched's elastic placement
  /// starts apps on whatever cores it could allocate.
  std::vector<int> executor_nodes;
  /// Node hosting the driver process (client mode).
  int driver_node = 0;
  /// Executor-id headroom for executors added after construction
  /// (MiniSpark::AddExecutor); 0 = fixed executor set, no growth.
  int max_executors = 0;
  /// Prefix for spawned process names.
  std::string name = "spark";
};

/// Type-erased materialized partition (points to a std::vector<T>). It is
/// read-only: one computed partition may serve several readers (the cache,
/// every evaluation of a parallelize() slice).
using PartitionHandle = std::shared_ptr<const void>;
/// A materialized partition of element type T.
template <typename T>
using Partition = std::shared_ptr<const std::vector<T>>;

/// Thrown by a task when shuffle outputs it needs are gone (executor died).
/// The driver reruns the owning map stage.
struct FetchFailed {
  int shuffle_id;
};

/// Registry of shuffle map outputs (driver's MapOutputTracker + the data).
class ShuffleStore {
 public:
  struct MapOutput {
    int executor = -1;
    int node = -1;
    std::vector<buf::Bytes> buckets;  // one per reduce partition
    Bytes total_bytes = 0;
  };

  /// Declare a shuffle (idempotent).
  void Register(int shuffle_id, int num_maps, int num_reduces);

  void PutMapOutput(int shuffle_id, int map_partition, MapOutput output);
  /// nullptr if that map output is absent (never computed or lost).
  [[nodiscard]] const MapOutput* GetMapOutput(int shuffle_id,
                                              int map_partition) const;
  [[nodiscard]] bool Complete(int shuffle_id) const;
  [[nodiscard]] std::vector<int> MissingMaps(int shuffle_id) const;
  [[nodiscard]] int NumMaps(int shuffle_id) const;

  /// Lose every output produced by `executor` (its process died).
  void DropExecutor(int executor);

  [[nodiscard]] Bytes total_shuffle_bytes() const { return total_bytes_; }

 private:
  struct Shuffle {
    int num_maps = 0;
    int num_reduces = 0;
    std::map<int, MapOutput> outputs;
  };
  std::map<int, Shuffle> shuffles_;
  Bytes total_bytes_ = 0;
};

/// Per-executor RDD cache with memory accounting, LRU eviction, and
/// MEMORY_AND_DISK spill (the BlockManager).
class BlockStore {
 public:
  struct Block {
    PartitionHandle data;
    Bytes modeled_size = 0;
    StorageLevel level = StorageLevel::kNone;
    bool on_disk = false;  // spilled (or DISK_ONLY)
  };

  explicit BlockStore(Bytes memory_budget_per_executor)
      : budget_(memory_budget_per_executor) {}

  /// Cache a computed partition. Returns the block as stored (possibly
  /// spilled to disk) — or nullopt if it could not be cached at all.
  /// `spilled_bytes`/`evicted` report what eviction did, so the caller can
  /// charge disk time.
  std::optional<Block> Put(int executor, int rdd, int partition, Block block,
                           Bytes* spilled_to_disk_bytes);

  [[nodiscard]] const Block* Lookup(int executor, int rdd,
                                    int partition) const;
  /// Executors holding a cached copy of (rdd, partition), for locality.
  [[nodiscard]] std::vector<int> CachedExecutors(int rdd,
                                                 int partition) const;

  void DropExecutor(int executor);
  /// unpersist(): drop every cached copy of the RDD.
  void DropRdd(int rdd);

  [[nodiscard]] Bytes memory_used(int executor) const;
  [[nodiscard]] Bytes budget() const { return budget_; }

 private:
  struct Key {
    int executor;
    int rdd;
    int partition;
    auto operator<=>(const Key&) const = default;
  };
  void Touch(const Key& key);

  Bytes budget_;
  std::map<Key, Block> blocks_;
  std::map<int, Bytes> memory_used_;
  std::list<Key> lru_;  // front = least recently used
};

}  // namespace pstk::spark
