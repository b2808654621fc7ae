// Executor-side services available to RDD compute closures. The
// implementation (spark.cc) charges the simulated costs: JVM per-record
// CPU, shuffle transport (sockets or RDMA), DFS/local disk reads, and
// BlockManager caching with spill.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buf/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "serde/serde.h"
#include "sim/engine.h"
#include "spark/runtime.h"

namespace pstk::spark {

class RddBase;
struct AppState;

class TaskRt {
 public:
  TaskRt(AppState& app, sim::Context& ctx, int executor, int node)
      : app_(app), ctx_(ctx), executor_(executor), node_(node) {}

  [[nodiscard]] sim::Context& ctx() { return ctx_; }
  [[nodiscard]] int executor() const { return executor_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] double data_scale() const;

  /// JVM CPU charge for processing `records`/`bytes` of *actual* staged
  /// data (inflated to logical scale internally).
  void ChargeRecords(std::uint64_t records, Bytes bytes);

  /// Like ChargeRecords, but for shuffle serialization/deserialization:
  /// bytes are scaled by the Java-serialization bloat factor.
  void ChargeSerde(std::uint64_t records, Bytes actual_bytes);

  /// Materialize partition `p` of `rdd`: cache lookup, recursive compute,
  /// cache store (with disk spill charging) per the RDD's storage level.
  PartitionHandle Evaluate(RddBase& rdd, int p);

  template <typename T>
  Partition<T> EvaluateTyped(RddBase& rdd, int p) {
    return std::static_pointer_cast<const std::vector<T>>(Evaluate(rdd, p));
  }

  /// Fetch every map output bucket for `reduce_partition`, charging
  /// transport on the shuffle fabric (socket or RDMA per options). The
  /// returned buffers alias the map outputs in the shuffle store (refcount
  /// bumps, no payload copy) and stay valid even if the owning executor
  /// dies afterwards. Throws FetchFailed when outputs are missing (their
  /// executor died before the fetch completed).
  std::vector<buf::Bytes> FetchShuffle(int shuffle_id, int reduce_partition);

  /// Persist map-task output buckets: local shuffle-file write + registry.
  void CommitShuffleOutput(int shuffle_id, int map_partition,
                           std::vector<buf::Bytes> buckets);

  /// Read one block of a MiniDFS file (locality-aware, charged). The result
  /// aliases the stored block — no payload copy.
  Result<buf::Bytes> ReadDfsBlock(const std::string& path, std::size_t block);

  /// Read the whole lines *starting* inside [offset, offset+length) of a
  /// file on this node's local scratch (storage::LocalFs::ReadLines). The
  /// result aliases the stored file — no payload copy.
  Result<buf::Bytes> ReadLocalLines(const std::string& path, Bytes offset,
                                    Bytes length);

 private:
  AppState& app_;
  sim::Context& ctx_;
  int executor_;
  int node_;
};

}  // namespace pstk::spark
