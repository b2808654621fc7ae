// MiniSpark's RDD layer: the lazy, lineage-tracked dataset abstraction
// (§II-E of the paper). Transformations build a DAG of plan nodes; nothing
// executes until an action runs a job through the driver's DAG scheduler.
//
// Structural fidelity:
//  * narrow vs shuffle dependencies; stages split at shuffles;
//  * hash-partitioner awareness: joining two datasets with the same
//    partitioner is narrow (no shuffle) — the heart of the tuned
//    BigDataBench PageRank (paper Fig 5/6);
//  * persist()/StorageLevel with lineage-based recovery: lost partitions
//    are recomputed from their dependencies, not replicated;
//  * map-side combine for reduceByKey.
//
// All element types must be serde-codable (shuffle, collect, and cache
// accounting serialize real bytes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buf/bytes.h"
#include "common/check.h"
#include "serde/serde.h"
#include "spark/runtime.h"
#include "spark/task_rt.h"

namespace pstk::spark {

class SparkContext;

// ===========================================================================
// Plan-node base classes
// ===========================================================================

class ShuffleDepBase;

class RddBase {
 public:
  RddBase(int id, int num_partitions)
      : id_(id), num_partitions_(num_partitions) {
    PSTK_CHECK_MSG(num_partitions >= 1, "RDD needs at least one partition");
  }
  virtual ~RddBase() = default;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int num_partitions() const { return num_partitions_; }

  StorageLevel storage_level = StorageLevel::kNone;
  /// Hash-partitioner marker: set means "hash(key) % value == partition".
  std::optional<int> partitioner;
  std::vector<std::shared_ptr<RddBase>> narrow_parents;
  std::vector<std::shared_ptr<ShuffleDepBase>> shuffle_deps;

  /// Compute partition `p` (no caching — TaskRt::Evaluate handles that).
  virtual PartitionHandle Compute(TaskRt& rt, int p) = 0;
  /// Serialized size of a materialized partition (cache accounting).
  [[nodiscard]] virtual Bytes SizeOf(const PartitionHandle& data) const = 0;
  /// Input-source locality (node ids) for partition `p`.
  [[nodiscard]] virtual std::vector<int> PreferredNodes(int p) const {
    (void)p;
    return {};
  }
  /// Extra bytes shipped inside the task closure (parallelize data).
  [[nodiscard]] virtual Bytes ExtraTaskShipBytes(int p) const {
    (void)p;
    return 0;
  }

 private:
  int id_;
  int num_partitions_;
};

/// A shuffle dependency: how a child reshuffles `parent`. The map-side
/// work (bucketing + optional combine) is typed and lives in the impl.
class ShuffleDepBase {
 public:
  ShuffleDepBase(int shuffle_id, std::shared_ptr<RddBase> parent,
                 int num_reduces)
      : shuffle_id_(shuffle_id),
        parent_(std::move(parent)),
        num_reduces_(num_reduces) {}
  virtual ~ShuffleDepBase() = default;

  [[nodiscard]] int shuffle_id() const { return shuffle_id_; }
  [[nodiscard]] RddBase& parent() { return *parent_; }
  [[nodiscard]] const std::shared_ptr<RddBase>& parent_ptr() const {
    return parent_;
  }
  [[nodiscard]] int num_reduces() const { return num_reduces_; }

  /// Map task: evaluate parent partition `p` and return one serialized
  /// bucket per reduce partition.
  virtual std::vector<buf::Bytes> RunMapTask(TaskRt& rt, int p) = 0;

 private:
  int shuffle_id_;
  std::shared_ptr<RddBase> parent_;
  int num_reduces_;
};

template <typename T>
class TypedRdd : public RddBase {
 public:
  using RddBase::RddBase;
  using Element = T;

  virtual std::shared_ptr<std::vector<T>> ComputeTyped(TaskRt& rt, int p) = 0;

  PartitionHandle Compute(TaskRt& rt, int p) final {
    return ComputeTyped(rt, p);
  }
  [[nodiscard]] Bytes SizeOf(const PartitionHandle& data) const final {
    const auto& vec = *std::static_pointer_cast<std::vector<T>>(data);
    return serde::EncodedSize(vec);
  }
};

// ===========================================================================
// Concrete nodes
// ===========================================================================

template <typename T>
class ParallelizeNode final : public TypedRdd<T> {
 public:
  ParallelizeNode(int id, std::vector<T> data, int slices)
      : TypedRdd<T>(id, slices), data_(std::move(data)) {
    ship_bytes_.assign(static_cast<std::size_t>(slices), 0);
  }

  std::shared_ptr<std::vector<T>> ComputeTyped(TaskRt& rt, int p) override {
    auto [lo, hi] = SliceRange(p);
    auto out = std::make_shared<std::vector<T>>(data_.begin() + lo,
                                                data_.begin() + hi);
    rt.ChargeRecords(out->size(), 0);
    return out;
  }

  [[nodiscard]] Bytes ExtraTaskShipBytes(int p) const override {
    // parallelize() ships the slice data inside the task binary.
    auto& cached = ship_bytes_[static_cast<std::size_t>(p)];
    if (cached == 0) {
      auto [lo, hi] = const_cast<ParallelizeNode*>(this)->SliceRange(p);
      std::vector<T> slice(data_.begin() + lo, data_.begin() + hi);
      cached = serde::EncodedSize(slice);
    }
    return cached;
  }

 private:
  std::pair<std::ptrdiff_t, std::ptrdiff_t> SliceRange(int p) {
    const auto n = static_cast<std::int64_t>(data_.size());
    const auto k = static_cast<std::int64_t>(this->num_partitions());
    const std::int64_t lo = n * p / k;
    const std::int64_t hi = n * (p + 1) / k;
    return {static_cast<std::ptrdiff_t>(lo), static_cast<std::ptrdiff_t>(hi)};
  }
  std::vector<T> data_;
  mutable std::vector<Bytes> ship_bytes_;
};

class TextFileDfsNode final : public TypedRdd<std::string> {
 public:
  TextFileDfsNode(int id, std::string path,
                  std::vector<std::vector<int>> block_locations)
      : TypedRdd<std::string>(id,
                              static_cast<int>(block_locations.size())),
        path_(std::move(path)),
        locations_(std::move(block_locations)) {}

  std::shared_ptr<std::vector<std::string>> ComputeTyped(TaskRt& rt,
                                                         int p) override {
    auto block = rt.ReadDfsBlock(path_, static_cast<std::size_t>(p));
    PSTK_CHECK_MSG(block.ok(), "textFile read failed: "
                                   << block.status().ToString());
    auto lines = std::make_shared<std::vector<std::string>>();
    SplitLines(block.value().view(), *lines);
    rt.ChargeRecords(lines->size(), block.value().size());
    return lines;
  }

  [[nodiscard]] std::vector<int> PreferredNodes(int p) const override {
    return locations_[static_cast<std::size_t>(p)];
  }

  static void SplitLines(std::string_view text,
                         std::vector<std::string>& out) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      auto nl = text.find('\n', pos);
      if (nl == std::string_view::npos) nl = text.size();
      if (nl > pos) out.emplace_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
  }

 private:
  std::string path_;
  std::vector<std::vector<int>> locations_;
};

/// textFile() over a file replicated on every node's local scratch
/// (Table II's "Spark on local filesystem" configuration).
class TextFileLocalNode final : public TypedRdd<std::string> {
 public:
  TextFileLocalNode(int id, std::string path, Bytes actual_size,
                    Bytes actual_split, int num_splits)
      : TypedRdd<std::string>(id, num_splits),
        path_(std::move(path)),
        actual_size_(actual_size),
        actual_split_(actual_split) {}

  std::shared_ptr<std::vector<std::string>> ComputeTyped(TaskRt& rt,
                                                         int p) override {
    const Bytes lo = actual_split_ * static_cast<Bytes>(p);
    const Bytes hi =
        std::min(actual_size_, actual_split_ * static_cast<Bytes>(p + 1));
    // Hadoop LineRecordReader semantics, boundary-exact: this split owns
    // exactly the lines starting inside [lo, hi).
    auto data = rt.ReadLocalLines(path_, lo, hi - lo);
    PSTK_CHECK_MSG(data.ok(),
                   "local textFile read failed: " << data.status().ToString());
    auto lines = std::make_shared<std::vector<std::string>>();
    TextFileDfsNode::SplitLines(data.value().view(), *lines);
    rt.ChargeRecords(lines->size(), data.value().size());
    return lines;
  }

 private:
  std::string path_;
  Bytes actual_size_;
  Bytes actual_split_;
};

template <typename T, typename U>
class MapNode final : public TypedRdd<U> {
 public:
  MapNode(int id, std::shared_ptr<TypedRdd<T>> parent,
          std::function<U(const T&)> fn, bool preserves_partitioning)
      : TypedRdd<U>(id, parent->num_partitions()),
        parent_(parent),
        fn_(std::move(fn)) {
    this->narrow_parents.push_back(parent);
    if (preserves_partitioning) this->partitioner = parent->partitioner;
  }

  std::shared_ptr<std::vector<U>> ComputeTyped(TaskRt& rt, int p) override {
    auto in = rt.EvaluateTyped<T>(*parent_, p);
    auto out = std::make_shared<std::vector<U>>();
    out->reserve(in->size());
    for (const T& item : *in) out->push_back(fn_(item));
    rt.ChargeRecords(in->size(), 0);
    return out;
  }

 private:
  std::shared_ptr<TypedRdd<T>> parent_;
  std::function<U(const T&)> fn_;
};

template <typename T, typename U>
class FlatMapNode final : public TypedRdd<U> {
 public:
  FlatMapNode(int id, std::shared_ptr<TypedRdd<T>> parent,
              std::function<std::vector<U>(const T&)> fn)
      : TypedRdd<U>(id, parent->num_partitions()),
        parent_(parent),
        fn_(std::move(fn)) {
    this->narrow_parents.push_back(parent);
  }

  std::shared_ptr<std::vector<U>> ComputeTyped(TaskRt& rt, int p) override {
    auto in = rt.EvaluateTyped<T>(*parent_, p);
    auto out = std::make_shared<std::vector<U>>();
    for (const T& item : *in) {
      for (U& produced : fn_(item)) out->push_back(std::move(produced));
    }
    rt.ChargeRecords(in->size() + out->size(), 0);
    return out;
  }

 private:
  std::shared_ptr<TypedRdd<T>> parent_;
  std::function<std::vector<U>(const T&)> fn_;
};

template <typename T>
class FilterNode final : public TypedRdd<T> {
 public:
  FilterNode(int id, std::shared_ptr<TypedRdd<T>> parent,
             std::function<bool(const T&)> pred)
      : TypedRdd<T>(id, parent->num_partitions()),
        parent_(parent),
        pred_(std::move(pred)) {
    this->narrow_parents.push_back(parent);
    this->partitioner = parent->partitioner;  // filter keeps partitioning
  }

  std::shared_ptr<std::vector<T>> ComputeTyped(TaskRt& rt, int p) override {
    auto in = rt.EvaluateTyped<T>(*parent_, p);
    auto out = std::make_shared<std::vector<T>>();
    for (const T& item : *in) {
      if (pred_(item)) out->push_back(item);
    }
    rt.ChargeRecords(in->size(), 0);
    return out;
  }

 private:
  std::shared_ptr<TypedRdd<T>> parent_;
  std::function<bool(const T&)> pred_;
};

/// union(): all partitions of both parents, in order (narrow, no shuffle).
template <typename T>
class UnionNode final : public TypedRdd<T> {
 public:
  UnionNode(int id, std::shared_ptr<TypedRdd<T>> left,
            std::shared_ptr<TypedRdd<T>> right)
      : TypedRdd<T>(id, left->num_partitions() + right->num_partitions()),
        left_(left),
        right_(right) {
    this->narrow_parents.push_back(left);
    this->narrow_parents.push_back(right);
  }

  std::shared_ptr<std::vector<T>> ComputeTyped(TaskRt& rt, int p) override {
    if (p < left_->num_partitions()) {
      return rt.EvaluateTyped<T>(*left_, p);
    }
    return rt.EvaluateTyped<T>(*right_, p - left_->num_partitions());
  }

  [[nodiscard]] std::vector<int> PreferredNodes(int p) const override {
    if (p < left_->num_partitions()) return left_->PreferredNodes(p);
    return right_->PreferredNodes(p - left_->num_partitions());
  }

 private:
  std::shared_ptr<TypedRdd<T>> left_;
  std::shared_ptr<TypedRdd<T>> right_;
};

/// Map-side of a shuffle over pair<K, V>, producing combined values C.
/// With `aggregate` false, C must equal V and values pass through raw.
template <typename K, typename V, typename C>
class ShuffleDepImpl final : public ShuffleDepBase {
 public:
  using Parent = TypedRdd<std::pair<K, V>>;
  ShuffleDepImpl(int shuffle_id, std::shared_ptr<Parent> parent,
                 int num_reduces, bool aggregate,
                 std::function<C(const V&)> create,
                 std::function<C(C, const V&)> merge_value)
      : ShuffleDepBase(shuffle_id, parent, num_reduces),
        typed_parent_(std::move(parent)),
        aggregate_(aggregate),
        create_(std::move(create)),
        merge_value_(std::move(merge_value)) {}

  std::vector<buf::Bytes> RunMapTask(TaskRt& rt, int p) override {
    auto in = rt.EvaluateTyped<std::pair<K, V>>(*typed_parent_, p);
    const int R = num_reduces();
    std::vector<buf::Bytes> buckets;
    buckets.reserve(static_cast<std::size_t>(R));
    Bytes total = 0;
    if (aggregate_) {
      // Map-side combine: aggregate into a single hash map first (one
      // insert per record), then partition the much smaller combined set.
      // Hashing each key once beats per-bucket maps: the old layout paid a
      // partition hash plus a map hash per input record.
      std::unordered_map<K, C> combined;
      combined.reserve(in->size());
      for (const auto& [key, value] : *in) {
        auto it = combined.find(key);
        if (it == combined.end()) {
          combined.emplace(key, create_(value));
        } else {
          it->second = merge_value_(std::move(it->second), value);
        }
      }
      std::vector<std::vector<std::pair<K, C>>> lists(
          static_cast<std::size_t>(R));
      for (auto& [key, combiner] : combined) {
        lists[BucketOf(key, R)].emplace_back(key, std::move(combiner));
      }
      for (auto& list : lists) {
        buckets.push_back(serde::EncodeToBytes(list));
        total += buckets.back().size();
      }
      rt.ChargeSerde(in->size(), total);
    } else {
      std::vector<std::vector<std::pair<K, C>>> lists(
          static_cast<std::size_t>(R));
      for (const auto& [key, value] : *in) {
        lists[BucketOf(key, R)].emplace_back(key, create_(value));
      }
      for (auto& list : lists) {
        buckets.push_back(serde::EncodeToBytes(list));
        total += buckets.back().size();
      }
      rt.ChargeSerde(in->size(), total);
    }
    return buckets;
  }

  static std::size_t BucketOf(const K& key, int R) {
    return std::hash<K>{}(key) % static_cast<std::size_t>(R);
  }

 private:
  std::shared_ptr<Parent> typed_parent_;
  bool aggregate_;
  std::function<C(const V&)> create_;
  std::function<C(C, const V&)> merge_value_;
};

/// Reduce-side of a shuffle: fetch buckets and merge into pair<K, C>.
template <typename K, typename C>
class ShuffledNode final : public TypedRdd<std::pair<K, C>> {
 public:
  ShuffledNode(int id, std::shared_ptr<ShuffleDepBase> dep, bool aggregate,
               std::function<C(C, C)> merge_combiners)
      : TypedRdd<std::pair<K, C>>(id, dep->num_reduces()),
        aggregate_(aggregate),
        merge_combiners_(std::move(merge_combiners)) {
    this->shuffle_deps.push_back(std::move(dep));
    this->partitioner = this->num_partitions();
  }

  std::shared_ptr<std::vector<std::pair<K, C>>> ComputeTyped(
      TaskRt& rt, int p) override {
    const auto buffers =
        rt.FetchShuffle(this->shuffle_deps[0]->shuffle_id(), p);
    auto out = std::make_shared<std::vector<std::pair<K, C>>>();
    Bytes fetched_bytes = 0;
    for (const buf::Bytes& buffer : buffers) fetched_bytes += buffer.size();
    if (aggregate_) {
      std::unordered_map<K, C> merged;
      std::uint64_t records = 0;
      for (const buf::Bytes& buffer : buffers) {
        auto kvs =
            serde::DecodeFromBytes<std::vector<std::pair<K, C>>>(buffer);
        PSTK_CHECK_MSG(kvs.ok(), "corrupt shuffle bucket");
        records += kvs.value().size();
        for (auto& [key, combiner] : kvs.value()) {
          auto it = merged.find(key);
          if (it == merged.end()) {
            merged.emplace(std::move(key), std::move(combiner));
          } else {
            it->second =
                merge_combiners_(std::move(it->second), std::move(combiner));
          }
        }
      }
      out->assign(merged.begin(), merged.end());
      rt.ChargeSerde(records, fetched_bytes);
    } else {
      std::uint64_t records = 0;
      for (const buf::Bytes& buffer : buffers) {
        auto kvs =
            serde::DecodeFromBytes<std::vector<std::pair<K, C>>>(buffer);
        PSTK_CHECK_MSG(kvs.ok(), "corrupt shuffle bucket");
        records += kvs.value().size();
        for (auto& kv : kvs.value()) out->push_back(std::move(kv));
      }
      rt.ChargeSerde(records, fetched_bytes);
    }
    return out;
  }

 private:
  bool aggregate_;
  std::function<C(C, C)> merge_combiners_;
};

/// Narrow (co-partitioned) inner join: both parents share the same hash
/// partitioner, so partition p joins with partition p — no shuffle.
template <typename K, typename V, typename W>
class NarrowJoinNode final : public TypedRdd<std::pair<K, std::pair<V, W>>> {
 public:
  NarrowJoinNode(int id, std::shared_ptr<TypedRdd<std::pair<K, V>>> left,
                 std::shared_ptr<TypedRdd<std::pair<K, W>>> right)
      : TypedRdd<std::pair<K, std::pair<V, W>>>(id, left->num_partitions()),
        left_(left),
        right_(right) {
    PSTK_CHECK(left->num_partitions() == right->num_partitions());
    this->narrow_parents.push_back(left);
    this->narrow_parents.push_back(right);
    this->partitioner = left->partitioner;
  }

  std::shared_ptr<std::vector<std::pair<K, std::pair<V, W>>>> ComputeTyped(
      TaskRt& rt, int p) override {
    auto lhs = rt.EvaluateTyped<std::pair<K, V>>(*left_, p);
    auto rhs = rt.EvaluateTyped<std::pair<K, W>>(*right_, p);
    std::unordered_map<K, std::vector<W>> table;
    for (const auto& [key, w] : *rhs) table[key].push_back(w);
    auto out =
        std::make_shared<std::vector<std::pair<K, std::pair<V, W>>>>();
    for (const auto& [key, v] : *lhs) {
      auto it = table.find(key);
      if (it == table.end()) continue;
      for (const W& w : it->second) out->emplace_back(key, std::pair{v, w});
    }
    rt.ChargeRecords(lhs->size() + rhs->size() + out->size(), 0);
    return out;
  }

 private:
  std::shared_ptr<TypedRdd<std::pair<K, V>>> left_;
  std::shared_ptr<TypedRdd<std::pair<K, W>>> right_;
};

/// Shuffled inner join: both sides reshuffled by key hash.
template <typename K, typename V, typename W>
class ShuffledJoinNode final
    : public TypedRdd<std::pair<K, std::pair<V, W>>> {
 public:
  ShuffledJoinNode(int id, std::shared_ptr<ShuffleDepBase> left_dep,
                   std::shared_ptr<ShuffleDepBase> right_dep)
      : TypedRdd<std::pair<K, std::pair<V, W>>>(id, left_dep->num_reduces()),
        left_id_(left_dep->shuffle_id()),
        right_id_(right_dep->shuffle_id()) {
    this->shuffle_deps.push_back(std::move(left_dep));
    this->shuffle_deps.push_back(std::move(right_dep));
    this->partitioner = this->num_partitions();
  }

  std::shared_ptr<std::vector<std::pair<K, std::pair<V, W>>>> ComputeTyped(
      TaskRt& rt, int p) override {
    std::vector<std::pair<K, V>> lhs;
    std::vector<std::pair<K, W>> rhs;
    std::uint64_t records = 0;
    for (const buf::Bytes& buffer : rt.FetchShuffle(left_id_, p)) {
      auto kvs = serde::DecodeFromBytes<std::vector<std::pair<K, V>>>(buffer);
      PSTK_CHECK_MSG(kvs.ok(), "corrupt join bucket");
      for (auto& kv : kvs.value()) lhs.push_back(std::move(kv));
    }
    for (const buf::Bytes& buffer : rt.FetchShuffle(right_id_, p)) {
      auto kvs = serde::DecodeFromBytes<std::vector<std::pair<K, W>>>(buffer);
      PSTK_CHECK_MSG(kvs.ok(), "corrupt join bucket");
      for (auto& kv : kvs.value()) rhs.push_back(std::move(kv));
    }
    records += lhs.size() + rhs.size();
    std::unordered_map<K, std::vector<W>> table;
    for (auto& [key, w] : rhs) table[key].push_back(std::move(w));
    auto out =
        std::make_shared<std::vector<std::pair<K, std::pair<V, W>>>>();
    for (const auto& [key, v] : lhs) {
      auto it = table.find(key);
      if (it == table.end()) continue;
      for (const W& w : it->second) out->emplace_back(key, std::pair{v, w});
    }
    rt.ChargeRecords(records + out->size(), 0);
    return out;
  }

 private:
  int left_id_;
  int right_id_;
};

}  // namespace pstk::spark
