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
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
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

  virtual Partition<T> ComputeTyped(TaskRt& rt, int p) = 0;

  PartitionHandle Compute(TaskRt& rt, int p) final {
    return ComputeTyped(rt, p);
  }
  [[nodiscard]] Bytes SizeOf(const PartitionHandle& data) const final {
    const auto& vec = *std::static_pointer_cast<const std::vector<T>>(data);
    return serde::EncodedSize(vec);
  }
};

// ===========================================================================
// Per-task keyed tables
// ===========================================================================

/// One task's hash table: entries in first-seen order in one vector, and an
/// open-addressing index of uint32 entry positions (linear probing, at
/// most half full). The index is sized once from an upper bound on the
/// distinct keys, the task's input count, so it never rehashes; the entry
/// vector grows as keys arrive.
template <typename K, typename V>
class FlatTable {
 public:
  explicit FlatTable(std::size_t max_keys) {
    PSTK_CHECK(max_keys < kEmpty / 2);
    int bits = 1;
    while ((std::size_t{1} << bits) < 2 * max_keys) ++bits;
    shift_ = 64 - bits;
    index_.assign(std::size_t{1} << bits, kEmpty);
  }

  /// The value stored under `key`, first inserted as `make()` if absent,
  /// and whether it was inserted. `key` is only moved from on insertion.
  template <typename Key, typename Make>
  std::pair<V&, bool> TryEmplace(Key&& key, Make&& make) {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = Home(key);
    for (; index_[slot] != kEmpty; slot = (slot + 1) & mask) {
      std::pair<K, V>& entry = entries_[index_[slot]];
      if (entry.first == key) return {entry.second, false};
    }
    PSTK_CHECK(2 * (entries_.size() + 1) <= index_.size());
    entries_.emplace_back(std::forward<Key>(key), make());
    index_[slot] = static_cast<std::uint32_t>(entries_.size() - 1);
    return {entries_.back().second, true};
  }

  /// The value stored under `key`, or null.
  [[nodiscard]] const V* Find(const K& key) const {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t slot = Home(key); index_[slot] != kEmpty;
         slot = (slot + 1) & mask) {
      const std::pair<K, V>& entry = entries_[index_[slot]];
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  /// Every (key, value) in first-seen order.
  [[nodiscard]] std::vector<std::pair<K, V>>& entries() { return entries_; }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  // Fibonacci hashing: std::hash of an integer is the integer itself, and
  // one reduce partition's keys share their residue modulo the partition
  // count, so the low bits alone would pile them into a few runs.
  [[nodiscard]] std::size_t Home(const K& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(std::hash<K>{}(key)) *
         0x9E3779B97F4A7C15ULL) >>
        shift_);
  }

  std::vector<std::pair<K, V>> entries_;
  std::vector<std::uint32_t> index_;
  int shift_ = 63;
};

/// Inner join of one partition's two sides: for each left row in order,
/// one output row per right row with its key, in arrival order. The right
/// side is indexed by its first and last row per key plus a next link per
/// row, with no per-key vector. Given the left side as an rvalue, each left
/// row moves into its last output row instead of being copied there.
template <typename K, typename V, typename W, typename Left>
std::vector<std::pair<K, std::pair<V, W>>> HashJoin(
    Left&& lhs, const std::vector<std::pair<K, W>>& rhs) {
  static_assert(
      std::is_same_v<std::decay_t<Left>, std::vector<std::pair<K, V>>>);
  constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();
  struct Rows {
    std::uint32_t first;
    std::uint32_t last;
    std::size_t count;
  };
  PSTK_CHECK(rhs.size() < kEnd);
  FlatTable<K, Rows> index(rhs.size());
  std::vector<std::uint32_t> next(rhs.size(), kEnd);
  for (std::uint32_t j = 0; j < rhs.size(); ++j) {
    auto [rows, inserted] =
        index.TryEmplace(rhs[j].first, [j] { return Rows{j, j, 0}; });
    if (!inserted) {
      next[rows.last] = j;
      rows.last = j;
    }
    ++rows.count;
  }
  std::vector<const Rows*> matches(lhs.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    matches[i] = index.Find(lhs[i].first);
    if (matches[i] != nullptr) total += matches[i]->count;
  }
  std::vector<std::pair<K, std::pair<V, W>>> out;
  out.reserve(total);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (matches[i] == nullptr) continue;
    std::uint32_t j = matches[i]->first;
    for (; j != matches[i]->last; j = next[j]) {
      out.emplace_back(lhs[i].first, std::pair{lhs[i].second, rhs[j].second});
    }
    if constexpr (std::is_lvalue_reference_v<Left>) {
      out.emplace_back(lhs[i].first, std::pair{lhs[i].second, rhs[j].second});
    } else {
      out.emplace_back(std::move(lhs[i].first),
                       std::pair{std::move(lhs[i].second), rhs[j].second});
    }
  }
  return out;
}

/// Every record of a reduce partition's fetched buckets, in bucket order,
/// decoded straight into one vector sized from the buckets' counts.
template <typename Record>
std::vector<Record> DecodeBuckets(const std::vector<buf::Bytes>& buffers) {
  std::size_t total = 0;
  for (const buf::Bytes& buffer : buffers) {
    serde::Reader r(buffer);
    auto count = r.ReadVarint();
    // Every record takes at least one byte.
    PSTK_CHECK_MSG(count.ok() && count.value() <= r.remaining(),
                   "corrupt shuffle bucket");
    total += count.value();
  }
  std::vector<Record> out;
  out.reserve(total);
  for (const buf::Bytes& buffer : buffers) {
    serde::Reader r(buffer);
    for (std::uint64_t left = r.ReadVarint().value(); left > 0; --left) {
      PSTK_CHECK_MSG(serde::Decode(r, out.emplace_back()).ok(),
                     "corrupt shuffle bucket");
    }
    PSTK_CHECK_MSG(r.AtEnd(), "corrupt shuffle bucket");
  }
  return out;
}

// ===========================================================================
// Concrete nodes
// ===========================================================================

template <typename T>
class ParallelizeNode final : public TypedRdd<T> {
 public:
  /// Cuts `data` into `slices` contiguous slices once; every evaluation of
  /// a slice hands out the same read-only vector.
  ParallelizeNode(int id, std::vector<T> data, int slices)
      : TypedRdd<T>(id, slices) {
    const auto n = static_cast<std::int64_t>(data.size());
    for (std::int64_t p = 0; p < slices; ++p) {
      const auto lo = static_cast<std::ptrdiff_t>(n * p / slices);
      const auto hi = static_cast<std::ptrdiff_t>(n * (p + 1) / slices);
      auto slice = std::make_shared<const std::vector<T>>(
          std::make_move_iterator(data.begin() + lo),
          std::make_move_iterator(data.begin() + hi));
      ship_bytes_.push_back(serde::EncodedSize(*slice));
      slices_.push_back(std::move(slice));
    }
  }

  Partition<T> ComputeTyped(TaskRt& rt, int p) override {
    const Partition<T>& slice = slices_[static_cast<std::size_t>(p)];
    rt.ChargeRecords(slice->size(), 0);
    return slice;
  }

  [[nodiscard]] Bytes ExtraTaskShipBytes(int p) const override {
    // parallelize() ships the slice data inside the task binary.
    return ship_bytes_[static_cast<std::size_t>(p)];
  }

 private:
  std::vector<Partition<T>> slices_;
  std::vector<Bytes> ship_bytes_;
};

class TextFileDfsNode final : public TypedRdd<std::string> {
 public:
  TextFileDfsNode(int id, std::string path,
                  std::vector<std::vector<int>> block_locations)
      : TypedRdd<std::string>(id,
                              static_cast<int>(block_locations.size())),
        path_(std::move(path)),
        locations_(std::move(block_locations)) {}

  Partition<std::string> ComputeTyped(TaskRt& rt, int p) override {
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

  Partition<std::string> ComputeTyped(TaskRt& rt, int p) override {
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

  Partition<U> ComputeTyped(TaskRt& rt, int p) override {
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

  Partition<U> ComputeTyped(TaskRt& rt, int p) override {
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

  Partition<T> ComputeTyped(TaskRt& rt, int p) override {
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

  Partition<T> ComputeTyped(TaskRt& rt, int p) override {
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

/// Map-side of a shuffle over pair<K, V>: either combines values into C
/// per key first (aggregating), or passes the records through raw.
template <typename K, typename V, typename C>
class ShuffleDepImpl final : public ShuffleDepBase {
 public:
  using Parent = TypedRdd<std::pair<K, V>>;
  /// Aggregating shuffle (map-side combine).
  ShuffleDepImpl(int shuffle_id, std::shared_ptr<Parent> parent,
                 int num_reduces, std::function<C(const V&)> create,
                 std::function<C(C, const V&)> merge_value)
      : ShuffleDepBase(shuffle_id, parent, num_reduces),
        typed_parent_(std::move(parent)),
        create_(std::move(create)),
        merge_value_(std::move(merge_value)) {}
  /// Raw pass-through shuffle.
  ShuffleDepImpl(int shuffle_id, std::shared_ptr<Parent> parent,
                 int num_reduces)
      : ShuffleDepBase(shuffle_id, parent, num_reduces),
        typed_parent_(std::move(parent)) {
    static_assert(std::is_same_v<V, C>, "a raw shuffle passes values as is");
  }

  std::vector<buf::Bytes> RunMapTask(TaskRt& rt, int p) override {
    auto in = rt.EvaluateTyped<std::pair<K, V>>(*typed_parent_, p);
    std::vector<buf::Bytes> buckets;
    if (create_ != nullptr) {
      // Map-side combine in input order, then bucket the combined set.
      FlatTable<K, C> combined(in->size());
      for (const std::pair<K, V>& record : *in) {
        auto [combiner, inserted] = combined.TryEmplace(
            record.first, [&] { return create_(record.second); });
        if (!inserted) {
          combiner = merge_value_(std::move(combiner), record.second);
        }
      }
      buckets = EncodeBuckets(combined.entries());
    } else {
      buckets = EncodeBuckets(*in);
    }
    Bytes total = 0;
    for (const buf::Bytes& bucket : buckets) total += bucket.size();
    rt.ChargeSerde(in->size(), total);
    return buckets;
  }

  static std::size_t BucketOf(const K& key, int R) {
    return std::hash<K>{}(key) % static_cast<std::size_t>(R);
  }

 private:
  // One bucket per reduce partition, each encoded straight into a writer
  // pre-sized to its exact size: the bytes equal EncodeToBytes of the
  // bucket's records in order, and the stored bucket carries no slack.
  template <typename Record>
  std::vector<buf::Bytes> EncodeBuckets(
      const std::vector<Record>& records) const {
    const auto reduces = static_cast<std::size_t>(num_reduces());
    std::vector<std::uint32_t> bucket_of(records.size());
    std::vector<std::size_t> counts(reduces, 0);
    std::vector<std::size_t> sizes(reduces, 0);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::size_t b = BucketOf(records[i].first, num_reduces());
      bucket_of[i] = static_cast<std::uint32_t>(b);
      ++counts[b];
      sizes[b] += serde::EncodedSize(records[i]);
    }
    std::vector<serde::Writer> writers(reduces);
    for (std::size_t b = 0; b < reduces; ++b) {
      writers[b].Reserve(serde::VarintLen(counts[b]) + sizes[b]);
      writers[b].WriteVarint(counts[b]);
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      serde::Encode(writers[bucket_of[i]], records[i]);
    }
    std::vector<buf::Bytes> buckets;
    buckets.reserve(reduces);
    for (serde::Writer& writer : writers) buckets.push_back(writer.TakeBytes());
    return buckets;
  }

  std::shared_ptr<Parent> typed_parent_;
  std::function<C(const V&)> create_;  // null for a raw shuffle
  std::function<C(C, const V&)> merge_value_;
};

/// Reduce-side of a shuffle: fetch buckets and merge into pair<K, C>. An
/// aggregating shuffle's partition holds its keys in first-seen order;
/// callers must not rely on that order.
template <typename K, typename C>
class ShuffledNode final : public TypedRdd<std::pair<K, C>> {
 public:
  /// `merge_combiners` is null for a raw shuffle.
  ShuffledNode(int id, std::shared_ptr<ShuffleDepBase> dep,
               std::function<C(C, C)> merge_combiners)
      : TypedRdd<std::pair<K, C>>(id, dep->num_reduces()),
        merge_combiners_(std::move(merge_combiners)) {
    this->shuffle_deps.push_back(std::move(dep));
    this->partitioner = this->num_partitions();
  }

  Partition<std::pair<K, C>> ComputeTyped(TaskRt& rt, int p) override {
    const auto buffers =
        rt.FetchShuffle(this->shuffle_deps[0]->shuffle_id(), p);
    Bytes fetched_bytes = 0;
    for (const buf::Bytes& buffer : buffers) fetched_bytes += buffer.size();
    auto records = DecodeBuckets<std::pair<K, C>>(buffers);
    rt.ChargeSerde(records.size(), fetched_bytes);
    if (merge_combiners_ == nullptr) {
      return std::make_shared<const std::vector<std::pair<K, C>>>(
          std::move(records));
    }
    FlatTable<K, C> merged(records.size());
    for (std::pair<K, C>& record : records) {
      auto [combiner, inserted] = merged.TryEmplace(
          std::move(record.first), [&] { return std::move(record.second); });
      if (!inserted) {
        combiner =
            merge_combiners_(std::move(combiner), std::move(record.second));
      }
    }
    return std::make_shared<const std::vector<std::pair<K, C>>>(
        std::move(merged.entries()));
  }

 private:
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

  Partition<std::pair<K, std::pair<V, W>>> ComputeTyped(TaskRt& rt,
                                                        int p) override {
    auto lhs = rt.EvaluateTyped<std::pair<K, V>>(*left_, p);
    auto rhs = rt.EvaluateTyped<std::pair<K, W>>(*right_, p);
    auto out = std::make_shared<const std::vector<std::pair<K, std::pair<V, W>>>>(
        HashJoin<K, V, W>(*lhs, *rhs));
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

  Partition<std::pair<K, std::pair<V, W>>> ComputeTyped(TaskRt& rt,
                                                        int p) override {
    auto lhs = DecodeBuckets<std::pair<K, V>>(rt.FetchShuffle(left_id_, p));
    const auto rhs =
        DecodeBuckets<std::pair<K, W>>(rt.FetchShuffle(right_id_, p));
    const std::size_t inputs = lhs.size() + rhs.size();
    // The decoded left side is this task's own, so its rows move into the
    // output.
    auto out = std::make_shared<const std::vector<std::pair<K, std::pair<V, W>>>>(
        HashJoin<K, V, W>(std::move(lhs), rhs));
    rt.ChargeRecords(inputs + out->size(), 0);
    return out;
  }

 private:
  int left_id_;
  int right_id_;
};

}  // namespace pstk::spark
