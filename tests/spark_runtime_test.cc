// Unit tests for MiniSpark's engine-global state: the BlockManager
// (cache/eviction/spill) and the shuffle-output registry.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "spark/runtime.h"

namespace pstk::spark {
namespace {

PartitionHandle MakeData(int marker) {
  return std::make_shared<std::vector<int>>(1, marker);
}

int MarkerOf(const BlockStore::Block* block) {
  return (*std::static_pointer_cast<const std::vector<int>>(block->data))[0];
}

BlockStore::Block MakeBlock(int marker, Bytes size, StorageLevel level) {
  BlockStore::Block block;
  block.data = MakeData(marker);
  block.modeled_size = size;
  block.level = level;
  return block;
}

// --------------------------------------------------------------------------
// BlockStore
// --------------------------------------------------------------------------

TEST(BlockStoreTest, PutAndLookup) {
  BlockStore store(1000);
  Bytes spilled = 0;
  auto put = store.Put(0, 1, 2, MakeBlock(42, 100, StorageLevel::kMemoryOnly),
                       &spilled);
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(spilled, 0u);
  EXPECT_FALSE(put->on_disk);
  const auto* block = store.Lookup(0, 1, 2);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(MarkerOf(block), 42);
  EXPECT_EQ(store.memory_used(0), 100u);
  // Different executor / rdd / partition: miss.
  EXPECT_EQ(store.Lookup(1, 1, 2), nullptr);
  EXPECT_EQ(store.Lookup(0, 2, 2), nullptr);
  EXPECT_EQ(store.Lookup(0, 1, 3), nullptr);
}

TEST(BlockStoreTest, LruEvictionDropsMemoryOnly) {
  BlockStore store(250);
  Bytes spilled = 0;
  store.Put(0, 1, 0, MakeBlock(10, 100, StorageLevel::kMemoryOnly), &spilled);
  store.Put(0, 1, 1, MakeBlock(11, 100, StorageLevel::kMemoryOnly), &spilled);
  // Touch partition 0 so partition 1 is the LRU victim.
  ASSERT_NE(store.Lookup(0, 1, 0), nullptr);
  store.Put(0, 1, 2, MakeBlock(12, 100, StorageLevel::kMemoryOnly), &spilled);
  EXPECT_EQ(spilled, 0u);  // MEMORY_ONLY victims are dropped, not spilled
  EXPECT_NE(store.Lookup(0, 1, 0), nullptr);
  EXPECT_EQ(store.Lookup(0, 1, 1), nullptr);  // evicted
  EXPECT_NE(store.Lookup(0, 1, 2), nullptr);
  EXPECT_LE(store.memory_used(0), 250u);
}

TEST(BlockStoreTest, MemoryAndDiskVictimSpills) {
  BlockStore store(150);
  Bytes spilled = 0;
  store.Put(0, 1, 0, MakeBlock(10, 100, StorageLevel::kMemoryAndDisk),
            &spilled);
  store.Put(0, 1, 1, MakeBlock(11, 100, StorageLevel::kMemoryOnly), &spilled);
  EXPECT_EQ(spilled, 100u);  // partition 0 spilled to make room
  const auto* victim = store.Lookup(0, 1, 0);
  ASSERT_NE(victim, nullptr);
  EXPECT_TRUE(victim->on_disk);  // still readable, from disk
  EXPECT_EQ(store.memory_used(0), 100u);
}

TEST(BlockStoreTest, OversizedMemoryOnlyNotCached) {
  BlockStore store(50);
  Bytes spilled = 0;
  auto put = store.Put(0, 1, 0, MakeBlock(9, 100, StorageLevel::kMemoryOnly),
                       &spilled);
  EXPECT_FALSE(put.has_value());
  EXPECT_EQ(store.Lookup(0, 1, 0), nullptr);
}

TEST(BlockStoreTest, OversizedMemoryAndDiskGoesToDisk) {
  BlockStore store(50);
  Bytes spilled = 0;
  auto put = store.Put(
      0, 1, 0, MakeBlock(9, 100, StorageLevel::kMemoryAndDisk), &spilled);
  ASSERT_TRUE(put.has_value());
  EXPECT_TRUE(put->on_disk);
  EXPECT_EQ(spilled, 100u);
  EXPECT_EQ(store.memory_used(0), 0u);
}

TEST(BlockStoreTest, DiskOnlyNeverUsesMemory) {
  BlockStore store(1000);
  Bytes spilled = 0;
  auto put =
      store.Put(0, 1, 0, MakeBlock(9, 100, StorageLevel::kDiskOnly), &spilled);
  ASSERT_TRUE(put.has_value());
  EXPECT_TRUE(put->on_disk);
  EXPECT_EQ(store.memory_used(0), 0u);
}

TEST(BlockStoreTest, PerExecutorBudgetsAreIndependent) {
  BlockStore store(100);
  Bytes spilled = 0;
  store.Put(0, 1, 0, MakeBlock(1, 100, StorageLevel::kMemoryOnly), &spilled);
  store.Put(1, 1, 0, MakeBlock(2, 100, StorageLevel::kMemoryOnly), &spilled);
  EXPECT_NE(store.Lookup(0, 1, 0), nullptr);
  EXPECT_NE(store.Lookup(1, 1, 0), nullptr);
  EXPECT_EQ(store.memory_used(0), 100u);
  EXPECT_EQ(store.memory_used(1), 100u);
}

TEST(BlockStoreTest, CachedExecutorsAndDrops) {
  BlockStore store(1000);
  Bytes spilled = 0;
  store.Put(0, 7, 3, MakeBlock(1, 10, StorageLevel::kMemoryOnly), &spilled);
  store.Put(2, 7, 3, MakeBlock(2, 10, StorageLevel::kMemoryOnly), &spilled);
  store.Put(2, 8, 3, MakeBlock(3, 10, StorageLevel::kMemoryOnly), &spilled);
  auto holders = store.CachedExecutors(7, 3);
  EXPECT_EQ(holders.size(), 2u);

  store.DropExecutor(0);
  EXPECT_EQ(store.CachedExecutors(7, 3).size(), 1u);
  EXPECT_EQ(store.memory_used(0), 0u);

  store.DropRdd(7);
  EXPECT_TRUE(store.CachedExecutors(7, 3).empty());
  EXPECT_NE(store.Lookup(2, 8, 3), nullptr);  // other RDD untouched
}

TEST(BlockStoreTest, RecachingReplacesAccounting) {
  BlockStore store(1000);
  Bytes spilled = 0;
  store.Put(0, 1, 0, MakeBlock(1, 300, StorageLevel::kMemoryOnly), &spilled);
  store.Put(0, 1, 0, MakeBlock(2, 100, StorageLevel::kMemoryOnly), &spilled);
  EXPECT_EQ(store.memory_used(0), 100u);
  EXPECT_EQ(MarkerOf(store.Lookup(0, 1, 0)), 2);
}

// --------------------------------------------------------------------------
// ShuffleStore
// --------------------------------------------------------------------------

ShuffleStore::MapOutput MakeOutput(int executor, int node, int buckets) {
  ShuffleStore::MapOutput output;
  output.executor = executor;
  output.node = node;
  output.buckets.resize(static_cast<std::size_t>(buckets),
                        buf::Bytes::Copy("abc"));
  return output;
}

TEST(ShuffleStoreTest, RegisterAndComplete) {
  ShuffleStore store;
  store.Register(5, /*maps=*/3, /*reduces=*/2);
  EXPECT_FALSE(store.Complete(5));
  EXPECT_EQ(store.MissingMaps(5).size(), 3u);

  store.PutMapOutput(5, 0, MakeOutput(0, 0, 2));
  store.PutMapOutput(5, 2, MakeOutput(1, 1, 2));
  EXPECT_EQ(store.MissingMaps(5), std::vector<int>{1});
  store.PutMapOutput(5, 1, MakeOutput(0, 0, 2));
  EXPECT_TRUE(store.Complete(5));
  EXPECT_EQ(store.NumMaps(5), 3);
  EXPECT_GT(store.total_shuffle_bytes(), 0u);
}

TEST(ShuffleStoreTest, GetMapOutput) {
  ShuffleStore store;
  store.Register(1, 2, 4);
  store.PutMapOutput(1, 0, MakeOutput(7, 3, 4));
  const auto* output = store.GetMapOutput(1, 0);
  ASSERT_NE(output, nullptr);
  EXPECT_EQ(output->executor, 7);
  EXPECT_EQ(output->node, 3);
  EXPECT_EQ(output->buckets.size(), 4u);
  EXPECT_EQ(store.GetMapOutput(1, 1), nullptr);
  EXPECT_EQ(store.GetMapOutput(9, 0), nullptr);
}

TEST(ShuffleStoreTest, DropExecutorLosesItsOutputsOnly) {
  ShuffleStore store;
  store.Register(1, 2, 1);
  store.Register(2, 1, 1);
  store.PutMapOutput(1, 0, MakeOutput(0, 0, 1));
  store.PutMapOutput(1, 1, MakeOutput(1, 1, 1));
  store.PutMapOutput(2, 0, MakeOutput(0, 0, 1));
  EXPECT_TRUE(store.Complete(1));
  EXPECT_TRUE(store.Complete(2));

  store.DropExecutor(0);
  EXPECT_FALSE(store.Complete(1));
  EXPECT_EQ(store.MissingMaps(1), std::vector<int>{0});
  EXPECT_FALSE(store.Complete(2));
  EXPECT_NE(store.GetMapOutput(1, 1), nullptr);  // executor 1's survives
}

TEST(ShuffleStoreTest, FetchedBucketAliasSurvivesDropExecutor) {
  // Kill-unwind safety for the zero-copy plane: a reducer that fetched a
  // bucket holds a refcounted alias of the map output's chunk, so dropping
  // the executor mid-shuffle (the FetchFailed path) deletes the store
  // entry but cannot invalidate buckets already handed out.
  ShuffleStore store;
  store.Register(1, /*maps=*/1, /*reduces=*/1);
  ShuffleStore::MapOutput output;
  output.executor = 0;
  output.node = 0;
  output.buckets.push_back(buf::Bytes::Copy("reduce-partition-payload"));
  store.PutMapOutput(1, 0, std::move(output));

  const auto* stored = store.GetMapOutput(1, 0);
  ASSERT_NE(stored, nullptr);
  const buf::Bytes fetched = stored->buckets[0];  // what FetchShuffle ships

  store.DropExecutor(0);
  EXPECT_EQ(store.GetMapOutput(1, 0), nullptr);
  EXPECT_TRUE(fetched.Equals("reduce-partition-payload"));
}

TEST(ShuffleStoreTest, ReRegisterSameShapeIsIdempotent) {
  ShuffleStore store;
  store.Register(3, 4, 4);
  store.PutMapOutput(3, 0, MakeOutput(0, 0, 4));
  store.Register(3, 4, 4);  // e.g. a re-submitted stage
  EXPECT_NE(store.GetMapOutput(3, 0), nullptr);  // outputs kept
}

}  // namespace
}  // namespace pstk::spark
