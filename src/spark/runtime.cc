#include "spark/runtime.h"

#include <algorithm>

#include "common/check.h"

namespace pstk::spark {

// ---------------------------------------------------------------------------
// ShuffleStore
// ---------------------------------------------------------------------------

void ShuffleStore::Register(int shuffle_id, int num_maps, int num_reduces) {
  auto it = shuffles_.find(shuffle_id);
  if (it != shuffles_.end()) {
    PSTK_CHECK_MSG(it->second.num_maps == num_maps &&
                       it->second.num_reduces == num_reduces,
                   "shuffle " << shuffle_id << " re-registered with different"
                              << " shape");
    return;
  }
  Shuffle shuffle;
  shuffle.num_maps = num_maps;
  shuffle.num_reduces = num_reduces;
  shuffles_.emplace(shuffle_id, std::move(shuffle));
}

void ShuffleStore::PutMapOutput(int shuffle_id, int map_partition,
                                MapOutput output) {
  auto it = shuffles_.find(shuffle_id);
  PSTK_CHECK_MSG(it != shuffles_.end(), "unknown shuffle " << shuffle_id);
  output.total_bytes = 0;
  for (const auto& bucket : output.buckets) output.total_bytes += bucket.size();
  total_bytes_ += output.total_bytes;
  it->second.outputs[map_partition] = std::move(output);
}

const ShuffleStore::MapOutput* ShuffleStore::GetMapOutput(
    int shuffle_id, int map_partition) const {
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) return nullptr;
  auto out = it->second.outputs.find(map_partition);
  return out == it->second.outputs.end() ? nullptr : &out->second;
}

bool ShuffleStore::Complete(int shuffle_id) const {
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) return false;
  return static_cast<int>(it->second.outputs.size()) == it->second.num_maps;
}

std::vector<int> ShuffleStore::MissingMaps(int shuffle_id) const {
  std::vector<int> missing;
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) return missing;
  for (int m = 0; m < it->second.num_maps; ++m) {
    if (it->second.outputs.count(m) == 0) missing.push_back(m);
  }
  return missing;
}

int ShuffleStore::NumMaps(int shuffle_id) const {
  auto it = shuffles_.find(shuffle_id);
  return it == shuffles_.end() ? 0 : it->second.num_maps;
}

void ShuffleStore::DropExecutor(int executor) {
  for (auto& [id, shuffle] : shuffles_) {
    for (auto it = shuffle.outputs.begin(); it != shuffle.outputs.end();) {
      if (it->second.executor == executor) {
        it = shuffle.outputs.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BlockStore
// ---------------------------------------------------------------------------

void BlockStore::Touch(const Key& key) {
  lru_.remove(key);
  lru_.push_back(key);
}

std::optional<BlockStore::Block> BlockStore::Put(int executor, int rdd,
                                                 int partition, Block block,
                                                 Bytes* spilled_to_disk_bytes) {
  *spilled_to_disk_bytes = 0;
  const Key key{executor, rdd, partition};
  PSTK_CHECK_MSG(block.level != StorageLevel::kNone, "Put with kNone level");

  // Re-caching an existing block: release its old accounting first.
  if (auto existing = blocks_.find(key); existing != blocks_.end()) {
    if (!existing->second.on_disk) {
      memory_used_[executor] -= existing->second.modeled_size;
    }
    lru_.remove(key);
    blocks_.erase(existing);
  }

  if (block.level == StorageLevel::kDiskOnly) {
    block.on_disk = true;
    *spilled_to_disk_bytes += block.modeled_size;
    blocks_[key] = block;
    return block;
  }

  // Memory path: evict LRU blocks of this executor until it fits.
  Bytes& used = memory_used_[executor];
  if (block.modeled_size <= budget_) {
    auto it = lru_.begin();
    while (used + block.modeled_size > budget_ && it != lru_.end()) {
      if (it->executor != executor) {
        ++it;
        continue;
      }
      const Key victim_key = *it;
      Block& victim = blocks_.at(victim_key);
      if (victim.on_disk) {
        ++it;
        continue;  // already on disk, no memory held... defensive
      }
      used -= victim.modeled_size;
      if (victim.level == StorageLevel::kMemoryAndDisk) {
        victim.on_disk = true;
        *spilled_to_disk_bytes += victim.modeled_size;
        it = lru_.erase(it);
      } else {
        blocks_.erase(victim_key);
        it = lru_.erase(it);
      }
    }
  }

  if (block.modeled_size <= budget_ &&
      used + block.modeled_size <= budget_) {
    used += block.modeled_size;
    block.on_disk = false;
    blocks_[key] = block;
    Touch(key);
    return block;
  }

  // Does not fit in memory at all.
  if (block.level == StorageLevel::kMemoryAndDisk) {
    block.on_disk = true;
    *spilled_to_disk_bytes += block.modeled_size;
    blocks_[key] = block;
    return block;
  }
  return std::nullopt;  // MEMORY_ONLY and no room: not cached
}

const BlockStore::Block* BlockStore::Lookup(int executor, int rdd,
                                            int partition) const {
  auto it = blocks_.find(Key{executor, rdd, partition});
  if (it == blocks_.end()) return nullptr;
  if (!it->second.on_disk) {
    const_cast<BlockStore*>(this)->Touch(it->first);
  }
  return &it->second;
}

std::vector<int> BlockStore::CachedExecutors(int rdd, int partition) const {
  std::vector<int> executors;
  for (const auto& [key, block] : blocks_) {
    if (key.rdd == rdd && key.partition == partition) {
      executors.push_back(key.executor);
    }
  }
  return executors;
}

void BlockStore::DropExecutor(int executor) {
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->first.executor == executor) {
      lru_.remove(it->first);
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
  memory_used_.erase(executor);
}

void BlockStore::DropRdd(int rdd) {
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->first.rdd == rdd) {
      if (!it->second.on_disk) {
        memory_used_[it->first.executor] -= it->second.modeled_size;
      }
      lru_.remove(it->first);
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
}

Bytes BlockStore::memory_used(int executor) const {
  auto it = memory_used_.find(executor);
  return it == memory_used_.end() ? 0 : it->second;
}

}  // namespace pstk::spark
