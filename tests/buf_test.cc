// Unit tests for the zero-copy buffer plane (src/buf): alias semantics,
// concatenation, and the process-global copy accounting that the benches
// gate on.
#include "buf/bytes.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace pstk::buf {
namespace {

StatsSnapshot Delta(const StatsSnapshot& before) {
  const StatsSnapshot now = SnapshotStats();
  StatsSnapshot d;
  d.chunks_allocated = now.chunks_allocated - before.chunks_allocated;
  d.chunks_aliased = now.chunks_aliased - before.chunks_aliased;
  d.copies = now.copies - before.copies;
  d.copy_bytes = now.copy_bytes - before.copy_bytes;
  return d;
}

TEST(BytesTest, DefaultIsEmptyAndFlat) {
  Bytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.view(), "");
  EXPECT_EQ(b.ToString(), "");
}

TEST(BytesTest, CopyIsOneCountedAllocation) {
  const StatsSnapshot before = SnapshotStats();
  const Bytes b = Bytes::Copy("hello world");
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(b.view(), "hello world");
  EXPECT_EQ(d.chunks_allocated, 1u);
  EXPECT_EQ(d.copies, 1u);
  EXPECT_EQ(d.copy_bytes, 11u);
}

TEST(BytesTest, FromStringTakesOwnershipWithoutCopying) {
  std::string payload(1024, 'x');
  const char* storage = payload.data();
  const StatsSnapshot before = SnapshotStats();
  const Bytes b = Bytes::FromString(std::move(payload));
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_EQ(reinterpret_cast<const char*>(b.data()), storage);
  EXPECT_EQ(d.chunks_allocated, 1u);
  EXPECT_EQ(d.copies, 0u);
}

TEST(BytesTest, FromVectorTakesOwnershipWithoutCopying) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const std::uint8_t* storage = payload.data();
  const StatsSnapshot before = SnapshotStats();
  const Bytes b = Bytes::FromVector(std::move(payload));
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(d.copies, 0u);
}

TEST(BytesTest, SliceAliasesStorage) {
  const Bytes b = Bytes::Copy("abcdefgh");
  const StatsSnapshot before = SnapshotStats();
  const Bytes mid = b.Slice(2, 4);
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(mid.view(), "cdef");
  EXPECT_EQ(mid.data(), b.data() + 2);  // same allocation, no copy
  EXPECT_EQ(d.copies, 0u);
  EXPECT_EQ(d.chunks_allocated, 0u);
  EXPECT_GE(d.chunks_aliased, 1u);
}

TEST(BytesTest, SliceNposRunsToEnd) {
  const Bytes b = Bytes::Copy("abcdefgh");
  EXPECT_EQ(b.Slice(5).view(), "fgh");
  EXPECT_EQ(b.Slice(0).view(), "abcdefgh");
  EXPECT_EQ(b.Slice(8).size(), 0u);
}

TEST(BytesTest, SliceOfSliceComposesOffsets) {
  const Bytes b = Bytes::Copy("0123456789");
  const Bytes inner = b.Slice(2, 6).Slice(1, 3);
  EXPECT_EQ(inner.view(), "345");
  EXPECT_EQ(inner.data(), b.data() + 3);
}

TEST(BytesTest, SliceKeepsChunkAliveAfterSourceDies) {
  Bytes tail;
  {
    Bytes whole = Bytes::Copy("the quick brown fox");
    tail = whole.Slice(10);
  }  // `whole` destroyed; the chunk survives via the slice's refcount
  EXPECT_EQ(tail.view(), "brown fox");
}

TEST(BytesTest, ConcatOfSeparateChunksIsOneCountedCopy) {
  const Bytes a = Bytes::Copy("hello ");
  const Bytes b = Bytes::Copy("world");
  const StatsSnapshot before = SnapshotStats();
  const Bytes joined = Bytes::Concat({a, b});
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(joined.view(), "hello world");
  EXPECT_EQ(d.chunks_allocated, 1u);
  EXPECT_EQ(d.copies, 1u);
  EXPECT_EQ(d.copy_bytes, 11u);
}

TEST(BytesTest, ConcatCoalescesAdjacentSlicesToFlat) {
  // Re-concatenating consecutive slices of one chunk must yield an alias
  // of it — this is what makes ReadAll of one installed file copy-free.
  const Bytes whole = Bytes::Copy("abcdefghij");
  const Bytes joined =
      Bytes::Concat({whole.Slice(0, 3), whole.Slice(3, 4), whole.Slice(7)});
  EXPECT_EQ(joined.view(), "abcdefghij");
  EXPECT_EQ(joined.data(), whole.data());
}

TEST(BytesTest, CopyToAndEquality) {
  const Bytes bytes = Bytes::Copy("abcd");
  char out[4];
  bytes.CopyTo(out);
  EXPECT_EQ(std::string_view(out, 4), "abcd");
  EXPECT_TRUE(bytes.Equals("abcd"));
  EXPECT_FALSE(bytes.Equals("abce"));
  EXPECT_FALSE(bytes.Equals("abc"));
  EXPECT_EQ(bytes, Bytes::Copy("abcd"));  // separate chunks, same content
  EXPECT_NE(bytes, Bytes::Copy("xbcd"));
  EXPECT_EQ(bytes, std::string_view("abcd"));
  EXPECT_EQ(std::string_view("abcd"), bytes);
}

// Differential check against a std::string model. A seeded random mix of
// constructions, slices and concatenations grows a pool of buffers; each
// entry also records which chunk it aliases and where, which is all the
// model needs to predict the copy accounting: constructors from owned
// storage, slices and concatenations of adjacent slices of one chunk copy
// nothing, `Copy` and any other concatenation are exactly one copy of
// their size.
TEST(BytesTest, MatchesStringModelUnderRandomOps) {
  struct Entry {
    Bytes bytes;
    std::string model;
    int chunk = -1;  // model's chunk id; -1 for empty buffers
    std::size_t off = 0;
  };
  Rng rng(1818);
  int next_chunk = 0;
  auto text = [&rng](std::size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>('a' + rng.Below(26));
    return s;
  };
  auto fresh = [&next_chunk](Bytes bytes, std::string model) {
    const int chunk = model.empty() ? -1 : next_chunk++;
    return Entry{std::move(bytes), std::move(model), chunk, 0};
  };
  auto slice = [](const Entry& e, std::size_t pos, std::size_t len) {
    Entry out{e.bytes.Slice(pos, len), e.model.substr(pos, len), e.chunk,
              e.off + pos};
    if (out.model.empty()) out.chunk = -1;
    return out;
  };
  // Expected Concat result: an alias when the non-empty parts are adjacent
  // slices of one chunk, otherwise a fresh chunk.
  auto concat = [&next_chunk](const std::vector<const Entry*>& parts,
                              bool* aliases) {
    Entry out;
    *aliases = true;
    for (const Entry* part : parts) {
      if (part->model.empty()) continue;
      if (out.chunk < 0) {
        out.chunk = part->chunk;
        out.off = part->off;
      } else if (part->chunk != out.chunk ||
                 part->off != out.off + out.model.size()) {
        *aliases = false;
      }
      out.model += part->model;
    }
    if (!*aliases) {
      out.chunk = next_chunk++;
      out.off = 0;
    }
    std::vector<Bytes> bytes;
    for (const Entry* part : parts) bytes.push_back(part->bytes);
    out.bytes = Bytes::Concat(bytes);
    return out;
  };

  std::vector<Entry> pool;
  pool.push_back(fresh(Bytes(), ""));
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const Entry& src = pool[rng.Below(pool.size())];
    std::uint64_t want_copies = 0;
    std::uint64_t want_copy_bytes = 0;
    const StatsSnapshot before = SnapshotStats();
    Entry made;
    switch (rng.Below(6)) {
      case 0: {
        std::string s = text(rng.Below(48));
        want_copies = s.empty() ? 0 : 1;
        want_copy_bytes = s.size();
        made = fresh(Bytes::Copy(s), s);
        break;
      }
      case 1: {
        std::string s = text(rng.Below(48));
        made = fresh(Bytes::FromString(std::string(s)), s);
        break;
      }
      case 2: {
        std::string s = text(rng.Below(48));
        made = fresh(Bytes::FromVector(std::vector<std::uint8_t>(s.begin(),
                                                                 s.end())),
                     s);
        break;
      }
      case 3: {  // slice: npos, empty and slice-of-slice all come up
        const std::size_t pos = rng.Below(src.model.size() + 1);
        const std::size_t left = src.model.size() - pos;
        const std::size_t len =
            rng.Below(4) == 0 ? Bytes::npos : rng.Below(left + 1);
        made = slice(src, pos, len);
        break;
      }
      case 4: {  // adjacent run: consecutive (possibly empty) slices
        std::vector<Entry> run;
        std::size_t pos = 0;
        while (pos < src.model.size() || run.empty()) {
          const std::size_t len = rng.Below(src.model.size() - pos + 1);
          run.push_back(slice(src, pos, len));
          pos += len;
          if (rng.Below(3) == 0) break;
        }
        std::vector<const Entry*> parts;
        for (const Entry& e : run) parts.push_back(&e);
        bool aliases = false;
        made = concat(parts, &aliases);
        ASSERT_TRUE(aliases);
        if (!made.model.empty()) {
          EXPECT_EQ(made.bytes.data(), src.bytes.data());
        }
        break;
      }
      default: {  // mixed parts drawn from the whole pool
        std::vector<const Entry*> parts;
        const std::uint64_t n = rng.Below(5);
        for (std::uint64_t i = 0; i < n; ++i) {
          parts.push_back(&pool[rng.Below(pool.size())]);
        }
        bool aliases = false;
        made = concat(parts, &aliases);
        if (!aliases) {
          want_copies = 1;
          want_copy_bytes = made.model.size();
        }
        break;
      }
    }
    const StatsSnapshot d = Delta(before);
    EXPECT_EQ(d.copies, want_copies);
    EXPECT_EQ(d.copy_bytes, want_copy_bytes);

    // Content, and the readers' own accounting.
    ASSERT_EQ(made.bytes.size(), made.model.size());
    EXPECT_EQ(made.bytes.empty(), made.model.empty());
    EXPECT_EQ(made.bytes.view(), made.model);
    EXPECT_TRUE(made.bytes.Equals(made.model));
    EXPECT_FALSE(made.bytes.Equals(made.model + "x"));
    if (!made.model.empty()) {
      std::string other = made.model;
      other[rng.Below(other.size())] ^= 0x20;
      EXPECT_FALSE(made.bytes.Equals(other));
    }
    const Entry& peer = pool[rng.Below(pool.size())];
    EXPECT_EQ(made.bytes == peer.bytes, made.model == peer.model);
    EXPECT_EQ(made.bytes != peer.bytes, made.model != peer.model);
    EXPECT_TRUE(made.bytes == std::string_view(made.model));
    const StatsSnapshot read_before = SnapshotStats();
    EXPECT_EQ(made.bytes.ToString(), made.model);
    std::string out(made.model.size(), '\0');
    made.bytes.CopyTo(out.data());
    EXPECT_EQ(out, made.model);
    const StatsSnapshot r = Delta(read_before);
    EXPECT_EQ(r.copies, made.model.empty() ? 1u : 2u);
    EXPECT_EQ(r.copy_bytes, 2 * made.model.size());

    if (pool.size() < 32) {
      pool.push_back(std::move(made));
    } else {
      pool[rng.Below(pool.size())] = std::move(made);
    }
  }
}

TEST(StatsTest, CopyHistogramBucketsByLog2Size) {
  const StatsSnapshot before = SnapshotStats();
  (void)Bytes::Copy(std::string(100, 'a'));   // bit width 7  -> bucket 39
  (void)Bytes::Copy(std::string(5000, 'b'));  // bit width 13 -> bucket 45
  const StatsSnapshot now = SnapshotStats();
  EXPECT_EQ(now.copy_hist[39] - before.copy_hist[39], 1u);
  EXPECT_EQ(now.copy_hist[45] - before.copy_hist[45], 1u);
  EXPECT_EQ(now.copy_bytes - before.copy_bytes, 5100u);
}

}  // namespace
}  // namespace pstk::buf
