// Immutable, refcounted byte buffers — the zero-copy currency of the data
// plane (DFS blocks, shuffle buckets, network payloads, cached partitions).
//
// A `Bytes` is a cheap value type over shared, immutable chunks:
//
//  * `Slice()` aliases the same storage (a refcount bump, no copy), so a
//    DFS block, the cached RDD partition built from it, and the shuffle
//    bucket shipped from it can all share one allocation;
//  * `Concat()` is rope-style: it stitches spans without copying, and
//    coalesces adjacent slices of the same chunk back into one flat span
//    (reading all blocks of one installed file yields a flat view again);
//  * `FromString`/`FromVector` take ownership of an existing allocation
//    (the serde `Writer` hands its buffer over this way — see
//    `Writer::TakeBytes`), `Copy` is the one-allocation deep copy.
//
// Immutability + refcounting is all the lifetime machinery the simulator
// needs: simulated processes are cooperatively scheduled fibers (or
// lockstep threads), so chunk payloads are never mutated after creation
// and the shared_ptr control block makes a release from another host
// thread (a thread-backend process) safe.
//
// Every deep copy the data plane still performs is counted in a
// process-global `Stats` (chunks allocated/aliased, bytes copied, and a
// log2 size histogram) so copy-elimination is measurable in every bench
// (`--metrics` surfaces the deltas; see bench/bench_opts.cc).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace pstk::buf {

/// Point-in-time copy of the process-global buffer statistics. Counters are
/// monotonic; callers diff two snapshots to attribute activity to a run.
/// `copy_hist` uses the same log2 bucketing as obs::Histogram (bucket =
/// binary exponent + 32, clamped to [0, 64)).
struct StatsSnapshot {
  std::uint64_t chunks_allocated = 0;  // distinct backing allocations
  std::uint64_t chunks_aliased = 0;    // zero-copy spans minted over them
  std::uint64_t copies = 0;            // deep-copy events
  std::uint64_t copy_bytes = 0;        // total bytes deep-copied
  std::array<std::uint64_t, 64> copy_hist{};
};

[[nodiscard]] StatsSnapshot SnapshotStats();

class Bytes {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Bytes() = default;

  /// Deep-copy `data` into one fresh chunk (counted in Stats).
  [[nodiscard]] static Bytes Copy(std::string_view data);
  /// Take ownership of an existing allocation — no copy.
  [[nodiscard]] static Bytes FromString(std::string&& s);
  [[nodiscard]] static Bytes FromVector(std::vector<std::uint8_t>&& v);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Number of distinct spans (1 for flat non-empty, 0 for empty).
  [[nodiscard]] std::size_t chunk_count() const {
    return (head_.chunk ? 1 : 0) + tail_.size();
  }
  /// True when the bytes are one contiguous run (or empty).
  [[nodiscard]] bool flat() const { return tail_.empty(); }

  /// Contiguous view. CHECK-fails on a rope — call Flatten() first.
  [[nodiscard]] std::string_view view() const;
  [[nodiscard]] const std::uint8_t* data() const;

  /// Zero-copy sub-range [pos, pos+len): the result aliases this buffer's
  /// chunks. `len == npos` means "to the end".
  [[nodiscard]] Bytes Slice(std::size_t pos, std::size_t len = npos) const;

  /// Rope-style concatenation: no payload copy. Adjacent spans over the
  /// same chunk coalesce, so concatenating consecutive slices of one chunk
  /// yields a flat result.
  [[nodiscard]] static Bytes Concat(const std::vector<Bytes>& parts);

  /// Flat alias if already flat; otherwise one fresh contiguous chunk
  /// (a counted copy).
  [[nodiscard]] Bytes Flatten() const;

  /// Materialize a std::string (always a counted copy).
  [[nodiscard]] std::string ToString() const;
  /// Copy all bytes to `out` (caller guarantees room; counted).
  void CopyTo(void* out) const;

  /// Visit each contiguous span in order.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    if (head_.chunk) fn(head_.View());
    for (const Span& s : tail_) fn(s.View());
  }

  [[nodiscard]] bool Equals(std::string_view other) const;
  friend bool operator==(const Bytes& a, const Bytes& b);
  friend bool operator==(const Bytes& a, std::string_view b) {
    return a.Equals(b);
  }
  friend bool operator==(std::string_view a, const Bytes& b) {
    return b.Equals(a);
  }
  friend bool operator!=(const Bytes& a, const Bytes& b) { return !(a == b); }

 private:
  /// Refcounted immutable storage. Exactly one of `str`/`vec` owns the
  /// payload; `data`/`size` point into it.
  struct Chunk {
    explicit Chunk(std::string s);
    explicit Chunk(std::vector<std::uint8_t> v);
    std::string str;
    std::vector<std::uint8_t> vec;
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };
  using ChunkRef = std::shared_ptr<const Chunk>;

  struct Span {
    ChunkRef chunk;
    std::size_t off = 0;
    std::size_t len = 0;
    [[nodiscard]] std::string_view View() const {
      return {reinterpret_cast<const char*>(chunk->data) + off, len};
    }
  };

  static Bytes FromChunk(ChunkRef chunk);
  void AppendSpan(const Span& span);

  // Single-span fast path: `head_` holds flat buffers entirely; `tail_`
  // carries the remaining spans of a rope.
  Span head_;
  std::vector<Span> tail_;
  std::size_t size_ = 0;
};

/// Incremental zero-copy assembly: `Append(Bytes)` splices without copying,
/// `Append(string_view)` accumulates into a pending chunk (one counted copy
/// per flush, not per call). `Build()` yields the concatenation.
class Builder {
 public:
  void Append(std::string_view data);
  void Append(Bytes bytes);
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Finish and reset the builder.
  [[nodiscard]] Bytes Build();

 private:
  void FlushPending();
  std::string pending_;
  std::vector<Bytes> parts_;
  std::size_t size_ = 0;
};

}  // namespace pstk::buf
