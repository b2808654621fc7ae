// Immutable, refcounted byte buffers — the zero-copy currency of the data
// plane (DFS blocks, shuffle buckets, network payloads, cached partitions).
//
// A `Bytes` is a cheap value type: one span (offset + size) over a shared,
// immutable chunk.
//
//  * `Slice()` aliases the same storage (a refcount bump, no copy), so a
//    DFS block, the cached RDD partition built from it, and the shuffle
//    bucket shipped from it can all share one allocation;
//  * `Concat()` joins adjacent slices of one chunk into an alias of that
//    chunk (reading all blocks of one installed file yields the file
//    without a copy); any other concatenation is one counted copy;
//  * `FromString`/`FromVector` take ownership of an existing allocation
//    (the serde `Writer` hands its buffer over this way — see
//    `Writer::TakeBytes`), `Copy` is the one-allocation deep copy.
//
// Immutability + refcounting is all the lifetime machinery the simulator
// needs: simulated processes are cooperatively scheduled fibers, and chunk
// payloads are never mutated after creation.
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

  /// Contiguous view of the bytes.
  [[nodiscard]] std::string_view view() const;
  [[nodiscard]] const std::uint8_t* data() const;

  /// Zero-copy sub-range [pos, pos+len): the result aliases this buffer's
  /// chunk. `len == npos` means "to the end".
  [[nodiscard]] Bytes Slice(std::size_t pos, std::size_t len = npos) const;

  /// Join `parts` in order. Adjacent slices of one chunk join into an alias
  /// of it (no copy); any other mix is one counted copy into a fresh chunk.
  [[nodiscard]] static Bytes Concat(const std::vector<Bytes>& parts);

  /// Materialize a std::string (always a counted copy).
  [[nodiscard]] std::string ToString() const;
  /// Copy all bytes to `out` (caller guarantees room; counted).
  void CopyTo(void* out) const;

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

  static Bytes FromChunk(ChunkRef chunk);

  // Empty buffers hold no chunk.
  ChunkRef chunk_;
  std::size_t off_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pstk::buf
