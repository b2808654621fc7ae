#include "buf/bytes.h"

#include <algorithm>

namespace pstk::buf {
namespace {

// Process-global counters. Relaxed atomics: adds are commutative, so the
// totals are identical for any host-thread interleaving, and reads by
// SnapshotStats need no ordering with respect to each other.
struct Stats {
  std::atomic<std::uint64_t> chunks_allocated{0};
  std::atomic<std::uint64_t> chunks_aliased{0};
  std::atomic<std::uint64_t> copies{0};
  std::atomic<std::uint64_t> copy_bytes{0};
  std::array<std::atomic<std::uint64_t>, 64> copy_hist{};
};

Stats& stats() {
  static Stats s;
  return s;
}

// Same bucketing as obs::Histogram (binary exponent + 32, clamped) so the
// snapshot converts losslessly into an obs histogram for --metrics tables.
std::size_t BucketFor(std::size_t bytes) {
  int exp = 0;
  while (bytes != 0) {  // exp = bit width = binary exponent + 1
    bytes >>= 1;
    ++exp;
  }
  return static_cast<std::size_t>(std::clamp(exp + 32, 0, 63));
}

void CountCopy(std::size_t bytes) {
  Stats& s = stats();
  s.copies.fetch_add(1, std::memory_order_relaxed);
  s.copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
  s.copy_hist[BucketFor(bytes)].fetch_add(1, std::memory_order_relaxed);
}

void CountAlias() {
  stats().chunks_aliased.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

StatsSnapshot SnapshotStats() {
  const Stats& s = stats();
  StatsSnapshot out;
  out.chunks_allocated = s.chunks_allocated.load(std::memory_order_relaxed);
  out.chunks_aliased = s.chunks_aliased.load(std::memory_order_relaxed);
  out.copies = s.copies.load(std::memory_order_relaxed);
  out.copy_bytes = s.copy_bytes.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < out.copy_hist.size(); ++i) {
    out.copy_hist[i] = s.copy_hist[i].load(std::memory_order_relaxed);
  }
  return out;
}

Bytes::Chunk::Chunk(std::string s)
    : str(std::move(s)),
      data(reinterpret_cast<const std::uint8_t*>(str.data())),
      size(str.size()) {
  stats().chunks_allocated.fetch_add(1, std::memory_order_relaxed);
}

Bytes::Chunk::Chunk(std::vector<std::uint8_t> v)
    : vec(std::move(v)), data(vec.data()), size(vec.size()) {
  stats().chunks_allocated.fetch_add(1, std::memory_order_relaxed);
}

Bytes Bytes::FromChunk(ChunkRef chunk) {
  Bytes out;
  out.size_ = chunk->size;
  out.chunk_ = std::move(chunk);
  return out;
}

Bytes Bytes::Copy(std::string_view data) {
  if (data.empty()) return {};
  CountCopy(data.size());
  return FromChunk(std::make_shared<const Chunk>(std::string(data)));
}

Bytes Bytes::FromString(std::string&& s) {
  if (s.empty()) return {};
  return FromChunk(std::make_shared<const Chunk>(std::move(s)));
}

Bytes Bytes::FromVector(std::vector<std::uint8_t>&& v) {
  if (v.empty()) return {};
  return FromChunk(std::make_shared<const Chunk>(std::move(v)));
}

std::string_view Bytes::view() const {
  if (!chunk_) return {};
  return {reinterpret_cast<const char*>(chunk_->data) + off_, size_};
}

const std::uint8_t* Bytes::data() const {
  return chunk_ ? chunk_->data + off_ : nullptr;
}

Bytes Bytes::Slice(std::size_t pos, std::size_t len) const {
  PSTK_CHECK_MSG(pos <= size_, "Bytes::Slice pos " << pos << " > size "
                                                   << size_);
  const std::size_t want = std::min(len, size_ - pos);
  if (want == 0) return {};
  CountAlias();
  Bytes out = *this;
  out.off_ += pos;
  out.size_ = want;
  return out;
}

Bytes Bytes::Concat(const std::vector<Bytes>& parts) {
  Bytes out;
  bool adjacent = true;
  std::size_t total = 0;
  for (const Bytes& part : parts) {
    if (part.empty()) continue;
    total += part.size_;
    if (out.empty()) {
      out = part;
    } else if (adjacent && part.chunk_ == out.chunk_ &&
               part.off_ == out.off_ + out.size_) {
      out.size_ += part.size_;
    } else {
      adjacent = false;
    }
  }
  if (adjacent) {
    if (!out.empty()) CountAlias();
    return out;
  }
  std::string joined;
  joined.reserve(total);
  for (const Bytes& part : parts) joined.append(part.view());
  CountCopy(total);
  return FromString(std::move(joined));
}

std::string Bytes::ToString() const {
  if (empty()) return {};
  CountCopy(size_);
  return std::string(view());
}

void Bytes::CopyTo(void* out) const {
  if (!empty()) std::memcpy(out, data(), size_);
  CountCopy(size_);
}

bool Bytes::Equals(std::string_view other) const { return view() == other; }

bool operator==(const Bytes& a, const Bytes& b) {
  return a.view() == b.view();
}

}  // namespace pstk::buf
