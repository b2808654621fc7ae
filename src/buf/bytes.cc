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

void CountAlias(std::uint64_t spans) {
  stats().chunks_aliased.fetch_add(spans, std::memory_order_relaxed);
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
  if (out.size_ > 0) {
    out.head_ = Span{std::move(chunk), 0, out.size_};
  }
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
  PSTK_CHECK_MSG(flat(), "Bytes::view on a rope (" << chunk_count()
                                                   << " chunks) — Flatten()");
  return head_.chunk ? head_.View() : std::string_view{};
}

const std::uint8_t* Bytes::data() const {
  return reinterpret_cast<const std::uint8_t*>(view().data());
}

void Bytes::AppendSpan(const Span& span) {
  if (span.len == 0) return;
  Span* last = tail_.empty() ? (head_.chunk ? &head_ : nullptr)
                             : &tail_.back();
  // Coalesce: an adjacent slice of the same chunk extends the last span,
  // keeping "concat of consecutive slices" flat.
  if (last != nullptr && last->chunk == span.chunk &&
      last->off + last->len == span.off) {
    last->len += span.len;
  } else if (last == nullptr) {
    head_ = span;
    CountAlias(1);
  } else {
    tail_.push_back(span);
    CountAlias(1);
  }
  size_ += span.len;
}

Bytes Bytes::Slice(std::size_t pos, std::size_t len) const {
  PSTK_CHECK_MSG(pos <= size_, "Bytes::Slice pos " << pos << " > size "
                                                   << size_);
  const std::size_t want = std::min(len, size_ - pos);
  Bytes out;
  if (want == 0) return out;
  std::size_t skip = pos;
  std::size_t need = want;
  auto take = [&](const Span& s) {
    if (need == 0) return;
    if (skip >= s.len) {
      skip -= s.len;
      return;
    }
    const std::size_t n = std::min(need, s.len - skip);
    out.AppendSpan(Span{s.chunk, s.off + skip, n});
    skip = 0;
    need -= n;
  };
  if (head_.chunk) take(head_);
  for (const Span& s : tail_) take(s);
  return out;
}

Bytes Bytes::Concat(const std::vector<Bytes>& parts) {
  Bytes out;
  for (const Bytes& part : parts) {
    if (part.head_.chunk) out.AppendSpan(part.head_);
    for (const Span& s : part.tail_) out.AppendSpan(s);
  }
  return out;
}

Bytes Bytes::Flatten() const {
  if (flat()) {
    CountAlias(head_.chunk ? 1 : 0);
    return *this;
  }
  // Assemble directly into the new chunk's storage: one copy, counted once
  // (Copy(ToString()) would materialize twice).
  std::string out;
  out.reserve(size_);
  ForEachChunk([&](std::string_view v) { out.append(v); });
  CountCopy(out.size());
  return FromString(std::move(out));
}

std::string Bytes::ToString() const {
  if (empty()) return {};
  if (flat()) {
    const std::string_view v = view();
    CountCopy(v.size());
    return std::string(v);
  }
  std::string out;
  out.reserve(size_);
  ForEachChunk([&](std::string_view v) { out.append(v); });
  CountCopy(out.size());
  return out;
}

void Bytes::CopyTo(void* out) const {
  auto* p = static_cast<std::uint8_t*>(out);
  ForEachChunk([&](std::string_view v) {
    std::memcpy(p, v.data(), v.size());
    p += v.size();
  });
  CountCopy(size_);
}

bool Bytes::Equals(std::string_view other) const {
  if (size_ != other.size()) return false;
  std::size_t pos = 0;
  bool eq = true;
  ForEachChunk([&](std::string_view v) {
    if (eq && other.compare(pos, v.size(), v) != 0) eq = false;
    pos += v.size();
  });
  return eq;
}

bool operator==(const Bytes& a, const Bytes& b) {
  if (a.size_ != b.size_) return false;
  if (a.flat()) return b.Equals(a.view());
  if (b.flat()) return a.Equals(b.view());
  return a.ToString() == b.ToString();  // rope-vs-rope: rare, correctness-only
}

void Builder::FlushPending() {
  if (pending_.empty()) return;
  CountCopy(pending_.size());
  parts_.push_back(Bytes::FromString(std::move(pending_)));
  pending_.clear();
}

void Builder::Append(std::string_view data) {
  pending_.append(data);
  size_ += data.size();
}

void Builder::Append(Bytes bytes) {
  size_ += bytes.size();
  FlushPending();
  parts_.push_back(std::move(bytes));
}

Bytes Builder::Build() {
  FlushPending();
  Bytes out = Bytes::Concat(parts_);
  parts_.clear();
  size_ = 0;
  return out;
}

}  // namespace pstk::buf
