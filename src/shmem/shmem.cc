#include "shmem/shmem.h"

#include <algorithm>

#include "common/check.h"
#include "serde/serde.h"

namespace pstk::shmem {

namespace {
constexpr int kCollTagBase = 0x40000000;

bool Compare(std::int64_t lhs, Cmp cmp, std::int64_t rhs) {
  switch (cmp) {
    case Cmp::kEq: return lhs == rhs;
    case Cmp::kNe: return lhs != rhs;
    case Cmp::kGt: return lhs > rhs;
    case Cmp::kGe: return lhs >= rhs;
    case Cmp::kLt: return lhs < rhs;
    case Cmp::kLe: return lhs <= rhs;
  }
  return false;
}
}  // namespace

// ---------------------------------------------------------------------------
// ShmemWorld
// ---------------------------------------------------------------------------

ShmemWorld::ShmemWorld(cluster::Cluster& cluster, int npes, int pes_per_node,
                       ShmemOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      npes_(npes),
      pes_per_node_(pes_per_node),
      verify_job_(cluster.engine().verify().NewJob()) {
  PSTK_CHECK_MSG(npes_ >= 1, "need at least one PE");
  PSTK_CHECK_MSG(pes_per_node_ >= 1, "pes_per_node must be >= 1");
  if (!options_.placement.empty()) {
    PSTK_CHECK_MSG(options_.placement.size() == static_cast<std::size_t>(npes_),
                   "placement names " << options_.placement.size()
                                      << " PEs for an " << npes_ << "-PE job");
    for (int node : options_.placement) {
      PSTK_CHECK_MSG(node >= 0 && node < cluster_.nodes(),
                     "placement node " << node << " out of range");
    }
  } else {
    const int needed = (npes_ + pes_per_node_ - 1) / pes_per_node_;
    PSTK_CHECK_MSG(needed <= cluster_.nodes(),
                   "not enough nodes for " << npes_ << " PEs");
  }
  const net::TransportParams transport =
      options_.transport.value_or(cluster_.spec().transport);
  fabric_ = cluster_.fabric(transport);
  network_ = std::make_unique<net::Network>(cluster_.engine(), fabric_);
  heaps_.resize(static_cast<std::size_t>(npes_));
  alloc_cursor_.assign(static_cast<std::size_t>(npes_), 0);
  waiters_.assign(static_cast<std::size_t>(npes_), sim::kNoPid);
}

void ShmemWorld::SpawnPes(PeBody body) {
  for (int pe = 0; pe < npes_; ++pe) {
    const int node = NodeOfPe(pe);
    network_->CreateEndpoint(pe, node);
    cluster_.engine().Spawn(
        options_.name + "-pe-" + std::to_string(pe),
        [this, pe, body](sim::Context& ctx) {
          ctx.SleepFor(options_.startup_cost);  // launcher + shmem_init
          Pe handle(*this, ctx, pe);
          body(handle);
          handle.BarrierAll();  // shmem_finalize
          job_end_ = std::max(job_end_, ctx.now());
          if (++pes_done_ == npes_ && on_done_) on_done_(ctx.now());
        },
        node);
  }
}

Result<SimTime> ShmemWorld::RunSpmd(PeBody body) {
  SpawnPes(std::move(body));
  const sim::RunResult result = cluster_.engine().Run();
  if (result.killed > 0) {
    return Aborted("SHMEM job lost " + std::to_string(result.killed) +
                   " PE(s); job aborted");
  }
  if (!result.status.ok()) return result.status;
  return job_end_;
}

// ---------------------------------------------------------------------------
// Pe
// ---------------------------------------------------------------------------

int Pe::n_pes() const { return world_.npes_; }

net::Endpoint& Pe::endpoint() { return world_.network_->endpoint(pe_); }

Bytes Pe::SymMalloc(Bytes bytes, Bytes align) {
  auto& cursor = world_.alloc_cursor_[static_cast<std::size_t>(pe_)];
  if (cursor == world_.layout_.size()) {
    // First PE to reach this allocation site defines the layout.
    Bytes offset = world_.heap_top_;
    offset = (offset + align - 1) / align * align;
    world_.layout_.push_back(ShmemWorld::Allocation{offset, bytes});
    world_.heap_top_ = offset + bytes;
    for (auto& heap : world_.heaps_) {
      heap.resize(static_cast<std::size_t>(world_.heap_top_), 0);
    }
  } else {
    PSTK_CHECK_MSG(world_.layout_[cursor].bytes == bytes,
                   "asymmetric shmem_malloc: PE " << pe_ << " requested "
                                                  << bytes << " bytes");
  }
  return world_.layout_[cursor++].offset;
}

std::uint8_t* Pe::HeapAt(int pe, Bytes offset) {
  auto& heap = world_.heaps_[static_cast<std::size_t>(pe)];
  PSTK_CHECK_MSG(offset <= heap.size(), "symmetric heap overrun");
  return heap.data() + offset;
}

void Pe::RawPut(Bytes offset, const void* src, Bytes bytes, int target_pe) {
  PSTK_CHECK_MSG(target_pe >= 0 && target_pe < world_.npes_,
                 "bad target PE " << target_pe);
  ctx_.engine().verify().OnShmemAccess(world_.verify_job_, pe_, target_pe,
                                       offset, bytes, /*write=*/true,
                                       /*atomic=*/false, ctx_.now());
  const auto times = world_.fabric_->RdmaWrite(
      ctx_.node(), world_.NodeOfPe(target_pe), bytes, ctx_.now());
  ctx_.Compute(times.sender_cpu);
  // The store becomes visible in the target heap now; programs observe it
  // through wait_until/barrier, which respect the arrival timestamp.
  std::memcpy(HeapAt(target_pe, offset), src, bytes);
  last_put_completion_ = std::max(last_put_completion_, times.arrival);
  const sim::Pid waiter = world_.waiters_[static_cast<std::size_t>(target_pe)];
  if (waiter != sim::kNoPid) {
    ctx_.engine().Wake(waiter, times.arrival);
  }
  // Local completion: source buffer reusable once the NIC has the data.
  ctx_.SleepUntil(times.sender_nic_done);
}

void Pe::RawGet(void* dest, Bytes offset, Bytes bytes, int target_pe) {
  PSTK_CHECK_MSG(target_pe >= 0 && target_pe < world_.npes_,
                 "bad target PE " << target_pe);
  ctx_.engine().verify().OnShmemAccess(world_.verify_job_, pe_, target_pe,
                                       offset, bytes, /*write=*/false,
                                       /*atomic=*/false, ctx_.now());
  const auto times = world_.fabric_->RdmaRead(
      ctx_.node(), world_.NodeOfPe(target_pe), bytes, ctx_.now());
  ctx_.Compute(times.sender_cpu);
  std::memcpy(dest, HeapAt(target_pe, offset), bytes);
  ctx_.SleepUntil(times.arrival);  // gets are blocking
}

void Pe::Quiet() { ctx_.SleepUntil(last_put_completion_); }

std::int64_t Pe::AtomicFetchAdd(SymPtr<std::int64_t> target,
                                std::int64_t value, int target_pe) {
  ctx_.engine().verify().OnShmemAccess(
      world_.verify_job_, pe_, target_pe, target.offset, sizeof(std::int64_t),
      /*write=*/true, /*atomic=*/true, ctx_.now());
  const auto times = world_.fabric_->RdmaRead(
      ctx_.node(), world_.NodeOfPe(target_pe), sizeof(std::int64_t),
      ctx_.now());
  ctx_.Compute(times.sender_cpu);
  auto* slot = reinterpret_cast<std::int64_t*>(
      HeapAt(target_pe, target.offset));
  const std::int64_t old = *slot;
  *slot = old + value;
  const sim::Pid waiter = world_.waiters_[static_cast<std::size_t>(target_pe)];
  if (waiter != sim::kNoPid) ctx_.engine().Wake(waiter, times.arrival);
  ctx_.SleepUntil(times.arrival);
  return old;
}

std::int64_t Pe::AtomicCompareSwap(SymPtr<std::int64_t> target,
                                   std::int64_t expected, std::int64_t desired,
                                   int target_pe) {
  ctx_.engine().verify().OnShmemAccess(
      world_.verify_job_, pe_, target_pe, target.offset, sizeof(std::int64_t),
      /*write=*/true, /*atomic=*/true, ctx_.now());
  const auto times = world_.fabric_->RdmaRead(
      ctx_.node(), world_.NodeOfPe(target_pe), sizeof(std::int64_t),
      ctx_.now());
  ctx_.Compute(times.sender_cpu);
  auto* slot = reinterpret_cast<std::int64_t*>(
      HeapAt(target_pe, target.offset));
  const std::int64_t old = *slot;
  if (old == expected) *slot = desired;
  const sim::Pid waiter = world_.waiters_[static_cast<std::size_t>(target_pe)];
  if (waiter != sim::kNoPid) ctx_.engine().Wake(waiter, times.arrival);
  ctx_.SleepUntil(times.arrival);
  return old;
}

void Pe::WaitUntil(SymPtr<std::int64_t> ivar, Cmp cmp, std::int64_t value) {
  auto& waiter_slot = world_.waiters_[static_cast<std::size_t>(pe_)];
  PSTK_CHECK_MSG(waiter_slot == sim::kNoPid,
                 "PE " << pe_ << " already has a parked wait_until");
  for (;;) {
    const std::int64_t current = *Local(ivar);
    if (Compare(current, cmp, value)) {
      // Point-to-point synchronization: the waiter now happens-after every
      // write to the watched ivar.
      ctx_.engine().verify().OnShmemWaitSatisfied(world_.verify_job_, pe_,
                                                  ivar.offset);
      return;
    }
    waiter_slot = ctx_.pid();
    ctx_.Block("shmem wait_until");
    waiter_slot = sim::kNoPid;
  }
}

void Pe::BarrierAll() {
  Quiet();  // barrier implies completion of outstanding puts
  ctx_.engine().verify().OnShmemBarrier(world_.verify_job_, pe_,
                                        world_.npes_);
  const int tag =
      kCollTagBase | ((static_cast<int>(coll_seq_) & 0xFFF) << 12);
  ++coll_seq_;
  const std::uint8_t token = 1;
  for (int dist = 1, k = 0; dist < world_.npes_; dist <<= 1, ++k) {
    const int to = (pe_ + dist) % world_.npes_;
    const int from = (pe_ - dist + world_.npes_) % world_.npes_;
    endpoint().SendAsync(ctx_, to, tag + k,
                         buf::Bytes::FromVector(serde::Buffer{token}));
    (void)endpoint().Recv(ctx_, from, tag + k);
  }
}

void Pe::RawBroadcast(Bytes offset, Bytes bytes, int root) {
  const int tag =
      kCollTagBase | 0x800000 | ((static_cast<int>(coll_seq_) & 0xFFF) << 8);
  ++coll_seq_;
  const int n = world_.npes_;
  const int relative = (pe_ - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if (relative & mask) {
      const int src = (relative - mask + root) % n;
      net::Message m = endpoint().Recv(ctx_, src, tag);
      PSTK_CHECK(m.payload.size() == bytes);
      std::memcpy(HeapAt(pe_, offset), m.payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const int dst = (relative + mask + root) % n;
      const std::uint8_t* data = HeapAt(pe_, offset);
      endpoint().SendAsync(
          ctx_, dst, tag,
          buf::Bytes::FromVector(serde::Buffer(data, data + bytes)));
    }
    mask >>= 1;
  }
}

template <typename T>
void Pe::SumToAllImpl(Bytes dest_off, Bytes src_off, std::size_t count) {
  const int tag =
      kCollTagBase | 0x400000 | ((static_cast<int>(coll_seq_) & 0xFFF) << 8);
  ++coll_seq_;
  const Bytes bytes = count * sizeof(T);
  const int n = world_.npes_;

  if (pe_ == 0) {
    auto* dest = reinterpret_cast<T*>(HeapAt(pe_, dest_off));
    std::memcpy(dest, HeapAt(pe_, src_off), bytes);
    for (int from = 1; from < n; ++from) {
      net::Message m = endpoint().Recv(ctx_, net::kAnySource, tag);
      const T* incoming = reinterpret_cast<const T*>(m.payload.data());
      for (std::size_t i = 0; i < count; ++i) dest[i] += incoming[i];
    }
    ctx_.Compute(world_.cluster_.ComputeTime(
        static_cast<double>(count) * static_cast<double>(n - 1), 1));
    const auto* out = reinterpret_cast<const std::uint8_t*>(dest);
    for (int to = 1; to < n; ++to) {
      endpoint().SendAsync(
          ctx_, to, tag + 1,
          buf::Bytes::FromVector(serde::Buffer(out, out + bytes)));
    }
  } else {
    const std::uint8_t* src = HeapAt(pe_, src_off);
    endpoint().SendAsync(
        ctx_, 0, tag, buf::Bytes::FromVector(serde::Buffer(src, src + bytes)));
    net::Message m = endpoint().Recv(ctx_, 0, tag + 1);
    std::memcpy(HeapAt(pe_, dest_off), m.payload.data(), bytes);
  }
}

void Pe::SumToAll(SymPtr<std::int64_t> dest, SymPtr<std::int64_t> source,
                  std::size_t count) {
  SumToAllImpl<std::int64_t>(dest.offset, source.offset, count);
}

void Pe::SumToAll(SymPtr<double> dest, SymPtr<double> source,
                  std::size_t count) {
  SumToAllImpl<double>(dest.offset, source.offset, count);
}

}  // namespace pstk::shmem
