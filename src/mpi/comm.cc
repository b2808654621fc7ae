#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "mpi/mpi.h"

namespace pstk::mpi {

namespace {
// Collective tags live far above user tag space.
constexpr int kCollTagBase = 0x40000000;
}  // namespace

Comm::Comm(World& world, sim::Context& ctx, int rank, int size, int comm_id,
           int verify_id, std::vector<int> group)
    : world_(world),
      ctx_(ctx),
      rank_(rank),
      size_(size),
      comm_id_(comm_id),
      verify_id_(verify_id),
      group_(std::move(group)) {
  PSTK_CHECK_MSG(rank_ >= 0 && rank_ < size_,
                 "rank " << rank_ << " size " << size_ << " comm " << comm_id_);
  PSTK_CHECK(static_cast<int>(group_.size()) == size_);
  ctx_.engine().verify().OnMpiCommCreated(world_.verify_job_, verify_id_,
                                          group_[rank_]);
}

Comm::~Comm() {
  ctx_.engine().verify().OnMpiCommDestroyed(world_.verify_job_, verify_id_,
                                            group_[rank_]);
}

int Comm::GlobalRank(int local) const {
  PSTK_CHECK_MSG(local >= 0 && local < size_, "bad rank " << local);
  return group_[local];
}

net::Endpoint& Comm::endpoint() {
  return world_.network_->endpoint(group_[rank_]);
}

cluster::Cluster& Comm::cluster() { return world_.cluster_; }

int Comm::NextCollTag(const char* op) {
  ctx_.engine().verify().OnMpiCollective(world_.verify_job_, verify_id_,
                                         group_[rank_], op, coll_seq_,
                                         ctx_.now());
  // 256 comms x 256 in-flight collectives x 4096 sub-tags.
  const int tag = kCollTagBase | ((comm_id_ & 0xFF) << 20) |
                  ((static_cast<int>(coll_seq_) & 0xFF) << 12);
  ++coll_seq_;
  return tag;
}

void Comm::ChargeCombine(std::size_t elements) {
  // One flop per element, single-threaded.
  ctx_.Compute(world_.cluster_.ComputeTime(static_cast<double>(elements), 1));
}

void Comm::RawSend(int dest_local, int tag, const void* data, Bytes bytes,
                   bool async) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  auto payload = buf::Bytes::FromVector(serde::Buffer(p, p + bytes));
  if (async) {
    endpoint().SendAsync(ctx_, GlobalRank(dest_local), tag,
                         std::move(payload));
  } else {
    endpoint().Send(ctx_, GlobalRank(dest_local), tag, std::move(payload));
  }
}

void Comm::RawSendModeled(int dest_local, int tag, Bytes modeled_bytes) {
  endpoint().SendAsync(ctx_, GlobalRank(dest_local), tag, buf::Bytes(),
                       modeled_bytes);
}

Bytes Comm::RawRecv(int src_local, int tag, void* data, Bytes max_bytes) {
  const int src = src_local < 0 ? net::kAnySource : GlobalRank(src_local);
  net::Message m = endpoint().Recv(ctx_, src, tag);
  if (m.payload.size() > max_bytes) {
    verify::Hub& hub = ctx_.engine().verify();
    if (hub.active()) {
      // MPI_ERR_TRUNCATE semantics: report, deliver the prefix, continue.
      hub.OnMpiTruncation(group_[rank_], m.src, m.tag, m.payload.size(),
                          max_bytes, ctx_.now());
      std::memcpy(data, m.payload.data(), max_bytes);
      return max_bytes;
    }
    PSTK_CHECK_MSG(false, "message truncation: got "
                              << m.payload.size() << " bytes, buffer "
                              << max_bytes);
  }
  // A mismatched collective can deliver a payload-free message sent by
  // RawSendModeled here: there is nothing to copy, and its null data()
  // must not reach memcpy.
  if (!m.payload.empty()) {
    std::memcpy(data, m.payload.data(), m.payload.size());
  }
  return m.payload.size();
}

buf::Bytes Comm::RawRecvBytes(int src_local, int tag, Bytes expected_bytes) {
  const int src = src_local < 0 ? net::kAnySource : GlobalRank(src_local);
  net::Message m = endpoint().Recv(ctx_, src, tag);
  PSTK_CHECK_MSG(m.size == expected_bytes, "collective size mismatch: got "
                                               << m.size << " bytes, expected "
                                               << expected_bytes);
  return std::move(m.payload);
}

void Comm::Send(const void* data, Bytes bytes, int dest, int tag) {
  PSTK_CHECK_MSG(tag >= 0 && tag < kCollTagBase, "user tag out of range");
  RawSend(dest, tag, data, bytes, /*async=*/false);
}

Bytes Comm::Recv(void* data, Bytes max_bytes, int source, int tag) {
  return RawRecv(source, tag, data, max_bytes);
}

Bytes Comm::Sendrecv(const void* send_data, Bytes send_bytes, int dest,
                     void* recv_data, Bytes recv_max, int source, int tag) {
  PSTK_CHECK_MSG(tag >= 0 && tag < kCollTagBase, "user tag out of range");
  RawSend(dest, tag, send_data, send_bytes, /*async=*/true);
  return RawRecv(source, tag, recv_data, recv_max);
}

Request Comm::Isend(const void* data, Bytes bytes, int dest, int tag) {
  PSTK_CHECK_MSG(tag >= 0 && tag < kCollTagBase, "user tag out of range");
  RawSend(dest, tag, data, bytes, /*async=*/true);
  Request request;
  request.kind = Request::Kind::kSend;
  request.peer = dest;
  request.tag = tag;
  request.complete = true;  // buffered send: locally complete
  return request;
}

Request Comm::Irecv(void* data, Bytes max_bytes, int source, int tag) {
  Request request;
  request.kind = Request::Kind::kRecv;
  request.peer = source;
  request.tag = tag;
  request.buffer = data;
  request.max_bytes = max_bytes;
  ++outstanding_recvs_;
  return request;
}

void Comm::Wait(Request& request) {
  switch (request.kind) {
    case Request::Kind::kNone:
      break;
    case Request::Kind::kSend:
      request.complete = true;
      break;
    case Request::Kind::kRecv:
      if (!request.complete) {
        request.received =
            RawRecv(request.peer, request.tag, request.buffer,
                    request.max_bytes);
        request.complete = true;
        --outstanding_recvs_;
      }
      break;
  }
}

void Comm::Waitall(std::span<Request> requests) {
  for (Request& request : requests) Wait(request);
}

bool Comm::Iprobe(int source, int tag) {
  const int src = source < 0 ? net::kAnySource : GlobalRank(source);
  return endpoint().Probe(ctx_, src, tag);
}

void Comm::Barrier() {
  // Dissemination barrier: in round k, rank sends to (rank + 2^k) % n and
  // waits for a token from (rank - 2^k + n) % n.
  const int tag = NextCollTag("barrier");
  std::uint8_t token = 1;
  for (int k = 0, dist = 1; dist < size_; ++k, dist <<= 1) {
    const int to = (rank_ + dist) % size_;
    const int from = (rank_ - dist + size_) % size_;
    RawSend(to, tag + k, &token, sizeof(token), /*async=*/true);
    RawRecv(from, tag + k, &token, sizeof(token));
  }
}

void Comm::Bcast(void* data, Bytes bytes, int root) {
  const int tag = NextCollTag("bcast");
  const int n = size_;
  const int relative = (rank_ - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if (relative & mask) {
      const int src = (relative - mask + root) % n;
      RawRecv(src, tag, data, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const int dst = (relative + mask + root) % n;
      RawSend(dst, tag, data, bytes, /*async=*/false);
    }
    mask >>= 1;
  }
}

std::unique_ptr<Comm> Comm::Split(int color, int key) {
  // Collective: allgather (color, key) of every rank, then group locally.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  std::vector<Entry> mine{{color, key, rank_}};
  std::vector<Entry> all(static_cast<std::size_t>(size_));
  const std::uint32_t split_seq = coll_seq_;  // the allgather's number
  Allgather(std::span<const Entry>(mine), std::span<Entry>(all));

  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  std::vector<int> group;
  int my_new_rank = -1;
  for (const Entry& e : members) {
    if (e.rank == rank_) my_new_rank = static_cast<int>(group.size());
    group.push_back(GlobalRank(e.rank));
  }
  PSTK_CHECK(my_new_rank >= 0);

  // Deterministic comm id shared by all members: derive from the colors.
  // All ranks compute the same sequence of ids because `all` is identical.
  int comm_id = comm_id_ * 31 + color + 1;
  comm_id &= 0xFF;
  // Two splits can share that tag field; the verify id tells them apart.
  const auto [it, inserted] = world_.split_verify_ids_.try_emplace(
      {verify_id_, split_seq, color}, world_.next_verify_id_);
  if (inserted) ++world_.next_verify_id_;
  const int new_size = static_cast<int>(group.size());
  return std::unique_ptr<Comm>(new Comm(world_, ctx_, my_new_rank, new_size,
                                        comm_id, it->second,
                                        std::move(group)));
}

}  // namespace pstk::mpi
