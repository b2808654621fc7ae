// MiniMPI: an MPI-like message-passing runtime on the simulated cluster.
//
// Scope mirrors what the paper's benchmarks use: SPMD launch, blocking and
// nonblocking point-to-point, the classic collective algorithms (binomial
// broadcast/reduce, recursive-doubling allreduce, ring allgather, pairwise
// alltoall, dissemination barrier), communicator split, and MPI-IO with
// collective reads whose count parameter is an `int` — faithfully
// reproducing the 2 GB-per-rank limitation that breaks the paper's
// AnswersCount runs below ~40 processes (§V-C).
//
// All communication runs over the cluster's default transport (FDR
// InfiniBand RDMA on Comet): "MPI uses InfiniBand for all types of
// communication between nodes" (§V-B1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "buf/bytes.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "common/status.h"
#include "common/units.h"
#include "net/network.h"
#include "serde/serde.h"
#include "sim/engine.h"

namespace pstk::mpi {

struct MpiOptions {
  /// mpirun/srun launch cost before ranks enter main (excluded from
  /// microbenchmark timings, included in job makespans).
  SimTime startup_cost = Millis(800);
  Bytes eager_threshold = 64 * kKiB;
  /// Override the cluster's default transport (tests use this).
  std::optional<net::TransportParams> transport;
  /// Explicit rank->node placement (size must equal nranks). When empty,
  /// ranks are block-placed `ranks_per_node` to a node starting at node 0.
  /// The scheduler uses this to land gang jobs on whatever nodes it
  /// allocated.
  std::vector<int> placement;
  /// Prefix for spawned process names; concurrent jobs under pstk::sched
  /// use it to keep traces distinguishable.
  std::string name = "mpi";
};

class World;

/// Nonblocking operation handle.
class Request {
 public:
  Request() = default;

 private:
  friend class Comm;
  enum class Kind : std::uint8_t { kNone, kSend, kRecv };
  Kind kind = Kind::kNone;
  int peer = 0;
  int tag = 0;
  void* buffer = nullptr;
  Bytes max_bytes = 0;
  Bytes received = 0;
  bool complete = false;
};

/// Reduction operators (element-wise).
template <typename T>
struct OpSum {
  T operator()(const T& a, const T& b) const { return a + b; }
};
template <typename T>
struct OpMax {
  T operator()(const T& a, const T& b) const { return a < b ? b : a; }
};
template <typename T>
struct OpMin {
  T operator()(const T& a, const T& b) const { return b < a ? b : a; }
};

/// A communicator bound to one rank's process. Obtained from World (the
/// world communicator) or via Split.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] sim::Context& ctx() { return ctx_; }
  /// The cluster this job runs on and the node hosting this rank.
  [[nodiscard]] cluster::Cluster& cluster();
  [[nodiscard]] int node() const { return ctx_.node(); }

  // --- point to point ----------------------------------------------------

  /// Blocking send of raw bytes (eager below threshold, rendezvous above).
  void Send(const void* data, Bytes bytes, int dest, int tag);
  /// Blocking receive; returns number of bytes (must fit `max_bytes`).
  Bytes Recv(void* data, Bytes max_bytes, int source, int tag);

  template <typename T>
  void Send(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Send(data.data(), data.size_bytes(), dest, tag);
  }
  template <typename T>
  std::size_t Recv(std::span<T> data, int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Recv(data.data(), data.size_bytes(), source, tag) / sizeof(T);
  }

  /// Combined exchange (MPI_Sendrecv): the send is posted without
  /// blocking before the receive, so head-to-head exchanges that would
  /// deadlock as Send;Recv above the rendezvous threshold are safe.
  /// Returns the number of bytes received.
  Bytes Sendrecv(const void* send_data, Bytes send_bytes, int dest,
                 void* recv_data, Bytes recv_max, int source, int tag);

  /// Nonblocking send: buffers and returns immediately.
  Request Isend(const void* data, Bytes bytes, int dest, int tag);
  /// Nonblocking receive: completes in Wait/Waitall.
  Request Irecv(void* data, Bytes max_bytes, int source, int tag);
  void Wait(Request& request);
  void Waitall(std::span<Request> requests);

  /// True if a matching message has arrived (MPI_Iprobe).
  bool Iprobe(int source, int tag);

  // --- collectives ---------------------------------------------------------

  /// Dissemination barrier: ceil(log2 n) rounds.
  void Barrier();

  /// Binomial-tree broadcast of `bytes` from `root`.
  void Bcast(void* data, Bytes bytes, int root);

  /// Element-wise reduction to `root` (binomial tree). All ranks pass
  /// `data`; on the root, `out` receives the result (may alias data).
  template <typename T, typename Op = OpSum<T>>
  void Reduce(std::span<const T> data, std::span<T> out, int root,
              Op op = Op{});

  /// Allreduce via recursive doubling (with the standard non-power-of-two
  /// fold). Result in `out` on every rank. Every tree node is combined
  /// once, lower ranks first, and all ranks copy out the one result.
  template <typename T, typename Op = OpSum<T>>
  void Allreduce(std::span<const T> data, std::span<T> out, Op op = Op{});

  /// Linear gather of equal-size contributions to `root`.
  template <typename T>
  void Gather(std::span<const T> data, std::span<T> out, int root);

  /// Ring allgather.
  template <typename T>
  void Allgather(std::span<const T> data, std::span<T> out);

  /// Linear scatter of equal-size pieces from `root`.
  template <typename T>
  void Scatter(std::span<const T> data, std::span<T> out, int root);

  /// Pairwise-exchange alltoall of equal-size pieces.
  template <typename T>
  void Alltoall(std::span<const T> data, std::span<T> out);

  /// Split into sub-communicators by color (collective). Ranks with the
  /// same color land in one comm, ordered by key then rank.
  std::unique_ptr<Comm> Split(int color, int key);

  ~Comm();
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  /// Nonblocking receive requests posted but never completed via
  /// Wait/Waitall (the verify layer flags leaks at MPI_Finalize).
  [[nodiscard]] int outstanding_recv_requests() const {
    return outstanding_recvs_;
  }

 private:
  friend class World;
  Comm(World& world, sim::Context& ctx, int rank, int size, int comm_id,
       int verify_id, std::vector<int> group);

  /// Translate a comm-local rank to a world endpoint id.
  [[nodiscard]] int GlobalRank(int local) const;
  [[nodiscard]] net::Endpoint& endpoint();
  /// Tag for the next collective operation (per-comm lockstep sequence);
  /// `op` names the collective for the verify hub's call-order check.
  int NextCollTag(const char* op);
  /// Internal raw send/recv with explicit async choice (collectives use
  /// async sends to avoid rendezvous deadlocks on symmetric exchanges).
  void RawSend(int dest_local, int tag, const void* data, Bytes bytes,
               bool async);
  /// Async send with no payload, charged as `modeled_bytes`: for
  /// collectives whose data moves through World's shared state.
  void RawSendModeled(int dest_local, int tag, Bytes modeled_bytes);
  Bytes RawRecv(int src_local, int tag, void* data, Bytes max_bytes);
  /// Zero-copy receive: hands back the message payload itself (a refcount
  /// bump on the sender's buffer) instead of memcpy'ing into caller
  /// scratch. Checks the message's modeled size, so it also serves
  /// payload-free collective messages.
  buf::Bytes RawRecvBytes(int src_local, int tag, Bytes expected_bytes);
  /// Charge element-combining cost for reductions.
  void ChargeCombine(std::size_t elements);

  World& world_;
  sim::Context& ctx_;
  int rank_;  // local rank in this comm
  int size_;
  int comm_id_;    // collective tag field; split comms may share one
  int verify_id_;  // unique within the world; names the comm to verify
  std::vector<int> group_;  // local rank -> world rank
  std::uint32_t coll_seq_ = 0;
  int outstanding_recvs_ = 0;
};

/// The MPI job: spawns one simulated process per rank, block-placed
/// `ranks_per_node` to a node, and hands each a world Comm.
class World {
 public:
  using RankBody = std::function<void(Comm&)>;

  World(cluster::Cluster& cluster, int nranks, int ranks_per_node,
        MpiOptions options = {});

  /// Spawn all rank processes. The caller runs the engine.
  void SpawnRanks(RankBody body);

  /// Convenience: spawn + run the engine; returns the job makespan (launch
  /// to the last rank's exit), or an error on deadlock/abort.
  Result<SimTime> RunSpmd(RankBody body);

  /// Fires once, when the last rank leaves MPI_Finalize. Mid-run launchers
  /// (pstk::sched) use it instead of RunSpmd's engine-drained return.
  void OnAllRanksDone(std::function<void(SimTime)> callback) {
    on_done_ = std::move(callback);
  }

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] int ranks_per_node() const { return ranks_per_node_; }
  [[nodiscard]] int NodeOfRank(int rank) const {
    if (!options_.placement.empty()) return options_.placement[rank];
    return rank / ranks_per_node_;
  }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const MpiOptions& options() const { return options_; }
  [[nodiscard]] SimTime job_end_time() const { return job_end_; }

 private:
  friend class Comm;

  /// One collective call's state, shared by the ranks of its communicator
  /// from the first rank's entry until the last one leaves.
  struct Collective {
    explicit Collective(int ranks) : ranks_inside(ranks) {}
    Collective(const Collective&) = delete;
    Collective& operator=(const Collective&) = delete;
    virtual ~Collective() = default;
    int ranks_inside;
  };
  /// Allreduce's combine tree: each subtree's buffer, indexed by the
  /// subtree's lowest rank; a buffer is freed once folded into its
  /// sibling, so slot 0 ends up holding the result.
  template <typename T>
  struct AllreduceTree final : Collective {
    explicit AllreduceTree(int ranks)
        : Collective(ranks), subtrees(static_cast<std::size_t>(ranks)) {}
    std::vector<std::optional<std::vector<T>>> subtrees;
  };

  /// The state of collective `seq` on communicator `comm` (a verify id),
  /// made by the first rank to enter it.
  template <typename State>
  State& JoinCollective(int comm, std::uint32_t seq, int ranks);
  /// The last rank to leave frees the state.
  void LeaveCollective(int comm, std::uint32_t seq);

  cluster::Cluster& cluster_;
  MpiOptions options_;
  int nranks_;
  int ranks_per_node_;
  int verify_job_;  // this job's number on the engine's verify hub
  std::unique_ptr<net::Network> network_;
  // Verify ids of split comms. Every member of a new comm looks up the
  // same key: (parent's verify id, the split's collective number on the
  // parent, color). The world comm is 0.
  std::map<std::tuple<int, std::uint32_t, int>, int> split_verify_ids_;
  int next_verify_id_ = 1;
  // Collectives in flight, by (comm verify id, collective number). A rank
  // killed mid-call leaves its entry behind; it dies with the World.
  std::map<std::pair<int, std::uint32_t>, std::unique_ptr<Collective>>
      collectives_;
  SimTime job_end_ = 0;
  int ranks_done_ = 0;
  std::function<void(SimTime)> on_done_;
};

/// MPI-IO over node-local scratch replicas (the paper's setup: the input
/// file is replicated to every node's local scratch).
///
/// Offsets and counts are in *modeled* (logical) bytes. The count
/// parameter is a wide integer so callers can *express* per-rank reads
/// above 2 GB, but — exactly like MPI_File_read_at_all, whose count of
/// MPI_BYTE elements is a C `int` — any count above INT_MAX fails with a
/// structured diagnostic (and a verify-hub finding when --verify is on),
/// reproducing the paper's 2 GB-per-rank limitation (§V-C, Fig. 4).
class File {
 public:
  /// Collective open: every rank checks its node-local replica.
  static Result<File> OpenAll(Comm& comm, const std::string& path);

  /// Modeled (logical) file size in bytes.
  [[nodiscard]] Bytes size() const { return modeled_size_; }

  /// Collective read: each rank reads `count` modeled bytes at
  /// `modeled_offset` from its node-local replica. Returns the actual
  /// (scaled-down staged) bytes backing that logical range.
  Result<std::string> ReadAtAll(Comm& comm, Bytes modeled_offset,
                                std::int64_t count);

  /// Independent (non-collective) read, same coordinates.
  Result<std::string> ReadAt(Comm& comm, Bytes modeled_offset,
                             std::int64_t count);

  /// Collective read adjusted to whole text records: the returned data
  /// contains exactly the lines *starting* inside the logical range
  /// [modeled_offset, modeled_offset + count) — the standard convention
  /// for parallel text processing (each rank skips its partial first line
  /// and reads past its end to finish the last). Ranges that exactly tile
  /// the file yield every line exactly once.
  Result<std::string> ReadLinesAtAll(Comm& comm, Bytes modeled_offset,
                                     std::int64_t count);

 private:
  File(std::string path, Bytes modeled_size, Bytes actual_size)
      : path_(std::move(path)),
        modeled_size_(modeled_size),
        actual_size_(actual_size) {}

  Result<std::string> ReadRange(Comm& comm, Bytes modeled_offset,
                                std::int64_t count);

  std::string path_;
  Bytes modeled_size_;
  Bytes actual_size_;
};

// ===========================================================================
// Template implementations
// ===========================================================================

template <typename State>
State& World::JoinCollective(int comm, std::uint32_t seq, int ranks) {
  std::unique_ptr<Collective>& entry = collectives_[{comm, seq}];
  if (entry == nullptr) entry = std::make_unique<State>(ranks);
  auto* state = dynamic_cast<State*>(entry.get());
  PSTK_CHECK_MSG(state != nullptr, "collective " << seq << " on comm " << comm
                                                 << " entered with another "
                                                    "element type");
  return *state;
}

template <typename T, typename Op>
void Comm::Reduce(std::span<const T> data, std::span<T> out, int root,
                  Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag = NextCollTag("reduce");
  const int n = size_;
  const int relative = (rank_ - root + n) % n;
  std::vector<T> accum(data.begin(), data.end());

  // Binomial tree: children push partial results toward the (virtual) root.
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < n) {
        const buf::Bytes incoming = RawRecvBytes((src_rel + root) % n, tag,
                                                 accum.size() * sizeof(T));
        const T* in = reinterpret_cast<const T*>(incoming.data());
        for (std::size_t i = 0; i < accum.size(); ++i) {
          accum[i] = op(accum[i], in[i]);
        }
        ChargeCombine(accum.size());
      }
    } else {
      const int dst_rel = relative & ~mask;
      RawSend((dst_rel + root) % n, tag, accum.data(),
              accum.size() * sizeof(T), /*async=*/false);
      break;
    }
  }
  if (rank_ == root && !out.empty()) {
    std::memcpy(out.data(), accum.data(), accum.size() * sizeof(T));
  }
}

template <typename T, typename Op>
void Comm::Allreduce(std::span<const T> data, std::span<T> out, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint32_t seq = coll_seq_;
  const int tag = NextCollTag("allreduce");
  const int n = size_;
  const Bytes bytes = data.size_bytes();
  // The ranks share one combine tree: both partners of a hop would combine
  // the same two operands, so the first past its receive does it for both.
  // Messages keep their tags, order and modeled size but carry no data.
  auto& tree = world_.JoinCollective<World::AllreduceTree<T>>(verify_id_,
                                                              seq, n);
  tree.subtrees[rank_].emplace(data.begin(), data.end());
  auto combine = [&](int low, int high) {
    std::optional<std::vector<T>>& upper = tree.subtrees[high];
    if (upper.has_value()) {
      PSTK_CHECK(tree.subtrees[low].has_value());
      std::vector<T>& lower = *tree.subtrees[low];
      const std::vector<T>& higher = *upper;
      PSTK_CHECK(lower.size() == higher.size());
      for (std::size_t i = 0; i < lower.size(); ++i) {
        lower[i] = op(lower[i], higher[i]);
      }
      upper.reset();
    }
    ChargeCombine(data.size());
  };

  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;

  // Fold the surplus ranks into the power-of-two set.
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      RawSendModeled(rank_ + 1, tag, bytes);
      newrank = -1;
    } else {
      RawRecvBytes(rank_ - 1, tag, bytes);
      combine(rank_ - 1, rank_);
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }

  // The rank that takes part in the hops for `nr`, and the slot holding
  // the buffer of the subtree that `nr` heads.
  auto real_rank = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
  auto slot = [&](int nr) { return nr < rem ? nr * 2 : nr + rem; };

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner = real_rank(newrank ^ mask);
      RawSendModeled(partner, tag, bytes);
      RawRecvBytes(partner, tag, bytes);
      const int base = newrank & ~(2 * mask - 1);
      combine(slot(base), slot(base + mask));
    }
  }

  // Unfold: folded ranks wait for the final result.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      RawRecvBytes(rank_ + 1, tag, bytes);
    } else {
      RawSendModeled(rank_ - 1, tag, bytes);
    }
  }
  PSTK_CHECK(tree.subtrees[0].has_value());
  std::copy(tree.subtrees[0]->begin(), tree.subtrees[0]->end(), out.begin());
  world_.LeaveCollective(verify_id_, seq);
}

template <typename T>
void Comm::Gather(std::span<const T> data, std::span<T> out, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag = NextCollTag("gather");
  const Bytes bytes = data.size_bytes();
  if (rank_ == root) {
    std::memcpy(out.data() + static_cast<std::size_t>(rank_) * data.size(),
                data.data(), bytes);
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      RawRecv(r, tag,
              out.data() + static_cast<std::size_t>(r) * data.size(), bytes);
    }
  } else {
    RawSend(root, tag, data.data(), bytes, /*async=*/false);
  }
}

template <typename T>
void Comm::Allgather(std::span<const T> data, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag = NextCollTag("allgather");
  const std::size_t piece = data.size();
  const Bytes bytes = data.size_bytes();
  std::memcpy(out.data() + static_cast<std::size_t>(rank_) * piece,
              data.data(), bytes);
  const int left = (rank_ - 1 + size_) % size_;
  const int right = (rank_ + 1) % size_;
  // Ring: in step s, pass along the block originally owned by rank-s.
  for (int s = 0; s < size_ - 1; ++s) {
    const int send_block = (rank_ - s + size_) % size_;
    const int recv_block = (rank_ - s - 1 + size_) % size_;
    RawSend(right, tag + s, out.data() + send_block * piece, bytes,
            /*async=*/true);
    RawRecv(left, tag + s, out.data() + recv_block * piece, bytes);
  }
}

template <typename T>
void Comm::Scatter(std::span<const T> data, std::span<T> out, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag = NextCollTag("scatter");
  const std::size_t piece = out.size();
  if (rank_ == root) {
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      RawSend(r, tag, data.data() + static_cast<std::size_t>(r) * piece,
              piece * sizeof(T), /*async=*/true);
    }
    std::memcpy(out.data(),
                data.data() + static_cast<std::size_t>(root) * piece,
                piece * sizeof(T));
  } else {
    RawRecv(root, tag, out.data(), piece * sizeof(T));
  }
}

template <typename T>
void Comm::Alltoall(std::span<const T> data, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag = NextCollTag("alltoall");
  const std::size_t piece = data.size() / static_cast<std::size_t>(size_);
  const Bytes bytes = piece * sizeof(T);
  std::memcpy(out.data() + static_cast<std::size_t>(rank_) * piece,
              data.data() + static_cast<std::size_t>(rank_) * piece, bytes);
  for (int s = 1; s < size_; ++s) {
    const int dst = (rank_ + s) % size_;
    const int src = (rank_ - s + size_) % size_;
    RawSend(dst, tag + s, data.data() + static_cast<std::size_t>(dst) * piece,
            bytes, /*async=*/true);
    RawRecv(src, tag + s, out.data() + static_cast<std::size_t>(src) * piece,
            bytes);
  }
}

}  // namespace pstk::mpi
