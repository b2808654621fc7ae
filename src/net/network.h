// Message transport over a Fabric: endpoints with (source, tag) matching,
// eager/rendezvous protocols, and virtual-time-correct blocking receive.
//
// This is the substrate both MiniMPI (ranks) and MiniSpark/MiniMR
// (driver/executor RPC) are built on.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buf/bytes.h"
#include "common/check.h"
#include "common/units.h"
#include "net/fabric.h"
#include "sim/engine.h"

namespace pstk::net {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int src = 0;           // sending endpoint id
  int tag = 0;
  std::uint64_t seq = 0; // global send order (FIFO tie-break)
  Bytes size = 0;        // modeled size (cost model), >= payload.size()
  buf::Bytes payload;    // actual data — refcounted, shared with the sender
  SimTime arrival = 0;   // virtual time the last byte is available
  sim::Pid sender_pid = sim::kNoPid;  // set when the sender blocks (rendezvous)
  bool wants_completion_wake = false;
};

class Network;

/// One communication endpoint (an MPI rank, a Spark executor, ...). An
/// endpoint is used by exactly one simulated process at a time.
class Endpoint {
 public:
  /// Two-sided send. For modeled sizes <= eager threshold the sender only
  /// pays CPU + NIC occupancy and continues; larger messages use a
  /// rendezvous: the sender blocks until the receiver consumes the message.
  /// `modeled_size` defaults to the payload size. Transfer cost is charged
  /// on the modeled bytes; the simulator only passes a refcount.
  void Send(sim::Context& ctx, int dst, int tag, buf::Bytes payload,
            Bytes modeled_size = 0);

  /// Fire-and-forget send (never blocks past NIC occupancy), regardless of
  /// size; used for nonblocking MPI sends and RPC-style control messages.
  void SendAsync(sim::Context& ctx, int dst, int tag, buf::Bytes payload,
                 Bytes modeled_size = 0);

  /// Blocking receive with matching; kAnySource / kAnyTag wildcard.
  Message Recv(sim::Context& ctx, int src = kAnySource, int tag = kAnyTag);

  /// Non-blocking probe: returns a matching message if one has fully
  /// arrived by the caller's current clock.
  std::optional<Message> TryRecv(sim::Context& ctx, int src = kAnySource,
                                 int tag = kAnyTag);

  /// Blocking receive that gives up at virtual time `deadline` (used by
  /// coordinators that must detect dead peers).
  std::optional<Message> RecvWithTimeout(sim::Context& ctx, SimTime deadline,
                                         int src = kAnySource,
                                         int tag = kAnyTag);

  /// True if a matching message has arrived by the caller's clock.
  [[nodiscard]] bool Probe(sim::Context& ctx, int src = kAnySource,
                           int tag = kAnyTag) const;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] std::size_t inbox_size() const { return inbox_.size(); }

  /// (src, tag, modeled size) of every message still in the inbox, in
  /// send order — used by the verify layer to flag unmatched sends when
  /// the owner exits.
  struct PendingInfo {
    int src;
    int tag;
    Bytes bytes;
  };
  [[nodiscard]] std::vector<PendingInfo> Pending() const;

  /// The process last seen using this endpoint (deadlock holder edges).
  [[nodiscard]] sim::Pid user_pid() const { return user_pid_; }

  /// Register the calling process as this endpoint's owner (runtimes call
  /// this at init so wait-for edges resolve even before any traffic).
  void Bind(sim::Context& ctx) { user_pid_ = ctx.pid(); }

  /// Clear the parked-receiver marker a killed owner left behind
  /// (ProcessKilled unwinds past Recv's reset). Runtimes that hand a dead
  /// process's endpoint to a replacement (Spark executor reacquisition)
  /// must call this before the replacement receives.
  void Reap();

 private:
  friend class Network;
  Endpoint(Network& network, int id, int node)
      : network_(network), id_(id), node_(node) {}

  void Deposit(Message message);
  [[nodiscard]] std::size_t FindMatch(int src, int tag) const;

  Network& network_;
  int id_;
  int node_;
  std::deque<Message> inbox_;  // delivery order: (arrival, seq)
  sim::Pid waiter_ = sim::kNoPid;  // process parked in Recv, if any
  sim::Pid user_pid_ = sim::kNoPid;  // last process to use this endpoint
};

/// Factory/owner of endpoints over one Fabric.
class Network {
 public:
  /// `eager_threshold`: messages with modeled size above it rendezvous.
  Network(sim::Engine& engine, std::shared_ptr<Fabric> fabric,
          Bytes eager_threshold = 64 * kKiB);

  /// Create endpoint with the given id (must be unique) living on `node`.
  Endpoint& CreateEndpoint(int id, int node);
  [[nodiscard]] Endpoint& endpoint(int id);
  [[nodiscard]] bool HasEndpoint(int id) const;

  [[nodiscard]] Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] Bytes eager_threshold() const { return eager_threshold_; }

 private:
  friend class Endpoint;

  sim::Engine& engine_;
  std::shared_ptr<Fabric> fabric_;
  Bytes eager_threshold_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // indexed by id
  std::uint64_t seq_ = 0;

  // Send-protocol counters, published on the engine's obs bus.
  obs::TagId tag_eager_ = obs::kNoTag;
  obs::TagId tag_rendezvous_ = obs::kNoTag;
  obs::TagId tag_async_ = obs::kNoTag;
};

}  // namespace pstk::net
