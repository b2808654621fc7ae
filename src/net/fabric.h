// Interconnect cost models.
//
// A Fabric owns the per-node NIC timelines of a cluster. Messages can be
// sent over different *transports* (protocol stacks) that share those NICs:
// Comet exposes the same FDR InfiniBand port as native verbs (RDMA), TCP
// over IPoIB, and the software stacks also support plain 10 GbE. The
// transport determines latency, effective bandwidth, and — crucially for
// the paper's Spark-vs-MPI story — the per-message/per-byte *CPU* cost of
// the protocol stack (high for sockets, near-zero for RDMA offload).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/obs.h"
#include "sim/timeline.h"

namespace pstk::net {

struct TransportParams {
  std::string name;
  SimTime base_latency = Micros(50);  // one-way wire+stack latency
  Rate bandwidth = Gbps(10);          // effective point-to-point bandwidth
  SimTime per_message_cpu = Micros(20);  // sender/receiver syscall+interrupt
  SimTime per_byte_cpu = 0;           // protocol copies (TCP) per byte
  bool rdma = false;                  // supports one-sided, target CPU idle

  /// Conventional 10 GbE with kernel TCP (Hadoop/Spark default transport).
  static TransportParams Ethernet10G();
  /// TCP over FDR InfiniBand: IB bandwidth, but socket stack costs remain.
  static TransportParams IPoIB();
  /// Native FDR InfiniBand verbs: 56 Gbit/s, ~1.5 us latency, HW offload.
  static TransportParams RdmaFdr();
  /// Intra-node shared memory (used automatically when src == dst).
  static TransportParams SharedMemory();
};

/// Completion times of one transfer, all in virtual seconds.
struct TransferTimes {
  SimTime sender_nic_done;   // sender's NIC finished pushing bytes
  SimTime arrival;           // last byte available at the receiver
  SimTime sender_cpu = 0;    // CPU seconds the *sender* must charge
  SimTime receiver_cpu = 0;  // CPU seconds the *receiver* must charge
};

/// Per-node NIC occupancy plus transport cost arithmetic.
class Fabric {
 public:
  Fabric(std::size_t nodes, TransportParams default_transport);

  /// Compute (and reserve NIC time for) a transfer of `bytes` from
  /// `src_node` to `dst_node`, with the sender ready at `t`.
  TransferTimes Transfer(int src_node, int dst_node, Bytes bytes, SimTime t);
  TransferTimes Transfer(const TransportParams& transport, int src_node,
                         int dst_node, Bytes bytes, SimTime t);

  /// One-sided RDMA write/get: no receiver CPU, no receiver process needed.
  /// Falls back to two-sided costs when the transport lacks RDMA.
  TransferTimes RdmaWrite(int src_node, int dst_node, Bytes bytes, SimTime t);
  TransferTimes RdmaRead(int src_node, int dst_node, Bytes bytes, SimTime t);

  [[nodiscard]] const TransportParams& default_transport() const {
    return default_;
  }
  [[nodiscard]] std::size_t nodes() const { return tx_.size(); }

  /// NIC utilization introspection (for reports and tests).
  [[nodiscard]] SimTime tx_busy(int node) const { return tx_[node].busy_time(); }
  [[nodiscard]] SimTime rx_busy(int node) const { return rx_[node].busy_time(); }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] Bytes bytes_sent() const { return bytes_; }

  /// Publish per-transfer metrics (message/byte counters, message-size and
  /// sender-CPU histograms, scoped `net.<transport>.*`) into `registry`.
  /// Optional: a detached fabric (nullptr) just skips publication.
  void AttachObs(obs::Registry* registry);

 private:
  TransportParams default_;
  std::vector<sim::Timeline> tx_;
  std::vector<sim::Timeline> rx_;
  std::uint64_t messages_ = 0;
  Bytes bytes_ = 0;

  obs::Registry* obs_ = nullptr;
  obs::TagId tag_messages_ = obs::kNoTag;
  obs::TagId tag_bytes_ = obs::kNoTag;
  obs::TagId tag_msg_size_ = obs::kNoTag;
  obs::TagId tag_sender_cpu_ = obs::kNoTag;
};

}  // namespace pstk::net
