#include "net/fabric.h"

#include <algorithm>

#include "common/check.h"

namespace pstk::net {

TransportParams TransportParams::Ethernet10G() {
  TransportParams p;
  p.name = "ethernet-10g";
  p.base_latency = Micros(50);
  p.bandwidth = Gbps(9.4);          // TCP goodput on 10 GbE
  p.per_message_cpu = Micros(25);   // syscalls, interrupts, kernel path
  p.per_byte_cpu = 1.0 / GBps(4);   // one memcpy through the socket stack
  p.rdma = false;
  return p;
}

TransportParams TransportParams::IPoIB() {
  TransportParams p;
  p.name = "ipoib";
  p.base_latency = Micros(20);
  // FDR is 56 Gbit/s raw, but TCP over IPoIB historically achieves a
  // fraction of it (kernel bound); ~22 Gbit/s goodput.
  p.bandwidth = Gbps(22);
  p.per_message_cpu = Micros(20);
  p.per_byte_cpu = 1.0 / GBps(4);
  p.rdma = false;
  return p;
}

TransportParams TransportParams::RdmaFdr() {
  TransportParams p;
  p.name = "rdma-fdr";
  p.base_latency = Micros(1.5);
  p.bandwidth = Gbps(54);           // FDR 56 Gbit/s minus encoding overhead
  p.per_message_cpu = Micros(0.3);  // doorbell write; NIC does the rest
  p.per_byte_cpu = 0;               // zero-copy
  p.rdma = true;
  return p;
}

TransportParams TransportParams::SharedMemory() {
  TransportParams p;
  p.name = "shm";
  p.base_latency = Micros(0.4);
  p.bandwidth = GBps(8);            // cross-socket memcpy
  p.per_message_cpu = Micros(0.2);
  p.per_byte_cpu = 0;
  p.rdma = true;                    // loads/stores are one-sided
  return p;
}

Fabric::Fabric(std::size_t nodes, TransportParams default_transport)
    : default_(std::move(default_transport)), tx_(nodes), rx_(nodes) {
  PSTK_CHECK_MSG(nodes >= 1, "fabric needs at least one node");
}

void Fabric::AttachObs(obs::Registry* registry) {
  obs_ = registry;
  if (obs_ == nullptr) return;
  const std::string scope = "net." + default_.name;
  tag_messages_ = obs_->Intern(scope + ".messages");
  tag_bytes_ = obs_->Intern(scope + ".bytes");
  tag_msg_size_ = obs_->Intern(scope + ".msg_bytes");
  tag_sender_cpu_ = obs_->Intern(scope + ".sender_cpu");
}

TransferTimes Fabric::Transfer(int src_node, int dst_node, Bytes bytes,
                               SimTime t) {
  return Transfer(default_, src_node, dst_node, bytes, t);
}

TransferTimes Fabric::Transfer(const TransportParams& transport, int src_node,
                               int dst_node, Bytes bytes, SimTime t) {
  PSTK_CHECK_MSG(src_node >= 0 && src_node < static_cast<int>(tx_.size()),
                 "bad src node " << src_node);
  PSTK_CHECK_MSG(dst_node >= 0 && dst_node < static_cast<int>(rx_.size()),
                 "bad dst node " << dst_node);
  ++messages_;
  bytes_ += bytes;
  if (obs_ != nullptr) {
    obs_->Add(tag_messages_);
    obs_->Add(tag_bytes_, bytes);
    obs_->Observe(tag_msg_size_, static_cast<double>(bytes));
  }

  TransferTimes times;
  const auto fbytes = static_cast<double>(bytes);

  if (src_node == dst_node) {
    // Intra-node: shared-memory copy, no NIC involvement.
    const TransportParams shm = TransportParams::SharedMemory();
    const SimTime copy = fbytes / shm.bandwidth;
    times.sender_cpu = shm.per_message_cpu + copy;
    times.sender_nic_done = t + shm.base_latency + copy;
    times.arrival = times.sender_nic_done;
    times.receiver_cpu = shm.per_message_cpu;
    if (obs_ != nullptr) obs_->Observe(tag_sender_cpu_, times.sender_cpu);
    return times;
  }

  const SimTime wire = fbytes / transport.bandwidth;
  times.sender_cpu =
      transport.per_message_cpu + fbytes * transport.per_byte_cpu;
  times.receiver_cpu = times.sender_cpu;  // symmetric stack cost

  // The sender's NIC serializes outgoing bytes; the wire adds latency; the
  // receiver's NIC serializes incoming bytes. Contention appears as queueing
  // on either timeline.
  const SimTime tx_done = tx_[src_node].Acquire(t + times.sender_cpu, wire);
  times.sender_nic_done = tx_done;
  const SimTime rx_ready = tx_done + transport.base_latency;
  times.arrival = rx_[dst_node].Acquire(rx_ready - wire, wire);
  // rx Acquire starts no earlier than (first byte at receiver); if the rx
  // NIC is free the arrival equals tx_done + latency.
  times.arrival = std::max(times.arrival, rx_ready);
  if (obs_ != nullptr) obs_->Observe(tag_sender_cpu_, times.sender_cpu);
  return times;
}

TransferTimes Fabric::RdmaWrite(int src_node, int dst_node, Bytes bytes,
                                SimTime t) {
  if (!default_.rdma) {
    // Software emulation: a regular two-sided transfer.
    return Transfer(src_node, dst_node, bytes, t);
  }
  TransferTimes times = Transfer(default_, src_node, dst_node, bytes, t);
  times.receiver_cpu = 0;  // HW writes straight to registered memory
  return times;
}

TransferTimes Fabric::RdmaRead(int src_node, int dst_node, Bytes bytes,
                               SimTime t) {
  if (!default_.rdma) {
    TransferTimes times = Transfer(src_node, dst_node, bytes, t);
    times.arrival += default_.base_latency;  // extra request round-trip
    return times;
  }
  // One request packet out, data back; the request adds a round-trip hop.
  TransferTimes times =
      Transfer(default_, dst_node, src_node, bytes, t + default_.base_latency);
  times.receiver_cpu = 0;
  times.sender_cpu = default_.per_message_cpu;
  return times;
}

}  // namespace pstk::net
