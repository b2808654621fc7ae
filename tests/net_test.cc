#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fabric.h"
#include "net/network.h"
#include "sim/engine.h"

namespace pstk::net {
namespace {

buf::Bytes Payload(const std::string& s) {
  return buf::Bytes::FromVector(std::vector<std::uint8_t>(s.begin(), s.end()));
}

std::string AsString(const buf::Bytes& b) { return b.ToString(); }

// --------------------------------------------------------------------------
// Fabric cost model
// --------------------------------------------------------------------------

TEST(FabricTest, TransportPresetsOrdering) {
  const auto eth = TransportParams::Ethernet10G();
  const auto ipoib = TransportParams::IPoIB();
  const auto rdma = TransportParams::RdmaFdr();
  EXPECT_GT(eth.base_latency, ipoib.base_latency);
  EXPECT_GT(ipoib.base_latency, rdma.base_latency);
  EXPECT_LT(eth.bandwidth, ipoib.bandwidth);
  EXPECT_LT(ipoib.bandwidth, rdma.bandwidth);
  EXPECT_GT(eth.per_message_cpu, rdma.per_message_cpu);
  EXPECT_TRUE(rdma.rdma);
  EXPECT_FALSE(eth.rdma);
}

TEST(FabricTest, SmallMessageDominatedByLatency) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  const auto t = fabric.Transfer(0, 1, 8, 0.0);
  EXPECT_GT(t.arrival, Micros(1.0));
  EXPECT_LT(t.arrival, Micros(10.0));
}

TEST(FabricTest, LargeMessageDominatedByBandwidth) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  const Bytes size = 64 * kMiB;
  const auto t = fabric.Transfer(0, 1, size, 0.0);
  const double expected = static_cast<double>(size) / Gbps(54);
  EXPECT_NEAR(t.arrival, expected, expected * 0.2);
}

TEST(FabricTest, NicContentionSerializes) {
  Fabric fabric(3, TransportParams::RdmaFdr());
  const Bytes size = 64 * kMiB;
  // Two senders target the same receiver at the same instant: the second
  // transfer queues behind the first on the receiver's NIC.
  const auto a = fabric.Transfer(0, 2, size, 0.0);
  const auto b = fabric.Transfer(1, 2, size, 0.0);
  EXPECT_GT(b.arrival, a.arrival * 1.8);
}

TEST(FabricTest, IntraNodeBypassesNic) {
  Fabric fabric(2, TransportParams::Ethernet10G());
  const auto local = fabric.Transfer(0, 0, kMiB, 0.0);
  const auto remote = fabric.Transfer(0, 1, kMiB, 0.0);
  EXPECT_LT(local.arrival, remote.arrival);
  // Only the remote transfer consumes NIC time.
  const double wire = static_cast<double>(kMiB) / Gbps(9.4);
  EXPECT_NEAR(fabric.tx_busy(0), wire, wire * 0.01);
}

TEST(FabricTest, SocketsChargeMoreCpuThanRdma) {
  Fabric eth(2, TransportParams::Ethernet10G());
  Fabric ib(2, TransportParams::RdmaFdr());
  const auto t_eth = eth.Transfer(0, 1, kMiB, 0.0);
  const auto t_ib = ib.Transfer(0, 1, kMiB, 0.0);
  EXPECT_GT(t_eth.sender_cpu, 50 * t_ib.sender_cpu);
}

TEST(FabricTest, RdmaWriteHasNoReceiverCpu) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  const auto t = fabric.RdmaWrite(0, 1, kMiB, 0.0);
  EXPECT_DOUBLE_EQ(t.receiver_cpu, 0.0);
}

TEST(FabricTest, AccountsTraffic) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  fabric.Transfer(0, 1, 100, 0.0);
  fabric.Transfer(1, 0, 200, 0.0);
  EXPECT_EQ(fabric.messages_sent(), 2u);
  EXPECT_EQ(fabric.bytes_sent(), 300u);
}

// --------------------------------------------------------------------------
// Network / Endpoint
// --------------------------------------------------------------------------

struct NetFixture {
  sim::Engine engine;
  std::shared_ptr<Fabric> fabric =
      std::make_shared<Fabric>(4, TransportParams::RdmaFdr());
  Network network{engine, fabric};
};

TEST(NetworkTest, SendRecvDeliversPayload) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  std::string received;
  SimTime recv_time = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, 7, Payload("hello"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    Message m = b.Recv(ctx, 0, 7);
    received = AsString(m.payload);
    recv_time = ctx.now();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_EQ(received, "hello");
  EXPECT_GT(recv_time, 0.0);
}

TEST(NetworkTest, TagMatchingIsSelective) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  std::vector<std::string> order;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, /*tag=*/1, Payload("first"));
    a.Send(ctx, 1, /*tag=*/2, Payload("second"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    // Receive tag 2 first even though tag 1 arrived earlier.
    order.push_back(AsString(b.Recv(ctx, 0, 2).payload));
    order.push_back(AsString(b.Recv(ctx, 0, 1).payload));
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "second");
  EXPECT_EQ(order[1], "first");
}

TEST(NetworkTest, WildcardRecvTakesEarliestArrival) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& c = f.network.CreateEndpoint(1, 1);
  auto& b = f.network.CreateEndpoint(2, 2);
  std::vector<int> sources;
  f.engine.Spawn("s1", [&](sim::Context& ctx) {
    ctx.SleepUntil(1.0);
    a.Send(ctx, 2, 0, Payload("late"));
  });
  f.engine.Spawn("s2", [&](sim::Context& ctx) {
    c.Send(ctx, 2, 0, Payload("early"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    ctx.SleepUntil(5.0);  // both already arrived
    sources.push_back(b.Recv(ctx, kAnySource, kAnyTag).src);
    sources.push_back(b.Recv(ctx, kAnySource, kAnyTag).src);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], 1);  // "early" sender
  EXPECT_EQ(sources[1], 0);
}

TEST(NetworkTest, RecvBlocksUntilArrival) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime recv_time = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    ctx.SleepUntil(3.0);
    a.Send(ctx, 1, 0, Payload("x"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    b.Recv(ctx, 0, 0);
    recv_time = ctx.now();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_GE(recv_time, 3.0);
}

TEST(NetworkTest, EagerSendDoesNotWaitForReceiver) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime send_done = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, 0, Payload("small"));
    send_done = ctx.now();
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    ctx.SleepUntil(100.0);  // receiver is very late
    b.Recv(ctx, 0, 0);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_LT(send_done, 1.0);
}

TEST(NetworkTest, RendezvousSendWaitsForReceiver) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime send_done = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    // Above the 64 KiB eager threshold.
    a.Send(ctx, 1, 0,
           buf::Bytes::FromVector(std::vector<std::uint8_t>(2 * kMiB, 0xAB)));
    send_done = ctx.now();
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    ctx.SleepUntil(50.0);
    b.Recv(ctx, 0, 0);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_GE(send_done, 50.0);
}

TEST(NetworkTest, ModeledSizeOverridesPayloadSize) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime arrival_small = 0;
  SimTime arrival_big = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.SendAsync(ctx, 1, 1, Payload("x"));                     // 1 byte
    a.SendAsync(ctx, 1, 2, Payload("x"), /*modeled=*/kGiB);   // "1 GiB"
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    arrival_small = b.Recv(ctx, 0, 1).arrival;
    arrival_big = b.Recv(ctx, 0, 2).arrival;
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_GT(arrival_big, arrival_small + 0.1);  // ~0.16 s at 54 Gbit/s
}

TEST(NetworkTest, TryRecvAndProbe) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool empty_probe = true;
  bool later_probe = false;
  bool got = false;
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    empty_probe = b.Probe(ctx);
    ctx.SleepUntil(10.0);
    later_probe = b.Probe(ctx, 0, 5);
    got = b.TryRecv(ctx, 0, 5).has_value();
  });
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    ctx.SleepUntil(1.0);
    a.Send(ctx, 1, 5, Payload("y"));
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_FALSE(empty_probe);
  EXPECT_TRUE(later_probe);
  EXPECT_TRUE(got);
}

TEST(NetworkTest, ManyMessagesFifoPerPair) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  std::vector<std::string> order;
  const int n = 50;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    for (int i = 0; i < n; ++i) {
      a.Send(ctx, 1, 0, Payload(std::to_string(i)));
    }
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    for (int i = 0; i < n; ++i) {
      order.push_back(AsString(b.Recv(ctx, 0, 0).payload));
    }
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(order[i], std::to_string(i));
}

}  // namespace
}  // namespace pstk::net

namespace pstk::net {
namespace {

TEST(NetworkTest, RecvWithTimeoutReturnsMessage) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool got = false;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    ctx.SleepUntil(1.0);
    a.Send(ctx, 1, 0, Payload("hi"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    auto m = b.RecvWithTimeout(ctx, /*deadline=*/5.0);
    got = m.has_value();
    EXPECT_LT(ctx.now(), 2.0);  // woke on arrival, not at the deadline
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_TRUE(got);
}

TEST(NetworkTest, RecvWithTimeoutExpires) {
  NetFixture f;
  f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool got = true;
  SimTime when = 0;
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    auto m = b.RecvWithTimeout(ctx, 3.0);
    got = m.has_value();
    when = ctx.now();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_FALSE(got);
  EXPECT_DOUBLE_EQ(when, 3.0);
}

TEST(NetworkTest, RecvWithTimeoutIgnoresNonMatching) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool got = true;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, /*tag=*/7, Payload("wrong tag"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    auto m = b.RecvWithTimeout(ctx, 2.0, kAnySource, /*tag=*/9);
    got = m.has_value();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_FALSE(got);
}

// --------------------------------------------------------------------------
// Endpoint matching against a reference model
// --------------------------------------------------------------------------

// Every pick of TryRecv, Probe and RecvWithTimeout must be the message a
// plain reference picks: the least (arrival, seq) among the messages that
// match the filter, and only once it has arrived. All messages are
// deposited before the receiver starts. Shared-memory senders bypass the
// NIC queue that remote ones wait in, so arrival order differs from
// deposit order, and senders 1 and 2 run the same script on the
// receiver's node, so their messages tie on arrival.
TEST(NetworkTest, MatchingAgreesWithReferenceModel) {
  constexpr int kSenders = 6;
  constexpr int kPerSender = 50;
  constexpr int kTotal = kSenders * kPerSender;
  constexpr int kTags = 3;
  const int sender_node[kSenders + 1] = {-1, 0, 0, 0, 1, 2, 3};

  NetFixture f;
  auto& rx = f.network.CreateEndpoint(0, 0);
  int senders_done = 0;
  for (int s = 1; s <= kSenders; ++s) {
    auto& ep = f.network.CreateEndpoint(s, sender_node[s]);
    f.engine.Spawn("sender" + std::to_string(s), [&ep, &senders_done,
                                                 s](sim::Context& ctx) {
      Rng rng(s == 2 ? 1 : s);
      for (int i = 0; i < kPerSender; ++i) {
        ctx.SleepFor(rng.Uniform(0, Micros(50)));
        const int tag = static_cast<int>(rng.Below(kTags));
        const Bytes modeled = Bytes{1} << rng.Below(27);  // 1 B .. 64 MiB
        ep.SendAsync(ctx, 0, tag, Payload(std::to_string(s * 1000 + i)),
                     modeled);
      }
      ++senders_done;
    });
  }

  struct Pick {
    enum Kind { kTry, kProbe, kTimeout } kind;
    int src;
    int tag;
    SimTime before;
    SimTime deadline;
    SimTime after;
    int got;  // message id; -1 for none (Probe: 1 if it matched)
  };
  struct Received {
    int src;
    int tag;
    Bytes size;
    SimTime arrival;
    std::uint64_t seq;
  };
  std::vector<Pick> picks;
  std::map<int, Received> received;  // by message id
  SimTime drain_start = 0;
  // Pending() snapshots, keyed by how many picks preceded them.
  std::vector<std::pair<std::size_t, std::vector<Endpoint::PendingInfo>>>
      snapshots;

  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    while (senders_done < kSenders) ctx.SleepFor(Micros(100));
    drain_start = ctx.now();
    Rng rng(42);
    auto take = [&](const std::optional<Message>& m) {
      if (!m.has_value()) return -1;
      const int id = std::stoi(AsString(m->payload));
      received[id] = Received{m->src, m->tag, m->size, m->arrival, m->seq};
      return id;
    };
    for (int n = 0;
         n < 20000 && received.size() < static_cast<std::size_t>(kTotal);
         ++n) {
      if (n == 0 || n == 400) {
        snapshots.emplace_back(picks.size(), rx.Pending());
      }
      Pick p{};
      p.kind = static_cast<Pick::Kind>(rng.Below(3));
      p.src = rng.Bernoulli(0.3) ? kAnySource
                                 : 1 + static_cast<int>(rng.Below(kSenders));
      p.tag = rng.Bernoulli(0.3) ? kAnyTag : static_cast<int>(rng.Below(kTags));
      p.before = ctx.now();
      switch (p.kind) {
        case Pick::kTry:
          p.got = take(rx.TryRecv(ctx, p.src, p.tag));
          break;
        case Pick::kProbe:
          p.got = rx.Probe(ctx, p.src, p.tag) ? 1 : -1;
          break;
        case Pick::kTimeout:
          p.deadline = ctx.now() + rng.Uniform(0, Millis(5));
          p.got = take(rx.RecvWithTimeout(ctx, p.deadline, p.src, p.tag));
          break;
      }
      p.after = ctx.now();
      picks.push_back(p);
      if (rng.Bernoulli(0.1)) ctx.SleepFor(rng.Uniform(0, Millis(2)));
    }
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kTotal));

  // The scenario must exercise arrival ties and messages still in flight.
  std::map<SimTime, std::set<int>> senders_at;  // arrival -> sources
  int in_flight = 0;
  std::set<std::uint64_t> seqs;
  for (const auto& [id, m] : received) {
    senders_at[m.arrival].insert(m.src);
    in_flight += m.arrival > drain_start ? 1 : 0;
    seqs.insert(m.seq);
  }
  EXPECT_GT(std::count_if(senders_at.begin(), senders_at.end(),
                          [](const auto& e) { return e.second.size() > 1; }),
            0);
  EXPECT_GT(in_flight, 0);
  EXPECT_EQ(seqs.size(), received.size());

  const TransportParams& tp = f.fabric->default_transport();
  std::set<int> left;
  for (const auto& [id, m] : received) left.insert(id);
  auto reference = [&](int src, int tag) {
    int best = -1;
    for (int id : left) {
      const Received& m = received.at(id);
      if (src != kAnySource && m.src != src) continue;
      if (tag != kAnyTag && m.tag != tag) continue;
      const Received* b = best < 0 ? nullptr : &received.at(best);
      if (b == nullptr || m.arrival < b->arrival ||
          (m.arrival == b->arrival && m.seq < b->seq)) {
        best = id;
      }
    }
    return best;
  };
  auto snapshot = snapshots.begin();
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (snapshot != snapshots.end() && snapshot->first == i) {
      std::vector<int> by_seq(left.begin(), left.end());
      std::sort(by_seq.begin(), by_seq.end(), [&](int a, int b) {
        return received.at(a).seq < received.at(b).seq;
      });
      ASSERT_EQ(snapshot->second.size(), by_seq.size());
      for (std::size_t k = 0; k < by_seq.size(); ++k) {
        const Received& m = received.at(by_seq[k]);
        EXPECT_EQ(snapshot->second[k].src, m.src) << "pending #" << k;
        EXPECT_EQ(snapshot->second[k].tag, m.tag) << "pending #" << k;
        EXPECT_EQ(snapshot->second[k].bytes, m.size) << "pending #" << k;
      }
      ++snapshot;
    }
    const Pick& p = picks[i];
    const int ref = reference(p.src, p.tag);
    const SimTime ref_arrival = ref < 0 ? 0 : received.at(ref).arrival;
    SCOPED_TRACE("pick " + std::to_string(i) + " kind " +
                 std::to_string(p.kind) + " src " + std::to_string(p.src) +
                 " tag " + std::to_string(p.tag));
    switch (p.kind) {
      case Pick::kProbe:
        EXPECT_EQ(p.got == 1, ref >= 0 && ref_arrival <= p.before);
        EXPECT_EQ(p.after, p.before);
        continue;
      case Pick::kTry:
        EXPECT_EQ(p.got, ref >= 0 && ref_arrival <= p.before ? ref : -1);
        break;
      case Pick::kTimeout: {
        const SimTime limit = std::max(p.before, p.deadline);
        EXPECT_EQ(p.got, ref >= 0 && ref_arrival <= limit ? ref : -1);
        if (p.got < 0) {
          EXPECT_DOUBLE_EQ(p.after, limit);
        }
        break;
      }
    }
    if (p.got < 0) continue;
    // A receive wakes exactly at the arrival it waited for, then pays the
    // receiver's per-message cost.
    const Received& m = received.at(p.got);
    EXPECT_DOUBLE_EQ(p.after,
                     std::max(p.before, m.arrival) + tp.per_message_cpu +
                         static_cast<double>(m.size) * tp.per_byte_cpu);
    left.erase(p.got);
  }
  EXPECT_TRUE(snapshot == snapshots.end());
  EXPECT_TRUE(left.empty());
}

}  // namespace
}  // namespace pstk::net
