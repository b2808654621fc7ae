#include "net/network.h"

#include <algorithm>
#include <limits>

namespace pstk::net {

namespace {
constexpr std::size_t kNoMatch = std::numeric_limits<std::size_t>::max();
}

Network::Network(sim::Engine& engine, std::shared_ptr<Fabric> fabric,
                 Bytes eager_threshold)
    : engine_(engine),
      fabric_(std::move(fabric)),
      eager_threshold_(eager_threshold) {
  PSTK_CHECK(fabric_ != nullptr);
  obs::Registry& reg = engine_.obs();
  tag_eager_ = reg.Intern("net.sends.eager");
  tag_rendezvous_ = reg.Intern("net.sends.rendezvous");
  tag_async_ = reg.Intern("net.sends.async");
}

Endpoint& Network::CreateEndpoint(int id, int node) {
  PSTK_CHECK_MSG(id >= 0, "endpoint id must be >= 0");
  if (endpoints_.size() <= static_cast<std::size_t>(id)) {
    endpoints_.resize(id + 1);
  }
  PSTK_CHECK_MSG(endpoints_[id] == nullptr, "duplicate endpoint id " << id);
  endpoints_[id] = std::unique_ptr<Endpoint>(new Endpoint(*this, id, node));
  return *endpoints_[id];
}

Endpoint& Network::endpoint(int id) {
  PSTK_CHECK_MSG(HasEndpoint(id), "no endpoint " << id);
  return *endpoints_[id];
}

bool Network::HasEndpoint(int id) const {
  return id >= 0 && static_cast<std::size_t>(id) < endpoints_.size() &&
         endpoints_[id] != nullptr;
}

std::vector<Endpoint::PendingInfo> Endpoint::Pending() const {
  // The inbox is in delivery order; report in send order.
  std::vector<const Message*> by_seq;
  by_seq.reserve(inbox_.size());
  for (const Message& m : inbox_) by_seq.push_back(&m);
  std::sort(by_seq.begin(), by_seq.end(),
            [](const Message* a, const Message* b) { return a->seq < b->seq; });
  std::vector<PendingInfo> pending;
  pending.reserve(by_seq.size());
  for (const Message* m : by_seq) {
    pending.push_back(PendingInfo{m->src, m->tag, m->size});
  }
  return pending;
}

void Endpoint::Send(sim::Context& ctx, int dst, int tag, buf::Bytes payload,
                    Bytes modeled_size) {
  if (modeled_size == 0) modeled_size = payload.size();
  user_pid_ = ctx.pid();
  Endpoint& target = network_.endpoint(dst);

  const TransferTimes times = network_.fabric().Transfer(
      node_, target.node_, modeled_size, ctx.now());
  ctx.Compute(times.sender_cpu);

  Message message;
  message.src = id_;
  message.tag = tag;
  message.seq = network_.seq_++;
  message.size = modeled_size;
  message.payload = std::move(payload);
  message.arrival = times.arrival;

  const bool rendezvous = modeled_size > network_.eager_threshold();
  ctx.engine().obs().Add(rendezvous ? network_.tag_rendezvous_
                                    : network_.tag_eager_);
  if (rendezvous) {
    message.sender_pid = ctx.pid();
    message.wants_completion_wake = true;
  }
  target.Deposit(std::move(message));

  if (rendezvous) {
    // Synchronous semantics for large messages: wait until consumed.
    // The receiver owning the destination endpoint must drain it; the
    // owner is resolved lazily so a receiver that binds after we park
    // still shows up in deadlock wait-for edges.
    ctx.BlockOn("send-rendezvous to ep " + std::to_string(dst),
                [&target]() { return target.user_pid_; });
  } else {
    // Eager: the sender is done once its NIC has pushed the bytes.
    ctx.SleepUntil(times.sender_nic_done);
  }
}

void Endpoint::SendAsync(sim::Context& ctx, int dst, int tag,
                         buf::Bytes payload, Bytes modeled_size) {
  if (modeled_size == 0) modeled_size = payload.size();
  user_pid_ = ctx.pid();
  ctx.engine().obs().Add(network_.tag_async_);
  Endpoint& target = network_.endpoint(dst);

  const TransferTimes times = network_.fabric().Transfer(
      node_, target.node_, modeled_size, ctx.now());
  ctx.Compute(times.sender_cpu);

  Message message;
  message.src = id_;
  message.tag = tag;
  message.seq = network_.seq_++;
  message.size = modeled_size;
  message.payload = std::move(payload);
  message.arrival = times.arrival;
  target.Deposit(std::move(message));
}

void Endpoint::Deposit(Message message) {
  const SimTime arrival = message.arrival;
  // Keep the inbox in delivery order, (arrival, seq). Arrivals mostly grow
  // with seq, so the insertion point is usually at or near the back.
  const auto delivered_before = [](const Message& a, const Message& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.seq < b.seq;
  };
  inbox_.insert(std::upper_bound(inbox_.begin(), inbox_.end(), message,
                                 delivered_before),
                std::move(message));
  if (waiter_ != sim::kNoPid) {
    network_.engine_.Wake(waiter_, arrival);
  }
}

std::size_t Endpoint::FindMatch(int src, int tag) const {
  // The inbox is in (arrival, seq) order, so the first match is the
  // earliest-arrival one, seq breaking ties (FIFO per pair).
  for (std::size_t i = 0; i < inbox_.size(); ++i) {
    const Message& m = inbox_[i];
    if ((src == kAnySource || m.src == src) &&
        (tag == kAnyTag || m.tag == tag)) {
      return i;
    }
  }
  return kNoMatch;
}

void Endpoint::Reap() {
  if (waiter_ != sim::kNoPid && !network_.engine_.IsAlive(waiter_)) {
    waiter_ = sim::kNoPid;
  }
  if (user_pid_ != sim::kNoPid && !network_.engine_.IsAlive(user_pid_)) {
    user_pid_ = sim::kNoPid;
  }
}

Message Endpoint::Recv(sim::Context& ctx, int src, int tag) {
  PSTK_CHECK_MSG(waiter_ == sim::kNoPid,
                 "endpoint " << id_ << " already has a receiver parked");
  user_pid_ = ctx.pid();
  for (;;) {
    const std::size_t idx = FindMatch(src, tag);
    if (idx != kNoMatch) {
      const SimTime arrival = inbox_[idx].arrival;
      if (arrival <= ctx.now()) {
        Message message = std::move(inbox_[idx]);
        inbox_.erase(inbox_.begin() + static_cast<std::ptrdiff_t>(idx));
        // Receiver pays its protocol stack cost on consumption.
        const TransportParams& tp = network_.fabric().default_transport();
        ctx.Compute(tp.per_message_cpu +
                    static_cast<double>(message.size) * tp.per_byte_cpu);
        if (message.wants_completion_wake &&
            message.sender_pid != sim::kNoPid) {
          network_.engine_.Wake(message.sender_pid, ctx.now());
        }
        return message;
      }
      // A matching message exists but hasn't arrived in our virtual time
      // yet: sleep until its arrival, wakeable earlier by new deposits.
      waiter_ = ctx.pid();
      ctx.BlockUntil(arrival, "recv (msg in flight)");
      waiter_ = sim::kNoPid;
    } else {
      waiter_ = ctx.pid();
      // The expected sender (when named) owns the wait-for edge; wildcard
      // receives have no single owner. Resolution is lazy: a peer that
      // binds its endpoint after we park is still a valid edge target.
      Network* net = &network_;
      ctx.BlockOn("recv src=" + std::to_string(src) +
                      " tag=" + std::to_string(tag),
                  [net, src]() {
                    return src != kAnySource && net->HasEndpoint(src)
                               ? net->endpoint(src).user_pid_
                               : sim::kNoPid;
                  });
      waiter_ = sim::kNoPid;
    }
  }
}

std::optional<Message> Endpoint::RecvWithTimeout(sim::Context& ctx,
                                                 SimTime deadline, int src,
                                                 int tag) {
  PSTK_CHECK_MSG(waiter_ == sim::kNoPid,
                 "endpoint " << id_ << " already has a receiver parked");
  user_pid_ = ctx.pid();
  for (;;) {
    if (auto message = TryRecv(ctx, src, tag)) return message;
    if (ctx.now() >= deadline) return std::nullopt;
    const std::size_t idx = FindMatch(src, tag);
    const SimTime until = idx == kNoMatch
                              ? deadline
                              : std::min(deadline, inbox_[idx].arrival);
    waiter_ = ctx.pid();
    ctx.BlockUntil(until, "recv-timeout");
    waiter_ = sim::kNoPid;
  }
}

std::optional<Message> Endpoint::TryRecv(sim::Context& ctx, int src, int tag) {
  user_pid_ = ctx.pid();
  const std::size_t idx = FindMatch(src, tag);
  if (idx == kNoMatch || inbox_[idx].arrival > ctx.now()) return std::nullopt;
  Message message = std::move(inbox_[idx]);
  inbox_.erase(inbox_.begin() + static_cast<std::ptrdiff_t>(idx));
  const TransportParams& tp = network_.fabric().default_transport();
  ctx.Compute(tp.per_message_cpu +
              static_cast<double>(message.size) * tp.per_byte_cpu);
  if (message.wants_completion_wake && message.sender_pid != sim::kNoPid) {
    network_.engine_.Wake(message.sender_pid, ctx.now());
  }
  return message;
}

bool Endpoint::Probe(sim::Context& ctx, int src, int tag) const {
  const std::size_t idx = FindMatch(src, tag);
  return idx != kNoMatch && inbox_[idx].arrival <= ctx.now();
}

}  // namespace pstk::net
