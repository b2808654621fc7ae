// SHMEM synchronization checker ("shmem-sync"): vector-clock
// happens-before over one-sided symmetric-heap traffic.
//
// Every put/get/atomic is an event stamped with the issuing PE's vector
// clock. Two accesses race when they touch overlapping bytes of the same
// target heap, at least one writes, they are not both atomics, and
// neither happens-before the other. Synchronization edges come from
// shmem_barrier_all (a full barrier: when every PE has entered barrier k,
// all clocks join and the access history is cleared — this also bounds
// memory) and from shmem_wait_until (the waiter joins with the clock of
// every write to the watched ivar).
#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "verify/verify.h"

namespace pstk::verify {

namespace {

using Clock = std::vector<std::uint64_t>;

struct Access {
  int pe = 0;
  Bytes lo = 0;
  Bytes hi = 0;
  bool write = false;
  bool atomic = false;
  SimTime time = 0;
  Clock vc;
};

/// prior (an event by `owner`) happens-before the current state `now`.
bool HappensBefore(const Clock& prior, int owner, const Clock& now) {
  const auto o = static_cast<std::size_t>(owner);
  return o < now.size() && o < prior.size() && prior[o] <= now[o];
}

std::string Describe(const Access& a) {
  std::ostringstream oss;
  oss << (a.atomic ? "atomic " : "") << (a.write ? "put/write" : "get/read")
      << " by PE " << a.pe << " at t=" << a.time;
  return oss.str();
}

/// One job's vector clocks, barrier counts and heap access history.
struct ShmemJob {
  void EnsurePe(int pe) {
    const auto need = static_cast<std::size_t>(pe) + 1;
    if (clocks.size() < need) clocks.resize(need);
    if (barriers_entered.size() < need) barriers_entered.resize(need, 0);
    for (Clock& c : clocks) {
      if (c.size() < need) c.resize(need, 0);
    }
  }

  std::vector<Clock> clocks;                    // per-PE vector clock
  std::vector<std::uint64_t> barriers_entered;  // per-PE barrier count
  std::uint64_t completed_epochs = 0;
  std::map<int, std::vector<Access>> history;  // target PE -> accesses
};

}  // namespace

struct Hub::ShmemSync {
  std::map<int, ShmemJob> jobs;  // job number -> its PEs' state
};

void Hub::Free::operator()(ShmemSync* tables) const { delete tables; }

void Hub::ShmemAccess(int job, int pe, int target_pe, Bytes offset,
                      Bytes bytes, bool write, bool atomic, SimTime t) {
  ShmemJob& shmem = Tables(shmem_).jobs[job];
  shmem.EnsurePe(std::max(pe, target_pe));
  Clock& my = shmem.clocks[static_cast<std::size_t>(pe)];
  ++my[static_cast<std::size_t>(pe)];

  Access access;
  access.pe = pe;
  access.lo = offset;
  access.hi = offset + bytes;
  access.write = write;
  access.atomic = atomic;
  access.time = t;
  access.vc = my;

  auto& target_history = shmem.history[target_pe];
  for (const Access& prior : target_history) {
    if (prior.pe == pe) continue;  // program order on the issuing PE
    if (prior.hi <= access.lo || access.hi <= prior.lo) continue;
    if (!prior.write && !access.write) continue;  // read-read is fine
    if (prior.atomic && access.atomic) continue;  // NIC serializes atomics
    if (HappensBefore(prior.vc, prior.pe, my)) continue;
    std::ostringstream msg;
    msg << "data race on PE " << target_pe << "'s symmetric heap ["
        << access.lo << ", " << access.hi << "): " << Describe(prior)
        << " and " << Describe(access)
        << " are concurrent (no barrier/fence/wait_until orders them)";
    Report(Finding{Severity::kError, "shmem-sync", "shmem-race", msg.str(),
                   "pe " + std::to_string(pe), t});
  }
  target_history.push_back(std::move(access));
}

void Hub::ShmemBarrier(int job, int pe, int npes) {
  ShmemJob& shmem = Tables(shmem_).jobs[job];
  shmem.EnsurePe(npes - 1);
  ++shmem.barriers_entered[static_cast<std::size_t>(pe)];
  // Barrier epoch `completed_epochs` finishes once every PE has entered
  // that many barriers: all clocks join and prior accesses are ordered
  // before everything that follows, so the history can be dropped.
  for (int p = 0; p < npes; ++p) {
    if (shmem.barriers_entered[static_cast<std::size_t>(p)] <=
        shmem.completed_epochs) {
      return;
    }
  }
  ++shmem.completed_epochs;
  Clock joined(shmem.clocks.empty() ? 0 : shmem.clocks[0].size(), 0);
  for (const Clock& c : shmem.clocks) {
    for (std::size_t i = 0; i < joined.size(); ++i) {
      joined[i] = std::max(joined[i], c[i]);
    }
  }
  for (Clock& c : shmem.clocks) c = joined;
  shmem.history.clear();
}

void Hub::ShmemWaitSatisfied(int job, int pe, Bytes offset) {
  ShmemJob& shmem = Tables(shmem_).jobs[job];
  shmem.EnsurePe(pe);
  Clock& my = shmem.clocks[static_cast<std::size_t>(pe)];
  // The satisfied wait synchronizes with every write to the watched
  // 8-byte ivar on this PE's heap.
  for (const Access& prior : shmem.history[pe]) {
    if (!prior.write) continue;
    if (prior.hi <= offset || offset + 8 <= prior.lo) continue;
    for (std::size_t i = 0; i < my.size() && i < prior.vc.size(); ++i) {
      my[i] = std::max(my[i], prior.vc[i]);
    }
  }
}

}  // namespace pstk::verify
