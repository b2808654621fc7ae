// Deterministic discrete-event simulation engine.
//
// Simulated processes are scheduled *cooperatively*: exactly one process
// (or the engine) runs at any instant, and the engine always dispatches
// the runnable process with the smallest virtual clock (ties broken by
// pid). All cross-process interaction goes through engine primitives, so
// a simulation is a deterministic function of its inputs — identical runs
// replay bit-identically regardless of host scheduling.
//
// Execution: every process is a stackful coroutine (a fiber) on the
// engine's own host thread. The engine loop switches directly onto the
// next runnable process's stack and back (sim/fiber.h), so a dispatch
// costs two user-space context switches and 10^5-process runs are
// practical. Which process runs next is decided by the rules below alone,
// never by the host.
//
// Virtual-time rules:
//  * Context::Compute(dt) advances only the caller's clock (no yield needed:
//    other processes cannot observe a process mid-computation).
//  * Blocking primitives park the caller until another process or a
//    scheduled event wakes it with a timestamp; on resume the caller's clock
//    becomes max(own clock, wake time).
//  * Because dispatch is min-clock-first, a process can never observe an
//    interaction from its past (conservative causality).
//
// Scheduler structures: the ready queue and the event queue are 4-ary
// min-heaps (sched_heap.h) with lazy deletion — decrease-key pushes a
// fresh generation-stamped entry and stale ones are discarded when they
// surface, keeping every mutation O(log n) with contiguous storage.
//
// Instrumentation goes through the engine's obs::Registry (`engine.obs()`):
// dispatch/block/kill activity is published there, higher layers intern
// their own tags against the same registry, and EnableTrace() switches the
// whole bus on.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/obs.h"
#include "sim/sched_heap.h"
#include "verify/verify.h"

namespace pstk::sim {

using Pid = std::uint32_t;
inline constexpr Pid kNoPid = static_cast<Pid>(-1);

class Engine;
class Context;

class FiberSwitcher;  // sim/fiber.h
struct Fiber;         // sim/fiber.h

/// Body of a simulated process.
using ProcessBody = std::function<void(Context&)>;

/// Thrown inside a simulated process when it is killed by fault injection;
/// unwinds the stack so RAII cleanup runs. Do not catch it.
class ProcessKilled {};

/// Why Engine::Run returned.
struct RunResult {
  Status status;          // OK, or Internal on deadlock / process exception
  SimTime end_time = 0;   // virtual time frontier at completion
  std::size_t completed = 0;
  std::size_t killed = 0;
};

/// Handle passed to every process body; all simulation services hang off it.
class Context {
 public:
  [[nodiscard]] Pid pid() const;
  [[nodiscard]] const std::string& name() const;
  /// Opaque placement tag (the cluster layer stores a node index here).
  [[nodiscard]] int node() const;

  /// This process's virtual clock, in seconds.
  [[nodiscard]] SimTime now() const;

  /// Advance the local clock by `seconds` of modeled computation.
  void Compute(SimTime seconds);

  /// Park until virtual time `t` (no-op if already past it).
  void SleepUntil(SimTime t);
  void SleepFor(SimTime dt) { SleepUntil(now() + dt); }

  /// Reschedule at the current clock, letting equal-or-earlier-clock
  /// processes run first. Compute() alone never yields.
  void Yield();

  /// Park indefinitely; resumes when some other process or event calls
  /// Engine::Wake(pid, t). Returns the wake timestamp actually applied.
  /// `reason` shows up in deadlock reports.
  SimTime Block(std::string_view reason);

  /// Like Block, but names the process expected to provide the wake-up
  /// (the resource owner): deadlock reports use it as this process's
  /// wait-for edge, enabling cycle extraction. `holder` runs at report
  /// time, so an owner registered *after* this process parked (e.g. the
  /// peer rank binding its endpoint at the same virtual instant) is still
  /// seen.
  SimTime BlockOn(std::string_view reason, std::function<Pid()> holder);

  /// Park until time `t`, but wakeable earlier via Engine::Wake.
  SimTime BlockUntil(SimTime t, std::string_view reason);

  /// Per-process deterministic RNG (derived from the engine seed and pid).
  Rng& rng();

  Engine& engine() { return engine_; }

  /// Record a user trace instant at the current clock (no-op unless
  /// tracing is enabled; strings are interned, not stored per event).
  void Trace(std::string_view tag, std::string_view detail = {});

 private:
  friend class Engine;
  Context(Engine& engine, Pid pid) : engine_(engine), pid_(pid) {}
  Engine& engine_;
  Pid pid_;
};

/// Internal: lifecycle of one simulated process.
enum class ProcState : std::uint8_t {
  kReady,     // scheduled: in the ready heap with a wake time
  kRunning,   // currently executing
  kBlocked,   // parked, waiting for Wake
  kDone,      // body returned
  kKilled,    // unwound via ProcessKilled
};

/// Internal: bookkeeping for one simulated process. At namespace scope
/// only so the fiber switcher (fiber.cc) can reach it — not part of the
/// public API.
struct Proc {
  std::string name;
  int node = 0;
  ProcessBody body;
  std::unique_ptr<Context> context;
  Rng rng;
  std::unique_ptr<Fiber> fiber;  // context + stack, made at first dispatch

  ProcState state = ProcState::kReady;
  SimTime clock = 0;             // local virtual time
  SimTime wake_at = 0;           // valid when kReady
  std::uint64_t ready_stamp = 0; // generation for lazy heap deletion
  bool kill_requested = false;
  std::string wait_reason;
  std::function<Pid()> wait_holder;  // who is expected to wake us (BlockOn)
  std::exception_ptr error;

  /// The wait-for edge as of now: the resolver sees owners registered
  /// after this process parked.
  [[nodiscard]] Pid WaitHolder() const {
    return wait_holder ? wait_holder() : kNoPid;
  }
};

/// The simulation engine. Not thread-safe in the conventional sense: its
/// methods must only be called from the engine's own control flow — i.e.
/// before Run(), from inside process bodies, or from scheduled events —
/// which is single-threaded (one process or the engine runs at a time).
class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a process; it becomes runnable at `start` (default: spawner's
  /// clock, or 0 when spawned before Run()).
  Pid Spawn(std::string name, ProcessBody body, int node = 0);
  Pid SpawnAt(SimTime start, std::string name, ProcessBody body, int node = 0);

  /// Run until every process has finished (or a deadlock / exception).
  RunResult Run();

  /// Wake a parked process no earlier than virtual time `t`. If the target
  /// is already scheduled, its wake time is reduced to min(current, t).
  /// Waking a finished process is a no-op.
  void Wake(Pid pid, SimTime t);

  /// Execute `fn` in the engine's control flow at virtual time `t`.
  void ScheduleEvent(SimTime t, std::function<void()> fn);

  /// Kill a process at time `t` (fault injection): it unwinds via
  /// ProcessKilled next time it would run.
  void Kill(Pid pid, SimTime t);
  /// Immediate kill, usable from events.
  void KillNow(Pid pid);

  [[nodiscard]] bool IsAlive(Pid pid) const;

  /// Alive processes placed on `node` (used for node-failure injection).
  [[nodiscard]] std::vector<Pid> AlivePidsOnNode(int node) const;

  /// Virtual-time frontier: the largest clock dispatched so far.
  [[nodiscard]] SimTime now() const { return frontier_; }

  [[nodiscard]] std::size_t process_count() const { return procs_.size(); }

  /// The engine's instrumentation bus. Counters are live even with
  /// tracing off; spans/histograms record only after EnableTrace(true).
  [[nodiscard]] obs::Registry& obs() { return obs_; }
  [[nodiscard]] const obs::Registry& obs() const { return obs_; }

  /// Turn the instrumentation bus on (spans, histograms, user traces).
  void EnableTrace(bool on);

  /// Structured deadlock diagnosis: the wait-for graph (process → wait
  /// reason → holding process), every cycle in it, and per-framework
  /// blame (grouped by process-name prefix). Used by Run() when blocked
  /// processes remain; also reported into verify() when checkers are on.
  [[nodiscard]] std::string DeadlockReport() const;

  /// The engine's runtime-verification hub. Off (and free) until
  /// verify().Enable() (bench --verify).
  [[nodiscard]] verify::Hub& verify() { return verify_; }
  [[nodiscard]] const verify::Hub& verify() const { return verify_; }

 private:
  friend class Context;
  friend class FiberSwitcher;

  /// Ready-heap entry: (wake time, pid) with a generation stamp for lazy
  /// deletion — an entry is live only while its stamp matches the
  /// process's current ready_stamp.
  struct ReadyEntry {
    SimTime t;
    Pid pid;
    std::uint64_t stamp;
    [[nodiscard]] bool Before(const ReadyEntry& o) const {
      return t != o.t ? t < o.t : pid < o.pid;
    }
  };
  /// Event-heap entry: time with a FIFO sequence tie-break.
  struct EventEntry {
    SimTime t;
    std::uint64_t seq;
    std::function<void()> fn;
    [[nodiscard]] bool Before(const EventEntry& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };

  // -- called from process stacks ----------------------------------------
  SimTime ProcBlock(Pid pid, std::string_view reason,
                    std::function<Pid()> holder = nullptr);  // indefinite
  SimTime ProcBlockUntil(Pid pid, SimTime t, std::string_view reason);
  void ProcYieldToEngine(Proc& p);  // park, hand control back, re-check kill
  void CheckKilled(Proc& p);
  /// Run p's body under the kill/exception protocol. Executes on p's own
  /// stack; updates p.state and the completed/killed tallies.
  void ExecuteBody(Proc& p);

  // -- engine loop -------------------------------------------------------
  void DispatchProc(Pid pid);
  void MakeReady(Pid pid, SimTime wake_at);
  void RemoveReady(Pid pid);
  void PruneReady();  // discard stale lazy-deleted entries at top
  void JoinAll();
  /// Run the earliest action: one engine event or one process dispatch.
  /// An event runs before a process whose wake time equals its time;
  /// events at equal times run in the order they were scheduled, and
  /// processes at equal wake times in pid order. False when nothing is
  /// left to run or a process body threw (fatal_ is then set).
  bool Step();

  std::uint64_t seed_;
  DaryHeap<ReadyEntry> ready_;
  DaryHeap<EventEntry> events_;
  std::unique_ptr<FiberSwitcher> fibers_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::uint64_t event_seq_ = 0;  // FIFO tie-break among equal-time events
  Pid running_ = kNoPid;
  SimTime frontier_ = 0;    // largest clock dispatched so far
  SimTime activation_ = 0;  // virtual time of the current action
  std::size_t completed_ = 0;
  std::size_t killed_ = 0;
  std::exception_ptr fatal_;  // first process exception; stops the run
  bool running_loop_ = false;

  obs::Registry obs_;
  verify::Hub verify_;
  struct SimTags {
    obs::TagId dispatches = obs::kNoTag;  // counter: proc dispatches
    obs::TagId events = obs::kNoTag;      // counter: engine events run
    obs::TagId wakes = obs::kNoTag;       // counter: Wake() calls
    obs::TagId spawns = obs::kNoTag;      // counter: processes spawned
    obs::TagId kills = obs::kNoTag;       // counter: fault-injected kills
    obs::TagId run = obs::kNoTag;         // span: process occupies the core
    obs::TagId kill = obs::kNoTag;        // instant: kill delivered
    obs::TagId block = obs::kNoTag;       // instant: process parks
    obs::TagId dispatch_ns = obs::kNoTag; // histogram: host ns per dispatch
  };
  SimTags tags_;
};

/// RAII span on the calling process's (node, pid) track, with an optional
/// elapsed-virtual-time histogram. Near-zero cost while tracing is off.
class Scope {
 public:
  Scope(Context& ctx, obs::TagId span_tag, obs::TagId hist_tag = obs::kNoTag)
      : ctx_(ctx), span_(span_tag), hist_(hist_tag),
        active_(ctx.engine().obs().enabled()) {
    if (active_) {
      start_ = ctx_.now();
      ctx_.engine().obs().BeginSpan(ctx_.node(), ctx_.pid(), span_, start_);
    }
  }
  ~Scope() {
    if (active_) {
      auto& reg = ctx_.engine().obs();
      reg.EndSpan(ctx_.node(), ctx_.pid(), span_, ctx_.now());
      if (hist_ != obs::kNoTag) reg.Observe(hist_, ctx_.now() - start_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Context& ctx_;
  obs::TagId span_;
  obs::TagId hist_;
  bool active_;
  SimTime start_ = 0;
};

}  // namespace pstk::sim
