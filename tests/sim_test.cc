#include <execinfo.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/engine.h"
#include "sim/fiber.h"
#include "sim/timeline.h"

namespace pstk::sim {
namespace {

std::string Numbered(const char* prefix, int i) {
  // Not `prefix + std::to_string(i)`: GCC 12 at -O3 reports a false
  // -Wrestrict on the inlined insert at the front of the string.
  return std::string(prefix).append(std::to_string(i));
}

/// Condition-variable analogue in virtual time, built on the engine's
/// public Block and Wake: processes Wait; another process Notifies with a
/// timestamp; each waiter resumes at max(own clock, timestamp). It drives
/// the notify, kill-unwind and determinism tests below.
///
/// Waiter bookkeeping is a generation-stamped slot scheme: every Wait
/// enqueues a (pid, ticket) slot with a fresh monotonically increasing
/// ticket. A waiter killed mid-wait discards its slot in O(1) amortized:
/// the ticket goes into a cancelled set and the slot itself is dropped
/// lazily when a notify surfaces it.
class Condition {
 public:
  /// Park the caller until notified. If the caller is killed mid-wait the
  /// unwind cancels its slot, so a later notify cannot burn its wake-up
  /// on a dead process.
  void Wait(Context& ctx, std::string_view reason = "condition") {
    const std::uint64_t ticket = next_ticket_++;
    waiters_.push_back(Slot{ctx.pid(), ticket});
    ++live_;
    try {
      ctx.Block(reason);
    } catch (...) {
      cancelled_.insert(ticket);
      --live_;
      throw;
    }
  }

  /// Wake all live waiters at time `t`.
  void NotifyAll(Engine& engine, SimTime t) {
    for (const Slot& slot : waiters_) {
      if (cancelled_.erase(slot.ticket) > 0) continue;
      engine.Wake(slot.pid, t);
    }
    waiters_.clear();
    live_ = 0;
  }

  /// Wake the longest-waiting *live* process at time `t`; returns false if
  /// none. Cancelled slots (killed waiters) are discarded as they surface.
  bool NotifyOne(Engine& engine, SimTime t) {
    while (!waiters_.empty()) {
      const Slot slot = waiters_.front();
      waiters_.pop_front();
      if (cancelled_.erase(slot.ticket) > 0) continue;
      --live_;
      if (!engine.IsAlive(slot.pid)) continue;
      engine.Wake(slot.pid, t);
      return true;
    }
    return false;
  }

  /// Waiters currently parked and not cancelled.
  [[nodiscard]] std::size_t waiter_count() const { return live_; }

 private:
  struct Slot {
    Pid pid;
    std::uint64_t ticket;
  };

  std::deque<Slot> waiters_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t next_ticket_ = 0;
  std::size_t live_ = 0;
};

TEST(EngineTest, SingleProcessAdvancesClock) {
  Engine engine;
  SimTime end = -1;
  engine.Spawn("solo", [&](Context& ctx) {
    ctx.Compute(1.5);
    ctx.Compute(0.5);
    end = ctx.now();
  });
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_DOUBLE_EQ(end, 2.0);
  EXPECT_DOUBLE_EQ(result.end_time, 2.0);
  EXPECT_EQ(result.completed, 1u);
}

TEST(EngineTest, SleepUntilAdvances) {
  Engine engine;
  SimTime observed = 0;
  engine.Spawn("sleeper", [&](Context& ctx) {
    ctx.SleepUntil(10.0);
    observed = ctx.now();
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(observed, 10.0);
}

TEST(EngineTest, SleepForIsRelative) {
  Engine engine;
  SimTime observed = 0;
  engine.Spawn("sleeper", [&](Context& ctx) {
    ctx.Compute(2.0);
    ctx.SleepFor(3.0);
    observed = ctx.now();
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(observed, 5.0);
}

TEST(EngineTest, MinClockDispatchOrder) {
  // Three processes with different compute times interleave in virtual-time
  // order, not creation order.
  Engine engine;
  std::vector<std::string> order;
  auto worker = [&](double step, const std::string& tag) {
    return [&, step, tag](Context& ctx) {
      for (int i = 0; i < 3; ++i) {
        ctx.Compute(step);
        // Force a scheduling point so interleaving is observable.
        ctx.Yield();
        order.push_back(tag + std::to_string(i));
      }
    };
  };
  engine.Spawn("slow", worker(10.0, "s"));
  engine.Spawn("fast", worker(1.0, "f"));
  ASSERT_TRUE(engine.Run().status.ok());
  ASSERT_EQ(order.size(), 6u);
  // fast finishes all three steps (t=1,2,3) before slow's first (t=10).
  EXPECT_EQ(order[0], "f0");
  EXPECT_EQ(order[1], "f1");
  EXPECT_EQ(order[2], "f2");
  EXPECT_EQ(order[3], "s0");
}

TEST(EngineTest, BlockAndWake) {
  Engine engine;
  SimTime resumed = 0;
  const Pid waiter = engine.Spawn("waiter", [&](Context& ctx) {
    resumed = ctx.Block("test wait");
  });
  engine.Spawn("waker", [&, waiter](Context& ctx) {
    ctx.Compute(4.0);
    ctx.engine().Wake(waiter, ctx.now());
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(resumed, 4.0);
}

TEST(EngineTest, WakeTimeNeverRewindsClock) {
  Engine engine;
  SimTime resumed = 0;
  const Pid waiter = engine.Spawn("waiter", [&](Context& ctx) {
    ctx.Compute(9.0);
    resumed = ctx.Block("test wait");
  });
  engine.Spawn("waker", [&, waiter](Context& ctx) {
    ctx.Compute(1.0);
    ctx.engine().Wake(waiter, ctx.now());  // wake time 1.0 < waiter clock 9.0
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(resumed, 9.0);
}

TEST(EngineTest, BlockUntilWakesEarlierOnSignal) {
  Engine engine;
  SimTime resumed = 0;
  const Pid waiter = engine.Spawn("waiter", [&](Context& ctx) {
    resumed = ctx.BlockUntil(100.0, "poll");
  });
  engine.Spawn("waker", [&, waiter](Context& ctx) {
    ctx.Compute(2.5);
    ctx.engine().Wake(waiter, ctx.now());
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(resumed, 2.5);
}

TEST(EngineTest, BlockUntilTimesOutWithoutSignal) {
  Engine engine;
  SimTime resumed = 0;
  engine.Spawn("waiter", [&](Context& ctx) {
    resumed = ctx.BlockUntil(7.0, "poll");
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(resumed, 7.0);
}

TEST(EngineTest, ConditionNotifyAll) {
  Engine engine;
  Condition cond;
  int released = 0;
  for (int i = 0; i < 5; ++i) {
    engine.Spawn(Numbered("w", i), [&](Context& ctx) {
      cond.Wait(ctx, "cond");
      ++released;
      EXPECT_DOUBLE_EQ(ctx.now(), 3.0);
    });
  }
  engine.Spawn("notifier", [&](Context& ctx) {
    ctx.Compute(3.0);
    cond.NotifyAll(ctx.engine(), ctx.now());
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_EQ(released, 5);
}

TEST(EngineTest, ConditionNotifyOneIsFifo) {
  Engine engine;
  Condition cond;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn(Numbered("w", i), [&, i](Context& ctx) {
      ctx.Compute(i * 0.1);  // stagger arrival
      cond.Wait(ctx, "cond");
      order.push_back(i);
      // Chain: release the next one.
      cond.NotifyOne(ctx.engine(), ctx.now());
    });
  }
  engine.Spawn("kick", [&](Context& ctx) {
    ctx.Compute(1.0);
    cond.NotifyOne(ctx.engine(), ctx.now());
  });
  ASSERT_TRUE(engine.Run().status.ok());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(EngineTest, DeadlockDetected) {
  Engine engine;
  engine.Spawn("stuck", [](Context& ctx) { ctx.Block("never woken"); });
  auto result = engine.Run();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find("never woken"), std::string::npos);
}

TEST(EngineTest, ScheduledEventRuns) {
  Engine engine;
  SimTime seen = -1;
  engine.ScheduleEvent(5.0, [&] { seen = 5.0; });
  engine.Spawn("bystander", [](Context& ctx) { ctx.SleepUntil(10.0); });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(EngineTest, KillUnwindsProcess) {
  Engine engine;
  bool cleanup_ran = false;
  bool after_block = false;
  const Pid victim = engine.Spawn("victim", [&](Context& ctx) {
    struct Cleanup {
      bool* flag;
      ~Cleanup() { *flag = true; }
    } cleanup{&cleanup_ran};
    ctx.Block("waiting forever");
    after_block = true;  // must never execute
  });
  engine.Kill(victim, 2.0);
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(cleanup_ran);
  EXPECT_FALSE(after_block);
  EXPECT_EQ(result.killed, 1u);
  EXPECT_FALSE(engine.IsAlive(victim));
}

TEST(EngineTest, KillBeforeFirstDispatch) {
  Engine engine;
  bool ran = false;
  const Pid victim = engine.SpawnAt(5.0, "late", [&](Context&) { ran = true; });
  engine.Kill(victim, 1.0);
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(ran);
  EXPECT_EQ(result.killed, 1u);
}

TEST(EngineTest, SpawnFromProcessInheritsClock) {
  Engine engine;
  SimTime child_start = -1;
  engine.Spawn("parent", [&](Context& ctx) {
    ctx.Compute(6.0);
    ctx.engine().Spawn("child",
                       [&](Context& c) { child_start = c.now(); });
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_DOUBLE_EQ(child_start, 6.0);
}

TEST(EngineTest, ExceptionInProcessPropagates) {
  Engine engine;
  engine.Spawn("thrower", [](Context& ctx) {
    ctx.Compute(1.0);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(engine.Run(), std::runtime_error);
}

TEST(EngineTest, DeterministicReplay) {
  auto run_once = [] {
    Engine engine(42);
    std::vector<std::pair<SimTime, int>> log;
    Condition cond;
    for (int i = 0; i < 8; ++i) {
      engine.Spawn(Numbered("p", i), [&, i](Context& ctx) {
        ctx.Compute(ctx.rng().Uniform(0.0, 1.0));
        log.emplace_back(ctx.now(), i);
        ctx.SleepFor(ctx.rng().Uniform(0.0, 0.5));
        log.emplace_back(ctx.now(), i);
      });
    }
    auto result = engine.Run();
    EXPECT_TRUE(result.status.ok());
    return log;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(EngineTest, TraceRecordsEvents) {
  Engine engine;
  engine.EnableTrace(true);
  engine.Spawn("tracer", [](Context& ctx) {
    ctx.Compute(1.0);
    ctx.Trace("phase", "one");
    ctx.Compute(1.0);
    ctx.Trace("phase", "two");
  });
  ASSERT_TRUE(engine.Run().status.ok());
  const obs::Registry& reg = engine.obs();
  std::vector<obs::Event> phases;
  for (const obs::Event& e : reg.events()) {
    if (reg.Name(e.tag) == "phase") phases.push_back(e);
  }
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_DOUBLE_EQ(phases[0].time, 1.0);
  EXPECT_EQ(phases[0].phase, obs::Phase::kInstant);
  EXPECT_EQ(reg.Name(phases[1].detail), "two");
}

TEST(EngineTest, EqualTimeTieBreaks) {
  Engine engine;
  std::vector<std::string> log;
  engine.ScheduleEvent(2.0, [&log] { log.push_back("t2 before Run"); });
  engine.ScheduleEvent(1.0, [&engine, &log] {
    log.push_back("t1 event");
    engine.ScheduleEvent(2.0, [&log] { log.push_back("t2 from event"); });
  });
  engine.Spawn("sleeper", [&log](Context& ctx) {
    ctx.engine().ScheduleEvent(
        2.0, [&log] { log.push_back("t2 from process"); });
    ctx.SleepUntil(1.0);
    log.push_back("t1 process");
  });
  SimTime unwound_at = -1;
  const Pid victim = engine.Spawn("victim", [&](Context& ctx) {
    struct Cleanup {
      Context& ctx;
      SimTime* at;
      std::vector<std::string>* log;
      ~Cleanup() {
        *at = ctx.now();
        log->push_back("victim unwound");
      }
    } cleanup{ctx, &unwound_at, &log};
    ctx.SleepUntil(5.0);
    log.push_back("victim woke");
  });
  engine.Kill(victim, 3.0);
  const RunResult result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.killed, 1u);
  // An event runs before a process waking at the same time; equal-time
  // events run in the order they were scheduled, wherever that happened.
  const std::vector<std::string> expected = {
      "t1 event",        "t1 process",    "t2 before Run",
      "t2 from process", "t2 from event", "victim unwound"};
  EXPECT_EQ(log, expected);
  // The kill lands at the kill event's time, not at the victim's
  // scheduled wake.
  EXPECT_DOUBLE_EQ(unwound_at, 3.0);
}

TEST(EngineTest, ConditionDropsKilledWaiter) {
  // Regression: a killed process must not linger in a Condition's waiter
  // queue, or a later NotifyOne would be swallowed by the corpse instead of
  // releasing a live waiter.
  Engine engine;
  Condition cond;
  bool victim_released = false;
  bool survivor_released = false;
  const Pid victim = engine.Spawn("victim", [&](Context& ctx) {
    cond.Wait(ctx, "cond");
    victim_released = true;
  });
  engine.Spawn("survivor", [&](Context& ctx) {
    ctx.Compute(0.5);  // enqueue strictly after the victim
    cond.Wait(ctx, "cond");
    survivor_released = true;
  });
  engine.Spawn("driver", [&](Context& ctx) {
    ctx.engine().Kill(victim, 1.0);
    ctx.SleepUntil(2.0);
    EXPECT_TRUE(cond.NotifyOne(ctx.engine(), ctx.now()));
  });
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.killed, 1u);
  EXPECT_FALSE(victim_released);
  EXPECT_TRUE(survivor_released);
}

TEST(EngineTest, ObsCountsSchedulerActivity) {
  Engine engine;
  engine.Spawn("a", [](Context& ctx) { ctx.Compute(1.0); });
  engine.Spawn("b", [](Context& ctx) {
    ctx.Yield();
    ctx.Compute(1.0);
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_EQ(engine.obs().CounterByName("sim.spawns"), 2u);
  EXPECT_GE(engine.obs().CounterByName("sim.dispatches"), 2u);
  // Counters accumulate even with tracing disabled, and no trace events
  // are recorded.
  EXPECT_TRUE(engine.obs().events().empty());
}

TEST(EngineTest, TraceExportIsDeterministic) {
  auto run_once = [] {
    Engine engine(7);
    engine.EnableTrace(true);
    Condition cond;
    for (int i = 0; i < 6; ++i) {
      engine.Spawn(Numbered("p", i), [&, i](Context& ctx) {
        ctx.Compute(ctx.rng().Uniform(0.0, 1.0));
        ctx.Trace("step", Numbered("p", i));
        if (i % 2 == 0) {
          cond.Wait(ctx, "pair");
        } else {
          ctx.SleepFor(0.25);
          cond.NotifyOne(ctx.engine(), ctx.now());
        }
      });
    }
    EXPECT_TRUE(engine.Run().status.ok());
    return std::pair(engine.obs().ToChromeTraceJson(),
                     engine.obs().CounterByName("sim.dispatches"));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);  // byte-identical JSON
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first.find("\"traceEvents\""), std::string::npos);
}

TEST(EngineTest, ManyProcesses) {
  Engine engine;
  std::atomic<int> done{0};
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    engine.Spawn(Numbered("p", i), [&, i](Context& ctx) {
      ctx.Compute(0.001 * i);
      ++done;
    });
  }
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(done.load(), n);
}

TEST(EngineTest, KillRunsRaiiCleanup) {
  Engine engine;
  bool cleanup_ran = false;
  bool after_block = false;
  const Pid victim = engine.Spawn("victim", [&](Context& ctx) {
    struct Cleanup {
      bool* flag;
      ~Cleanup() { *flag = true; }
    } cleanup{&cleanup_ran};
    ctx.Block("waiting forever");
    after_block = true;
  });
  engine.Kill(victim, 2.0);
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(cleanup_ran);
  EXPECT_FALSE(after_block);
  EXPECT_EQ(result.killed, 1u);
}

TEST(EngineTest, DeadlockUnwindsBlockedProcesses) {
  Engine engine;
  bool cleanup_ran = false;
  engine.Spawn("stuck", [&](Context& ctx) {
    struct Cleanup {
      bool* flag;
      ~Cleanup() { *flag = true; }
    } cleanup{&cleanup_ran};
    ctx.Block("never woken");
  });
  auto result = engine.Run();
  EXPECT_FALSE(result.status.ok());
  EXPECT_NE(result.status.message().find("never woken"), std::string::npos);
  // JoinAll force-unwound the parked process: its destructors ran.
  EXPECT_TRUE(cleanup_ran);
}

TEST(EngineTest, ExceptionUnwindsBystanders) {
  // A throwing process aborts the run; processes still parked must be
  // force-unwound (RAII runs) before Run rethrows.
  Engine engine;
  bool bystander_cleanup = false;
  engine.Spawn("bystander", [&](Context& ctx) {
    struct Cleanup {
      bool* flag;
      ~Cleanup() { *flag = true; }
    } cleanup{&bystander_cleanup};
    ctx.Block("forever");
  });
  engine.Spawn("thrower", [](Context& ctx) {
    ctx.Compute(1.0);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(engine.Run(), std::runtime_error);
  EXPECT_TRUE(bystander_cleanup);
}

TEST(EngineTest, MixedWorkloadReplaysByteIdentically) {
  // Every scheduler path at once — RNG-staggered computes, yields, sleeps,
  // condition waits/notifies, a spawn from an event, a fault-injected
  // kill and user trace instants — replays to the same trace bytes.
  struct Observed {
    std::string trace_json;
    std::uint64_t dispatches = 0;
    RunResult result;
  };
  auto run = [] {
    Engine engine(1234);
    engine.EnableTrace(true);
    Condition cond;
    for (int i = 0; i < 12; ++i) {
      engine.Spawn(Numbered("p", i), [&, i](Context& ctx) {
        ctx.Compute(ctx.rng().Uniform(0.0, 1.0));
        ctx.Trace("step", Numbered("a", i));
        if (i % 3 == 0) {
          cond.Wait(ctx, "trio");
        } else if (i % 3 == 1) {
          ctx.SleepFor(0.5);
          cond.NotifyOne(ctx.engine(), ctx.now());
        } else {
          ctx.Yield();
          ctx.Compute(0.25);
        }
        ctx.Trace("step", Numbered("b", i));
      });
    }
    const Pid victim =
        engine.Spawn("victim", [](Context& ctx) { ctx.Block("doomed"); });
    engine.Kill(victim, 0.75);
    engine.ScheduleEvent(0.25, [&engine] {
      engine.Spawn("late", [](Context& ctx) { ctx.Compute(0.125); });
    });
    Observed out;
    out.result = engine.Run();
    out.trace_json = engine.obs().ToChromeTraceJson();
    out.dispatches = engine.obs().CounterByName("sim.dispatches");
    return out;
  };
  const Observed a = run();
  const Observed b = run();
  EXPECT_TRUE(a.result.status.ok()) << a.result.status.ToString();
  EXPECT_EQ(a.result.killed, 1u);
  EXPECT_EQ(a.trace_json, b.trace_json);  // byte-identical
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_DOUBLE_EQ(a.result.end_time, b.result.end_time);
  EXPECT_EQ(a.result.completed, b.result.completed);
}

// --------------------------------------------------------------------------
// Step() against a reference model. Seeded random process scripts mix
// Spawn/SpawnAt, compute, sleep, yield, block, BlockUntil, Wake (decrease-
// key, ignored increases, stray wakes), events (nested, and spawning), Kill
// and KillNow. A brute-force model replays each script over a plain list
// of pending actions, scanning it for the earliest one, and every
// dispatch and scripted event the engine runs must match it in order.
// --------------------------------------------------------------------------

namespace refmodel {

struct Action {
  enum Kind : std::uint8_t {
    kCompute,     // Compute(dt)
    kSleep,       // SleepFor(dt)
    kYield,       // Yield()
    kBlock,       // Block()
    kBlockUntil,  // BlockUntil(now + dt)
    kWake,        // Wake(target, now + dt); dt may be negative
    kEvent,       // ScheduleEvent(now + dt) that runs `then`
    kSpawn,       // Spawn(); from an event the child starts at the frontier
    kSpawnAt,     // SpawnAt(now + dt)
    kKill,        // Kill(target, now + dt): an engine event, not logged
    kKillNow,     // KillNow(target), from events only
  };
  Kind kind = kCompute;
  SimTime dt = 0;
  std::uint64_t pick = 0;  // target pid = pick % process count
  std::vector<Action> then;
};

constexpr Pid kInitialProcs = 6;  // only these spawn, which bounds a run

// Multiples of 0.5: exact in binary, so process/process, event/event and
// event/process ties at equal times are common.
SimTime Halves(Rng& rng, std::uint64_t max_halves) {
  return 0.5 * static_cast<double>(rng.Below(max_halves + 1));
}

std::vector<Action> EventScript(Rng& rng, bool can_spawn, bool can_nest) {
  std::vector<Action> out(1 + rng.Below(2));
  for (Action& a : out) {
    a.pick = rng.Next();
    const std::uint64_t roll = rng.Below(5);
    if (roll == 0) {
      a.kind = Action::kKillNow;
    } else if (roll == 1 && can_nest) {
      a.kind = Action::kEvent;
      a.dt = Halves(rng, 2);
      a.then = EventScript(rng, can_spawn, /*can_nest=*/false);
    } else if (roll == 2 && can_spawn) {
      a.kind = rng.Bernoulli(0.5) ? Action::kSpawn : Action::kSpawnAt;
      a.dt = Halves(rng, 3);
    } else {
      a.kind = Action::kWake;
      a.dt = Halves(rng, 4) - 1.0;
    }
  }
  return out;
}

std::vector<Action> ProcessScript(std::uint64_t seed, Pid pid) {
  Rng rng(seed * 1000003 + pid);
  const bool can_spawn = pid < kInitialProcs;
  std::vector<Action> out(4 + rng.Below(8));
  for (Action& a : out) {
    a.pick = rng.Next();
    switch (rng.Below(16)) {
      case 0: case 1: a.kind = Action::kCompute; a.dt = Halves(rng, 2); break;
      case 2: case 3: a.kind = Action::kSleep; a.dt = Halves(rng, 3); break;
      case 4: case 5: a.kind = Action::kYield; break;
      case 6: a.kind = Action::kBlock; break;
      case 7: a.kind = Action::kBlockUntil; a.dt = Halves(rng, 4); break;
      case 8: case 9: case 10:
        a.kind = Action::kWake;
        a.dt = Halves(rng, 6) - 1.0;
        break;
      case 11: case 12:
        a.kind = Action::kEvent;
        a.dt = Halves(rng, 3);
        a.then = EventScript(rng, can_spawn, /*can_nest=*/true);
        break;
      case 13: a.kind = Action::kKill; a.dt = Halves(rng, 4); break;
      default:
        a.kind = !can_spawn              ? Action::kYield
                 : rng.Bernoulli(0.5) ? Action::kSpawn
                                      : Action::kSpawnAt;
        a.dt = Halves(rng, 3);
        break;
    }
  }
  return out;
}

/// Scripts by pid, made on first use from (seed, pid) alone, so the engine
/// and the model see the same script for every process either creates.
class Scripts {
 public:
  explicit Scripts(std::uint64_t seed) : seed_(seed) {}
  const std::vector<Action>& For(Pid pid) {
    while (scripts_.size() <= pid) {
      const auto next = static_cast<Pid>(scripts_.size());
      scripts_.push_back(ProcessScript(seed_, next));
    }
    return scripts_[pid];
  }
  /// Start time of initial process `pid` (0 means Spawn before Run).
  static SimTime StartOf(Pid pid) { return 0.5 * (pid % 3); }

 private:
  std::uint64_t seed_;
  std::deque<std::vector<Action>> scripts_;  // stable references
};

/// One action as both sides log it: a process dispatch ('P', pid) or a
/// scripted event ('E', scheduling index), at virtual time `t`.
struct Entry {
  char kind;
  std::uint32_t id;
  SimTime t;
  bool operator==(const Entry&) const = default;
};

std::string Render(const std::vector<Entry>& log, std::size_t at) {
  std::ostringstream oss;
  for (std::size_t i = at > 3 ? at - 3 : 0; i < std::min(log.size(), at + 4);
       ++i) {
    oss << (i == at ? " [" : " ") << log[i].kind << log[i].id << "@"
        << log[i].t << (i == at ? "]" : "");
  }
  return oss.str();
}

struct Outcome {
  std::vector<Entry> log;
  std::uint64_t dispatches = 0;
  bool ok = false;
  SimTime end_time = 0;
  std::size_t completed = 0;
  std::size_t killed = 0;
};

/// How often the model met each situation a scheduling rule decides.
struct Coverage {
  int event_process_ties = 0;
  int event_event_ties = 0;
  int process_process_ties = 0;
  int decrease_keys = 0;
  int ignored_increases = 0;
  int kill_reschedules = 0;  // ready victim pulled forward to the kill
  int kill_clamps = 0;       // victim's clock behind the kill's time
};

Outcome RunEngine(Scripts& scripts, std::uint64_t seed) {
  Engine engine(seed);
  engine.EnableTrace(true);
  obs::Registry& obs = engine.obs();
  const obs::TagId event_tag = obs.Intern("ref.event");
  std::uint32_t next_event = 0;
  auto target = [&engine](const Action& a) {
    return static_cast<Pid>(a.pick % engine.process_count());
  };
  ProcessBody body;
  std::function<void(SimTime, const std::vector<Action>*)> schedule =
      [&](SimTime t, const std::vector<Action>* then) {
        const std::uint32_t id = next_event++;
        engine.ScheduleEvent(t, [&, t, then, id] {
          obs.Instant(0, id, event_tag, t);
          for (const Action& a : *then) {
            switch (a.kind) {
              case Action::kWake: engine.Wake(target(a), t + a.dt); break;
              case Action::kKillNow: engine.KillNow(target(a)); break;
              case Action::kEvent: schedule(t + a.dt, &a.then); break;
              case Action::kSpawn: engine.Spawn("child", body); break;
              case Action::kSpawnAt:
                engine.SpawnAt(t + a.dt, "child", body);
                break;
              default: break;
            }
          }
        });
      };
  body = [&](Context& ctx) {
    for (const Action& a : scripts.For(ctx.pid())) {
      switch (a.kind) {
        case Action::kCompute: ctx.Compute(a.dt); break;
        case Action::kSleep: ctx.SleepFor(a.dt); break;
        case Action::kYield: ctx.Yield(); break;
        case Action::kBlock: ctx.Block("scripted"); break;
        case Action::kBlockUntil:
          ctx.BlockUntil(ctx.now() + a.dt, "scripted");
          break;
        case Action::kWake: engine.Wake(target(a), ctx.now() + a.dt); break;
        case Action::kEvent: schedule(ctx.now() + a.dt, &a.then); break;
        case Action::kSpawn: engine.Spawn("child", body); break;
        case Action::kSpawnAt:
          engine.SpawnAt(ctx.now() + a.dt, "child", body);
          break;
        case Action::kKill: engine.Kill(target(a), ctx.now() + a.dt); break;
        case Action::kKillNow: break;
      }
    }
  };
  for (Pid pid = 0; pid < kInitialProcs; ++pid) {
    const SimTime start = Scripts::StartOf(pid);
    if (start == 0) {
      engine.Spawn("p", body);
    } else {
      engine.SpawnAt(start, "p", body);
    }
  }
  const RunResult result = engine.Run();
  Outcome out;
  const obs::TagId run_tag = obs.Intern("run");
  for (const obs::Event& e : obs.events()) {
    if (e.tag == run_tag && e.phase == obs::Phase::kBegin) {
      out.log.push_back(Entry{'P', e.track, e.time});
    } else if (e.tag == event_tag) {
      out.log.push_back(Entry{'E', e.track, e.time});
    }
  }
  out.dispatches = obs.CounterByName("sim.dispatches");
  out.ok = result.status.ok();
  out.end_time = result.end_time;
  out.completed = result.completed;
  out.killed = result.killed;
  return out;
}

/// The reference: Step()'s ordering rules restated as a scan over every
/// pending action, with none of the engine's heaps, stamps or fibers.
class Model {
 public:
  Model(Scripts& scripts, Coverage& coverage)
      : scripts_(scripts), coverage_(coverage) {}

  Outcome Run() {
    for (Pid pid = 0; pid < kInitialProcs; ++pid) {
      Spawn(Scripts::StartOf(pid));
    }
    while (Step()) {
    }
    out_.ok = std::none_of(procs_.begin(), procs_.end(), [](const Proc& p) {
      return p.state == State::kBlocked;
    });
    out_.end_time = frontier_;
    return out_;
  }

 private:
  enum class State : std::uint8_t {
    kReady,
    kRunning,
    kBlocked,
    kDone,
    kKilled,
  };
  struct Proc {
    const std::vector<Action>* script = nullptr;
    std::size_t pc = 0;
    SimTime clock = 0;
    SimTime wake_at = 0;
    State state = State::kReady;
    bool kill_requested = false;
    std::optional<SimTime> sleep_until;  // parked inside SleepFor's loop
  };
  struct Event {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t id;                 // scripted events only
    const std::vector<Action>* then;  // nullptr: Kill's event
    Pid victim;                       // Kill's event only
  };

  bool Step() {
    std::optional<Pid> proc;  // least (wake time, pid)
    for (Pid pid = 0; pid < procs_.size(); ++pid) {
      const Proc& p = procs_[pid];
      if (p.state != State::kReady) continue;
      if (proc && p.wake_at == procs_[*proc].wake_at) {
        ++coverage_.process_process_ties;
      }
      if (!proc || p.wake_at < procs_[*proc].wake_at) proc = pid;
    }
    std::optional<std::size_t> event;  // least (time, scheduling order)
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      if (event && e.t == events_[*event].t) ++coverage_.event_event_ties;
      if (!event || e.t < events_[*event].t ||
          (e.t == events_[*event].t && e.seq < events_[*event].seq)) {
        event = i;
      }
    }
    if (!proc && !event) return false;
    if (proc && event && events_[*event].t == procs_[*proc].wake_at) {
      ++coverage_.event_process_ties;
    }
    // An event runs before a process waking at the same time.
    if (event && (!proc || events_[*event].t <= procs_[*proc].wake_at)) {
      const Event e = events_[*event];
      events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(*event));
      RunEvent(e);
    } else {
      Dispatch(*proc);
    }
    return true;
  }

  void RunEvent(const Event& e) {
    frontier_ = std::max(frontier_, e.t);
    activation_ = e.t;
    if (e.then == nullptr) {
      KillNow(e.victim);
      return;
    }
    out_.log.push_back(Entry{'E', e.id, e.t});
    for (const Action& a : *e.then) {
      switch (a.kind) {
        case Action::kWake: Wake(Target(a), e.t + a.dt); break;
        case Action::kKillNow: KillNow(Target(a)); break;
        case Action::kEvent: Schedule(e.t + a.dt, &a.then); break;
        case Action::kSpawn: Spawn(frontier_); break;
        case Action::kSpawnAt: Spawn(e.t + a.dt); break;
        default: break;
      }
    }
  }

  void Dispatch(Pid pid) {
    Proc& p = procs_[pid];
    p.clock = std::max(p.clock, p.wake_at);
    frontier_ = std::max(frontier_, p.clock);
    activation_ = p.clock;
    p.state = State::kRunning;
    ++out_.dispatches;
    out_.log.push_back(Entry{'P', pid, p.clock});
    RunSegment(p);
    frontier_ = std::max(frontier_, p.clock);
  }

  /// Runs p's script from where it parked up to its next park or its end.
  void RunSegment(Proc& p) {
    if (p.kill_requested) {
      p.state = State::kKilled;
      ++out_.killed;
      return;
    }
    if (p.sleep_until) {
      if (p.clock < *p.sleep_until) {  // woken early: sleep on
        MakeReady(p, *p.sleep_until);
        return;
      }
      p.sleep_until.reset();
    }
    while (p.pc < p.script->size()) {
      const Action& a = (*p.script)[p.pc++];
      switch (a.kind) {
        case Action::kCompute: p.clock += a.dt; break;
        case Action::kSleep:
          if (a.dt > 0) {
            p.sleep_until = p.clock + a.dt;
            MakeReady(p, *p.sleep_until);
            return;
          }
          break;
        case Action::kYield: MakeReady(p, p.clock); return;
        case Action::kBlock: p.state = State::kBlocked; return;
        case Action::kBlockUntil: MakeReady(p, p.clock + a.dt); return;
        case Action::kWake: Wake(Target(a), p.clock + a.dt); break;
        case Action::kEvent: Schedule(p.clock + a.dt, &a.then); break;
        case Action::kSpawn: Spawn(p.clock); break;
        case Action::kSpawnAt: Spawn(p.clock + a.dt); break;
        case Action::kKill:
          events_.push_back(
              Event{p.clock + a.dt, next_seq_++, 0, nullptr, Target(a)});
          break;
        case Action::kKillNow: break;
      }
    }
    p.state = State::kDone;
    ++out_.completed;
  }

  void Wake(Pid pid, SimTime t) {
    Proc& p = procs_[pid];
    const SimTime at = std::max(t, p.clock);
    if (p.state == State::kBlocked) {
      MakeReady(p, at);
    } else if (p.state == State::kReady) {
      if (at < p.wake_at) {
        ++coverage_.decrease_keys;
        p.wake_at = at;
      } else if (at > p.wake_at) {
        ++coverage_.ignored_increases;
      }
    }
  }

  void KillNow(Pid pid) {
    Proc& p = procs_[pid];
    if (p.state == State::kDone || p.state == State::kKilled) return;
    p.kill_requested = true;
    if (activation_ > p.clock) ++coverage_.kill_clamps;
    const SimTime t = std::max(activation_, p.clock);
    if (p.state == State::kBlocked) {
      MakeReady(p, t);
    } else if (p.state == State::kReady && p.wake_at > t) {
      ++coverage_.kill_reschedules;
      p.wake_at = t;
    }
  }

  void Schedule(SimTime t, const std::vector<Action>* then) {
    events_.push_back(Event{t, next_seq_++, next_id_++, then, kNoPid});
  }

  void Spawn(SimTime start) {
    Proc p;
    p.script = &scripts_.For(static_cast<Pid>(procs_.size()));
    p.clock = start;
    p.wake_at = start;
    procs_.push_back(p);
  }

  static void MakeReady(Proc& p, SimTime t) {
    p.state = State::kReady;
    p.wake_at = t;
  }

  [[nodiscard]] Pid Target(const Action& a) const {
    return static_cast<Pid>(a.pick % procs_.size());
  }

  Scripts& scripts_;
  Coverage& coverage_;
  std::deque<Proc> procs_;  // stable references across spawns
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t next_id_ = 0;
  SimTime frontier_ = 0;
  SimTime activation_ = 0;
  Outcome out_;
};

}  // namespace refmodel

TEST(EngineTest, StepAgreesWithReferenceModel) {
  refmodel::Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    refmodel::Scripts scripts(seed);
    const refmodel::Outcome engine = refmodel::RunEngine(scripts, seed);
    const refmodel::Outcome model = refmodel::Model(scripts, coverage).Run();
    std::size_t at = 0;
    while (at < engine.log.size() && at < model.log.size() &&
           engine.log[at] == model.log[at]) {
      ++at;
    }
    ASSERT_TRUE(at == engine.log.size() && at == model.log.size())
        << "seed " << seed << ": action " << at << " differs\n  engine:"
        << refmodel::Render(engine.log, at)
        << "\n  model: " << refmodel::Render(model.log, at);
    ASSERT_EQ(engine.dispatches, model.dispatches) << "seed " << seed;
    ASSERT_EQ(engine.ok, model.ok) << "seed " << seed;
    ASSERT_EQ(engine.end_time, model.end_time) << "seed " << seed;
    ASSERT_EQ(engine.completed, model.completed) << "seed " << seed;
    ASSERT_EQ(engine.killed, model.killed) << "seed " << seed;
  }
  // Every rule the model restates was put to the test.
  EXPECT_GT(coverage.event_process_ties, 0);
  EXPECT_GT(coverage.event_event_ties, 0);
  EXPECT_GT(coverage.process_process_ties, 0);
  EXPECT_GT(coverage.decrease_keys, 0);
  EXPECT_GT(coverage.ignored_increases, 0);
  EXPECT_GT(coverage.kill_reschedules, 0);
  EXPECT_GT(coverage.kill_clamps, 0);
}

// --------------------------------------------------------------------------
// Scheduling-heap lazy deletion under decrease-key churn. Every Wake on an
// already-ready process pushes a fresh generation-stamped entry and leaves
// the old one to be discarded when it surfaces; these regressions flood
// the heap with stale entries and check the dispatch order and counters
// the stamps are supposed to protect.
// --------------------------------------------------------------------------

TEST(SchedHeapTest, DecreaseKeyFloodDispatchesOnceAtFinalTime) {
  Engine engine;
  int resumes = 0;
  SimTime resumed_at = -1;
  // pid 0 dispatches first at t=0 (tie broken by pid) and parks before
  // the driver starts churning it.
  const Pid target = engine.Spawn("sleeper", [&](Context& ctx) {
    ctx.Block("await churn");
    ++resumes;
    resumed_at = ctx.now();
  });
  engine.Spawn("driver", [&](Context& ctx) {
    Engine& eng = ctx.engine();
    eng.Wake(target, 1000.0);  // blocked -> ready at 1000
    // 2000 decrease-keys: each strictly lowers the wake time, so each
    // pushes a fresh stamped entry and strands the previous one.
    const int kChurn = 2000;
    for (int i = 0; i < kChurn; ++i) {
      eng.Wake(target, 999.0 - 0.25 * i);
    }
    // Increase attempts must be ignored (an already-scheduled process's
    // wake time only ever decreases).
    eng.Wake(target, 5000.0);
  });
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(resumes, 1);
  EXPECT_DOUBLE_EQ(resumed_at, 999.0 - 0.25 * 1999);
  // sleeper parks, driver churns, sleeper resumes once: 3 dispatches, not
  // one per stale entry.
  EXPECT_EQ(engine.obs().CounterByName("sim.dispatches"), 3u);
}

TEST(SchedHeapTest, PopAfterManyStampsPreservesGlobalOrder) {
  // 50 parked processes, 40 decrease-key rounds each: the ready heap ends
  // up with 2050 entries of which 2000 are stale. The final wake times
  // are strictly decreasing in pid, so the resume order must be exactly
  // reversed — any stale entry surviving its stamp check would scramble
  // it.
  Engine engine;
  std::vector<int> order;
  const int n = 50;
  const SimTime far = 1e6;
  std::vector<Pid> pids;
  for (int i = 0; i < n; ++i) {
    pids.push_back(engine.Spawn(Numbered("p", i),
                                [&order, i](Context& ctx) {
                                  ctx.Block("await churn");
                                  order.push_back(i);
                                }));
  }
  engine.Spawn("driver", [&pids, n, far](Context& ctx) {
    for (int round = 0; round <= 40; ++round) {
      for (int i = 0; i < n; ++i) {
        ctx.engine().Wake(pids[static_cast<std::size_t>(i)],
                          far - round * (i + 1));
      }
    }
  });
  ASSERT_TRUE(engine.Run().status.ok());
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], n - 1 - i) << "slot " << i;
  }
}

TEST(FiberSchedulerTest, StackPoolReusesAcrossSequentialSpawns) {
  // Processes whose lifetimes never overlap share one pooled stack: the
  // allocated counter stays at 1 while reuse climbs.
  Engine engine(1);
  for (int i = 0; i < 32; ++i) {
    engine.SpawnAt(static_cast<SimTime>(i), Numbered("seq", i),
                   [](Context& ctx) { ctx.Compute(0.5); });
  }
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_EQ(engine.obs().CounterByName("sim.fiber.stacks_allocated"), 1u);
  EXPECT_EQ(engine.obs().CounterByName("sim.fiber.stacks_reused"), 31u);
}

// The rounding mode as both FP units see it: fegetround() reads the x87
// control word, and a runtime SSE division reads the MXCSR (1/3 comes out
// above its round-to-nearest value only when rounding upward).
struct Rounding {
  int x87;
  bool sse_upward;
};
Rounding ReadRounding() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return {std::fegetround(), one / three > 0.3333333333333333};
}

TEST(FiberSchedulerTest, RoundingModeStaysWithTheFiberThatSetIt) {
  // The switch saves the MXCSR and the x87 control word with the other
  // callee-saved state, so a fiber's fesetround holds across its parks and
  // reaches neither the engine nor another fiber.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Engine engine(1);
  Rounding parked{};
  Rounding in_engine{};
  Rounding other{};
  Rounding resumed{};
  engine.Spawn("upward", [&](Context& ctx) {
    std::fesetround(FE_UPWARD);
    parked = ReadRounding();
    ctx.SleepUntil(2.0);
    resumed = ReadRounding();
  });
  engine.ScheduleEvent(1.0, [&] { in_engine = ReadRounding(); });
  engine.SpawnAt(1.5, "other", [&](Context&) { other = ReadRounding(); });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_EQ(parked.x87, FE_UPWARD);
  EXPECT_TRUE(parked.sse_upward);
  EXPECT_EQ(in_engine.x87, FE_TONEAREST);
  EXPECT_FALSE(in_engine.sse_upward);
  EXPECT_EQ(other.x87, FE_TONEAREST);
  EXPECT_FALSE(other.sse_upward);
  EXPECT_EQ(resumed.x87, FE_UPWARD);
  EXPECT_TRUE(resumed.sse_upward);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_FALSE(ReadRounding().sse_upward);
}

TEST(FiberSchedulerTest, BacktraceStopsAtTheFiberBase) {
  // A fiber's first frame ends in a null return address, so an unwinder
  // walking up from a body stops at the fiber's base rather than running
  // on into whatever the slice held. The fibers run one after another, so
  // the later ones start on a reused slice.
  constexpr int kMaxFrames = 256;
  Engine engine(1);
  std::vector<int> depths;
  for (int i = 0; i < 3; ++i) {
    engine.SpawnAt(static_cast<SimTime>(i), Numbered("trace", i),
                   [&](Context& ctx) {
                     void* frames[kMaxFrames];
                     depths.push_back(backtrace(frames, kMaxFrames));
                     ctx.Yield();
                     depths.push_back(backtrace(frames, kMaxFrames));
                   });
  }
  ASSERT_TRUE(engine.Run().status.ok());
  ASSERT_EQ(depths.size(), 6u);
  for (const int depth : depths) {
    EXPECT_GT(depth, 0);
    EXPECT_LT(depth, kMaxFrames);
  }
  EXPECT_EQ(engine.obs().CounterByName("sim.fiber.stacks_reused"), 2u);
}

// Parks in its destructor, so an exception unwinding through its scope
// is suspended mid-flight.
struct ParkOnUnwind {
  Context& ctx;
  ~ParkOnUnwind() { ctx.SleepFor(1.0); }
};

TEST(FiberSchedulerTest, ExceptionThrownBeforeAParkIsCaughtAfterIt) {
  // The unwinder's state lives on the fiber's stack and in the exception
  // object, so a throw whose unwinding parks is caught after the resume,
  // in the frame that threw, even though another fiber threw and caught
  // its own exception while the first was parked.
  Engine engine(1);
  std::string caught;
  std::string other_caught;
  engine.Spawn("thrower", [&](Context& ctx) {
    try {
      const ParkOnUnwind park{ctx};
      throw std::runtime_error("thrown before the park");
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  });
  engine.SpawnAt(0.5, "other", [&](Context&) {
    try {
      throw std::logic_error("thrown during the park");
    } catch (const std::logic_error& e) {
      other_caught = e.what();
    }
  });
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(caught, "thrown before the park");
  EXPECT_EQ(other_caught, "thrown during the park");
}

TEST(ConditionTest, DropsKilledWaiter) {
  Engine engine;
  Condition cond;
  bool victim_released = false;
  bool survivor_released = false;
  const Pid victim = engine.Spawn("victim", [&](Context& ctx) {
    cond.Wait(ctx, "cond");
    victim_released = true;
  });
  engine.Spawn("survivor", [&](Context& ctx) {
    ctx.Compute(0.5);
    cond.Wait(ctx, "cond");
    survivor_released = true;
  });
  engine.Spawn("driver", [&](Context& ctx) {
    ctx.engine().Kill(victim, 1.0);
    ctx.SleepUntil(2.0);
    EXPECT_TRUE(cond.NotifyOne(ctx.engine(), ctx.now()));
  });
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_FALSE(victim_released);
  EXPECT_TRUE(survivor_released);
}

TEST(ConditionTest, ManyKilledWaitersDoNotStallNotify) {
  // Regression for the O(n) find-erase on kill-unwind and the O(dead)
  // rescan in NotifyOne: pile up killed waiters in front of one live one
  // and check a single NotifyOne releases it, with waiter_count tracking
  // live (not queued) slots throughout.
  Engine engine(1);
  Condition cond;
  const int kDead = 500;
  int released = 0;
  for (int i = 0; i < kDead; ++i) {
    const Pid victim =
        engine.Spawn(Numbered("dead", i), [&](Context& ctx) {
          cond.Wait(ctx, "cond");
          ADD_FAILURE() << "killed waiter resumed";
        });
    engine.Kill(victim, 1.0);
  }
  engine.Spawn("live", [&](Context& ctx) {
    ctx.Compute(0.5);  // enqueue behind every doomed waiter
    cond.Wait(ctx, "cond");
    ++released;
  });
  engine.Spawn("driver", [&](Context& ctx) {
    ctx.SleepUntil(2.0);
    EXPECT_EQ(cond.waiter_count(), 1u);  // corpses already discounted
    EXPECT_TRUE(cond.NotifyOne(ctx.engine(), ctx.now()));
  });
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.killed, static_cast<std::size_t>(kDead));
  EXPECT_EQ(released, 1);
  EXPECT_EQ(cond.waiter_count(), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
#define PSTK_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSTK_TEST_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define PSTK_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSTK_TEST_TSAN 1
#endif
#endif

TEST(FiberSchedulerTest, HundredThousandProcessStorm) {
  // The scale the fiber backend exists for; thread-per-process would need
  // 10^5 OS threads, so this is fiber-gated. Reduced under ASan, whose
  // doubled stacks and shadow memory make the full count needlessly slow,
  // and under TSan, which counts every live __tsan_create_fiber context
  // against its hard 8128-thread limit and dies past it.
#if defined(PSTK_TEST_TSAN)
  const int n = 4000;
#elif defined(PSTK_TEST_ASAN)
  const int n = 20000;
#else
  const int n = 100000;
#endif
  Engine engine(1);
  long long done = 0;
  for (int i = 0; i < n; ++i) {
    engine.Spawn(Numbered("p", i), [&, i](Context& ctx) {
      ctx.Compute(1e-6 * i);
      ctx.Yield();
      ++done;
    });
  }
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(done, n);
  EXPECT_EQ(result.completed, static_cast<std::size_t>(n));
}

// Frames of at least kFrameBytes, every byte written, so a recursion that
// runs off its stack writes over the canary rather than skipping it. Not
// ASan-instrumented: ASan would put unwritten redzones between the frames,
// and the canary could fall into one.
constexpr std::size_t kFrameBytes = 1024;

[[gnu::noinline, gnu::no_sanitize_address]] void Recurse(Context& ctx,
                                                         std::size_t depth) {
  volatile char frame[kFrameBytes];
  for (std::size_t i = 0; i < kFrameBytes; ++i) {
    frame[i] = static_cast<char>(depth);
  }
  if (depth == 0) {
    ctx.Yield();  // park with every frame still live
  } else {
    Recurse(ctx, depth - 1);
  }
  frame[0] = frame[kFrameBytes - 1];  // keeps the frame live across the call
}

TEST(FiberSchedulerDeathTest, StackOverflowAbortsNamingProcessAndKnob) {
  // Recurse a quarter past the end of the configured stack. The overrun
  // lands in the slice below, which belongs to a neighbour that ran first
  // and is parked; the engine must abort on the switch back, before that
  // neighbour can run on its damaged stack.
  const std::size_t depth = FiberStackBytes() / kFrameBytes * 5 / 4;
  EXPECT_DEATH(
      {
        Engine engine;
        engine.Spawn("neighbour", [](Context& ctx) { ctx.Block("parked"); });
        engine.Spawn("deep", [depth](Context& ctx) { Recurse(ctx, depth); });
        (void)engine.Run();
      },
      "process 'deep' \\(pid 1\\) overran its [0-9]+ KiB fiber stack.*"
      "raise PSTK_SIM_STACK_KB");
}

TEST(FiberSchedulerTest, StackSizeComesFromWholeKibibytes) {
  ::setenv("PSTK_SIM_STACK_KB", "128", 1);
  EXPECT_EQ(FiberStackBytes(), std::size_t{128} << 10);
  ::setenv("PSTK_SIM_STACK_KB", "64", 1);
  EXPECT_EQ(FiberStackBytes(), std::size_t{64} << 10);
  ::setenv("PSTK_SIM_STACK_KB", "", 1);  // empty reads as unset
#if defined(PSTK_TEST_ASAN)
  EXPECT_EQ(FiberStackBytes(), std::size_t{512} << 10);
#else
  EXPECT_EQ(FiberStackBytes(), std::size_t{256} << 10);
#endif
  ::unsetenv("PSTK_SIM_STACK_KB");
}

TEST(FiberSchedulerDeathTest, MalformedStackSizeAbortsNamingTheVariable) {
  // Regression: strtol stopped at the first non-digit, so "1M" meant
  // 1 KiB (clamped to 64) and "abc" silently kept the default.
  // 18014398509481984 KiB is 2^64 bytes: shifting it to bytes overflows.
  for (const char* bad : {"1M", "abc", "63", "0", "-256", "+256", " 256",
                          "256KB", "18014398509481984"}) {
    ::setenv("PSTK_SIM_STACK_KB", bad, 1);
    EXPECT_DEATH({ Engine engine; },
                 std::string("PSTK_SIM_STACK_KB='") +
                     (bad[0] == '+' ? "\\" : "") + bad +
                     "' is not a whole number of KiB")
        << bad;
  }
  ::unsetenv("PSTK_SIM_STACK_KB");
}

// --------------------------------------------------------------------------
// Timeline
// --------------------------------------------------------------------------

TEST(TimelineTest, SerializesOverlappingOps) {
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.Acquire(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(tl.Acquire(0.0, 2.0), 4.0);  // queued behind first
  EXPECT_DOUBLE_EQ(tl.Acquire(10.0, 1.0), 11.0);  // idle gap
  EXPECT_DOUBLE_EQ(tl.busy_time(), 5.0);
}

TEST(TimelineTest, PeekDoesNotReserve) {
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.Peek(0.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(tl.Peek(0.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(tl.next_free(), 0.0);
}

TEST(TimelineTest, FairShareEquivalence) {
  // k equal ops issued together complete at k * d, like processor sharing.
  Timeline tl;
  const int k = 4;
  SimTime last = 0;
  for (int i = 0; i < k; ++i) last = tl.Acquire(0.0, 1.0);
  EXPECT_DOUBLE_EQ(last, 4.0);
}

TEST(ConcurrencyWindowTest, CountsOverlaps) {
  ConcurrencyWindow win;
  EXPECT_EQ(win.Record(0.0, 2.0), 0u);
  EXPECT_EQ(win.Record(1.0, 3.0), 1u);
  // Non-overlapping later op: prior spans are pruned (starts nondecreasing).
  EXPECT_EQ(win.Record(5.0, 6.0), 0u);
}

}  // namespace
}  // namespace pstk::sim
