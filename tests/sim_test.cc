#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/timeline.h"

namespace pstk::sim {
namespace {

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
    engine.Spawn("w" + std::to_string(i), [&](Context& ctx) {
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
    engine.Spawn("w" + std::to_string(i), [&, i](Context& ctx) {
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
      engine.Spawn("p" + std::to_string(i), [&, i](Context& ctx) {
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
      engine.Spawn("p" + std::to_string(i), [&, i](Context& ctx) {
        ctx.Compute(ctx.rng().Uniform(0.0, 1.0));
        ctx.Trace("step", "p" + std::to_string(i));
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
    engine.Spawn("p" + std::to_string(i), [&, i](Context& ctx) {
      ctx.Compute(0.001 * i);
      ++done;
    });
  }
  auto result = engine.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(done.load(), n);
}

// --------------------------------------------------------------------------
// Cross-backend equivalence: the fiber scheduler's acceptance oracle. Both
// execution backends implement one scheduling contract, so every
// observable — trace bytes, RunResult, deadlock diagnostics, kill/unwind
// behavior — must be identical between them.
// --------------------------------------------------------------------------

class BackendTest : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(
    All, BackendTest, ::testing::Values(Backend::kFibers, Backend::kThreads),
    [](const ::testing::TestParamInfo<Backend>& param) {
      return std::string(BackendName(param.param));
    });

TEST_P(BackendTest, KillRunsRaiiCleanup) {
  Engine engine(1, GetParam());
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

TEST_P(BackendTest, ConditionDropsKilledWaiter) {
  Engine engine(1, GetParam());
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

TEST_P(BackendTest, DeadlockUnwindsBlockedProcesses) {
  Engine engine(1, GetParam());
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

TEST_P(BackendTest, ExceptionUnwindsBystanders) {
  // A throwing process aborts the run; processes still parked must be
  // force-unwound (RAII runs) on either backend before Run rethrows.
  Engine engine(1, GetParam());
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

namespace crossbackend {

// A workload exercising every scheduler path: RNG-staggered computes,
// yields, sleeps, condition waits/notifies, events, a fault-injected kill,
// and user trace instants.
struct Observed {
  std::string trace_json;
  std::uint64_t dispatches = 0;
  Status status;
  SimTime end_time = 0;
  std::size_t completed = 0;
  std::size_t killed = 0;
};

Observed RunMixedWorkload(Backend backend) {
  Engine engine(1234, backend);
  engine.EnableTrace(true);
  Condition cond;
  for (int i = 0; i < 12; ++i) {
    engine.Spawn("p" + std::to_string(i), [&, i](Context& ctx) {
      ctx.Compute(ctx.rng().Uniform(0.0, 1.0));
      ctx.Trace("step", "a" + std::to_string(i));
      if (i % 3 == 0) {
        cond.Wait(ctx, "trio");
      } else if (i % 3 == 1) {
        ctx.SleepFor(0.5);
        cond.NotifyOne(ctx.engine(), ctx.now());
      } else {
        ctx.Yield();
        ctx.Compute(0.25);
      }
      ctx.Trace("step", "b" + std::to_string(i));
    });
  }
  const Pid victim =
      engine.Spawn("victim", [](Context& ctx) { ctx.Block("doomed"); });
  engine.Kill(victim, 0.75);
  engine.ScheduleEvent(0.25, [&engine] {
    engine.Spawn("late", [](Context& ctx) { ctx.Compute(0.125); });
  });
  auto result = engine.Run();
  Observed out;
  out.trace_json = engine.obs().ToChromeTraceJson();
  out.dispatches = engine.obs().CounterByName("sim.dispatches");
  out.status = result.status;
  out.end_time = result.end_time;
  out.completed = result.completed;
  out.killed = result.killed;
  return out;
}

}  // namespace crossbackend

TEST(CrossBackendTest, MixedWorkloadIsByteIdentical) {
  const auto fibers = crossbackend::RunMixedWorkload(Backend::kFibers);
  const auto threads = crossbackend::RunMixedWorkload(Backend::kThreads);
  EXPECT_TRUE(fibers.status.ok()) << fibers.status.ToString();
  EXPECT_EQ(fibers.trace_json, threads.trace_json);  // byte-identical
  EXPECT_EQ(fibers.dispatches, threads.dispatches);
  EXPECT_EQ(fibers.status.ToString(), threads.status.ToString());
  EXPECT_DOUBLE_EQ(fibers.end_time, threads.end_time);
  EXPECT_EQ(fibers.completed, threads.completed);
  EXPECT_EQ(fibers.killed, threads.killed);
  EXPECT_EQ(fibers.killed, 1u);
}

TEST(CrossBackendTest, DeadlockReportsMatch) {
  auto run = [](Backend backend) {
    Engine engine(1, backend);
    const Pid a = engine.Spawn("hold.a", [](Context& ctx) {
      ctx.BlockOn("lock b", 1);  // waits on hold.b
    });
    engine.Spawn("hold.b", [a](Context& ctx) {
      ctx.Compute(0.5);
      ctx.BlockOn("lock a", a);
    });
    return engine.Run().status.ToString();
  };
  const std::string fibers = run(Backend::kFibers);
  const std::string threads = run(Backend::kThreads);
  EXPECT_EQ(fibers, threads);
  EXPECT_NE(fibers.find("lock"), std::string::npos);
}

TEST(CrossBackendTest, BackendCounterIdentifiesScheduler) {
  Engine fibers(1, Backend::kFibers);
  Engine threads(1, Backend::kThreads);
  EXPECT_EQ(fibers.obs().CounterByName("sim.backend.fibers"), 1u);
  EXPECT_EQ(fibers.obs().CounterByName("sim.backend.threads"), 0u);
  EXPECT_EQ(threads.obs().CounterByName("sim.backend.threads"), 1u);
  EXPECT_EQ(fibers.backend(), Backend::kFibers);
  EXPECT_EQ(threads.backend(), Backend::kThreads);
}

// --------------------------------------------------------------------------
// Backend name parsing: --sim-backend= and PSTK_SIM_BACKEND share one
// parser, and unknown spellings must fail loudly with the valid list.
// --------------------------------------------------------------------------

TEST(BackendParseTest, AcceptsExactlyTheDocumentedSpellings) {
  EXPECT_EQ(ParseBackendName("fibers"), Backend::kFibers);
  EXPECT_EQ(ParseBackendName("threads"), Backend::kThreads);
  EXPECT_FALSE(ParseBackendName("").has_value());
  EXPECT_FALSE(ParseBackendName("Fibers").has_value());
  EXPECT_FALSE(ParseBackendName("fiber").has_value());
  EXPECT_FALSE(ParseBackendName("green-threads").has_value());
  EXPECT_EQ(ValidBackendNames(), "fibers, threads");
  EXPECT_EQ(BackendName(Backend::kFibers), "fibers");
  EXPECT_EQ(BackendName(Backend::kThreads), "threads");
}

TEST(BackendParseDeathTest, UnknownEnvValueDiesListingValidBackends) {
  // Regression: an unrecognized PSTK_SIM_BACKEND used to degrade to a
  // warning + silent fibers fallback; it must abort naming the valid set.
  ::setenv("PSTK_SIM_BACKEND", "green-threads", 1);
  EXPECT_DEATH(
      { (void)DefaultBackend(); },
      "unknown PSTK_SIM_BACKEND 'green-threads'.*valid backends: "
      "fibers, threads");
  ::unsetenv("PSTK_SIM_BACKEND");
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
    pids.push_back(engine.Spawn("p" + std::to_string(i),
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
  Engine engine(1, Backend::kFibers);
  for (int i = 0; i < 32; ++i) {
    engine.SpawnAt(static_cast<SimTime>(i), "seq" + std::to_string(i),
                   [](Context& ctx) { ctx.Compute(0.5); });
  }
  ASSERT_TRUE(engine.Run().status.ok());
  EXPECT_EQ(engine.obs().CounterByName("sim.fiber.stacks_allocated"), 1u);
  EXPECT_EQ(engine.obs().CounterByName("sim.fiber.stacks_reused"), 31u);
}

TEST(ConditionTest, ManyKilledWaitersDoNotStallNotify) {
  // Regression for the O(n) find-erase on kill-unwind and the O(dead)
  // rescan in NotifyOne: pile up killed waiters in front of one live one
  // and check a single NotifyOne releases it, with waiter_count tracking
  // live (not queued) slots throughout.
  Engine engine(1, Backend::kFibers);
  Condition cond;
  const int kDead = 500;
  int released = 0;
  for (int i = 0; i < kDead; ++i) {
    const Pid victim =
        engine.Spawn("dead" + std::to_string(i), [&](Context& ctx) {
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
  Engine engine(1, Backend::kFibers);
  long long done = 0;
  for (int i = 0; i < n; ++i) {
    engine.Spawn("p" + std::to_string(i), [&, i](Context& ctx) {
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

// --------------------------------------------------------------------------
// Timeline
// --------------------------------------------------------------------------

TEST(TimelineTest, SerializesOverlappingOps) {
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.Acquire(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(tl.Acquire(0.0, 2.0), 4.0);  // queued behind first
  EXPECT_DOUBLE_EQ(tl.Acquire(10.0, 1.0), 11.0);  // idle gap
  EXPECT_DOUBLE_EQ(tl.busy_time(), 5.0);
  EXPECT_EQ(tl.op_count(), 3u);
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

TEST(ChannelBankTest, ParallelChannels) {
  ChannelBank bank(2);
  EXPECT_DOUBLE_EQ(bank.Acquire(0.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(bank.Acquire(0.0, 5.0), 5.0);   // second channel
  EXPECT_DOUBLE_EQ(bank.Acquire(0.0, 5.0), 10.0);  // queues
}

TEST(ConcurrencyWindowTest, CountsOverlaps) {
  ConcurrencyWindow win;
  EXPECT_EQ(win.Record(0.0, 2.0), 0u);
  EXPECT_EQ(win.Record(1.0, 3.0), 1u);
  EXPECT_EQ(win.active_at(1.5), 2u);
  // Non-overlapping later op: prior spans are pruned (starts nondecreasing).
  EXPECT_EQ(win.Record(5.0, 6.0), 0u);
  EXPECT_EQ(win.active_at(4.0), 0u);
  EXPECT_EQ(win.active_at(5.5), 1u);
}

}  // namespace
}  // namespace pstk::sim
