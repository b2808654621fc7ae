#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "sim/fiber.h"

namespace pstk::sim {

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Pid Context::pid() const { return pid_; }

const std::string& Context::name() const {
  return engine_.procs_[pid_]->name;
}

int Context::node() const { return engine_.procs_[pid_]->node; }

SimTime Context::now() const { return engine_.procs_[pid_]->clock; }

Rng& Context::rng() { return engine_.procs_[pid_]->rng; }

void Context::Compute(SimTime seconds) {
  PSTK_CHECK_MSG(seconds >= 0, "negative compute time " << seconds);
  engine_.procs_[pid_]->clock += seconds;
}

void Context::SleepUntil(SimTime t) {
  // Loop: a stray Wake may resume us early; keep sleeping until t.
  while (engine_.procs_[pid_]->clock < t) {
    engine_.ProcBlockUntil(pid_, t, "sleep");
  }
}

void Context::Yield() {
  engine_.ProcBlockUntil(pid_, engine_.procs_[pid_]->clock, "yield");
}

SimTime Context::Block(std::string_view reason) {
  return engine_.ProcBlock(pid_, reason);
}

SimTime Context::BlockOn(std::string_view reason, std::function<Pid()> holder) {
  return engine_.ProcBlock(pid_, reason, std::move(holder));
}

SimTime Context::BlockUntil(SimTime t, std::string_view reason) {
  return engine_.ProcBlockUntil(pid_, t, reason);
}

void Context::Trace(std::string_view tag, std::string_view detail) {
  obs::Registry& reg = engine_.obs_;
  if (!reg.enabled()) return;
  reg.Instant(node(), pid_, reg.Intern(tag), now(),
              detail.empty() ? obs::kNoTag : reg.Intern(detail));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(std::uint64_t seed) : seed_(seed) {
  // Made here, not in the init list: the switcher interns its counters
  // into obs_, which is declared after fibers_.
  fibers_ = std::make_unique<FiberSwitcher>(*this, obs_);
  tags_.dispatches = obs_.Intern("sim.dispatches");
  tags_.events = obs_.Intern("sim.events");
  tags_.wakes = obs_.Intern("sim.wakes");
  tags_.spawns = obs_.Intern("sim.spawns");
  tags_.kills = obs_.Intern("sim.kills");
  tags_.run = obs_.Intern("run");
  tags_.kill = obs_.Intern("killed");
  tags_.block = obs_.Intern("block");
  tags_.dispatch_ns = obs_.Intern("sim.dispatch.host_ns");
}

void Engine::EnableTrace(bool on) {
  obs_.Enable(on);
  if (on) {
    // Name tracks for processes spawned before tracing was switched on.
    for (Pid pid = 0; pid < procs_.size(); ++pid) {
      obs_.SetTrackName(procs_[pid]->node, pid, procs_[pid]->name);
    }
  }
}

Engine::~Engine() { JoinAll(); }

Pid Engine::Spawn(std::string name, ProcessBody body, int node) {
  SimTime start = 0;
  if (running_ != kNoPid) {
    start = procs_[running_]->clock;
  } else if (running_loop_) {
    // Spawned from an event handler mid-run (e.g. a scheduler arrival):
    // the child starts at the event's instant, not back at t=0.
    start = frontier_;
  }
  return SpawnAt(start, std::move(name), std::move(body), node);
}

Pid Engine::SpawnAt(SimTime start, std::string name, ProcessBody body,
                    int node) {
  const Pid pid = static_cast<Pid>(procs_.size());
  auto proc = std::make_unique<Proc>();
  proc->name = std::move(name);
  proc->node = node;
  proc->body = std::move(body);
  proc->context = std::unique_ptr<Context>(new Context(*this, pid));
  proc->rng = Rng(seed_ ^ (0x9E3779B97F4A7C15ULL * (pid + 1)));
  proc->clock = start;
  procs_.push_back(std::move(proc));
  MakeReady(pid, start);
  obs_.Add(tags_.spawns);
  if (obs_.enabled()) {
    obs_.SetTrackName(procs_[pid]->node, pid, procs_[pid]->name);
  }
  return pid;
}

void Engine::MakeReady(Pid pid, SimTime wake_at) {
  Proc& p = *procs_[pid];
  p.state = ProcState::kReady;
  p.wake_at = wake_at;
  ready_.Push(ReadyEntry{wake_at, pid, ++p.ready_stamp});
}

void Engine::RemoveReady(Pid pid) {
  // Lazy deletion: bump the stamp so any queued entry for this pid is
  // stale; PruneReady discards it when it reaches the top.
  ++procs_[pid]->ready_stamp;
}

void Engine::PruneReady() {
  while (!ready_.empty()) {
    const ReadyEntry& top = ready_.Top();
    const Proc& p = *procs_[top.pid];
    if (top.stamp == p.ready_stamp && p.state == ProcState::kReady) return;
    ready_.PopTop();
  }
}

void Engine::Wake(Pid pid, SimTime t) {
  PSTK_CHECK_MSG(pid < procs_.size(), "Wake: bad pid " << pid);
  obs_.Add(tags_.wakes);
  Proc& p = *procs_[pid];
  switch (p.state) {
    case ProcState::kBlocked:
      MakeReady(pid, std::max(t, p.clock));
      break;
    case ProcState::kReady: {
      const SimTime new_wake = std::max(t, p.clock);
      if (new_wake < p.wake_at) {
        // Decrease-key: supersede the queued entry with a fresh stamp.
        RemoveReady(pid);
        MakeReady(pid, new_wake);
      }
      break;
    }
    case ProcState::kRunning:
    case ProcState::kDone:
    case ProcState::kKilled:
      break;  // nothing to wake
  }
}

void Engine::ScheduleEvent(SimTime t, std::function<void()> fn) {
  events_.Push(EventEntry{t, event_seq_++, std::move(fn)});
}

void Engine::Kill(Pid pid, SimTime t) {
  PSTK_CHECK_MSG(pid < procs_.size(), "Kill: bad pid " << pid);
  ScheduleEvent(t, [this, pid] { KillNow(pid); });
}

void Engine::KillNow(Pid pid) {
  PSTK_CHECK_MSG(pid < procs_.size(), "Kill: bad pid " << pid);
  Proc& p = *procs_[pid];
  if (p.state == ProcState::kDone || p.state == ProcState::kKilled) return;
  p.kill_requested = true;
  obs_.Add(tags_.kills);
  // The kill lands at the initiating action's virtual time, clamped to the
  // victim's own clock.
  const SimTime t = std::max(activation_, p.clock);
  if (obs_.enabled()) {
    obs_.Instant(p.node, pid, tags_.kill, t);
  }
  if (p.state == ProcState::kBlocked) {
    MakeReady(pid, t);
  } else if (p.state == ProcState::kReady && p.wake_at > t) {
    // Die promptly rather than at the (possibly distant) scheduled wake.
    RemoveReady(pid);
    MakeReady(pid, t);
  }
}

std::vector<Pid> Engine::AlivePidsOnNode(int node) const {
  std::vector<Pid> pids;
  for (Pid pid = 0; pid < procs_.size(); ++pid) {
    if (procs_[pid]->node == node && IsAlive(pid)) pids.push_back(pid);
  }
  return pids;
}

bool Engine::IsAlive(Pid pid) const {
  if (pid >= procs_.size()) return false;
  const ProcState s = procs_[pid]->state;
  return s != ProcState::kDone && s != ProcState::kKilled;
}

namespace {
// "mpi-rank-3" -> "mpi"; "shmem-pe-0" -> "shmem"; "driver" -> "driver".
std::string FrameworkOf(const std::string& name) {
  const auto dash = name.find('-');
  return dash == std::string::npos ? name : name.substr(0, dash);
}
}  // namespace

std::string Engine::DeadlockReport() const {
  std::ostringstream oss;
  oss << "wait-for graph:\n";
  std::map<std::string, int> blame;
  for (Pid pid = 0; pid < procs_.size(); ++pid) {
    const Proc& p = *procs_[pid];
    if (p.state != ProcState::kBlocked) continue;
    ++blame[FrameworkOf(p.name)];
    oss << "  " << p.name << " (pid " << pid << ", t=" << p.clock
        << ") waits [" << p.wait_reason << "]";
    const Pid held_by = p.WaitHolder();
    if (held_by != kNoPid && held_by < procs_.size()) {
      const Proc& h = *procs_[held_by];
      oss << " -> held by " << h.name << " (pid " << held_by << ")";
    } else {
      oss << " -> held by (no known owner)";
    }
    oss << "\n";
  }

  // Cycle extraction. Each blocked process has at most one wait-for edge
  // (its holder), so the graph is functional: follow holders, coloring
  // nodes; re-meeting a node from the current walk closes a cycle.
  //   0 = unvisited, 1 = on the current walk, 2 = finished.
  std::vector<std::uint8_t> color(procs_.size(), 0);
  std::vector<std::string> cycles;
  auto blocked_holder = [&](Pid pid) -> Pid {
    const Proc& p = *procs_[pid];
    if (p.state != ProcState::kBlocked) return kNoPid;
    const Pid held_by = p.WaitHolder();
    if (held_by == kNoPid || held_by >= procs_.size()) return kNoPid;
    return procs_[held_by]->state == ProcState::kBlocked ? held_by : kNoPid;
  };
  for (Pid start = 0; start < procs_.size(); ++start) {
    if (color[start] != 0 || procs_[start]->state != ProcState::kBlocked) {
      continue;
    }
    std::vector<Pid> walk;
    Pid cur = start;
    while (cur != kNoPid && color[cur] == 0) {
      color[cur] = 1;
      walk.push_back(cur);
      cur = blocked_holder(cur);
    }
    if (cur != kNoPid && color[cur] == 1) {
      // cur is on the current walk: the suffix from cur is a cycle.
      std::ostringstream cyc;
      bool in_cycle = false;
      for (Pid pid : walk) {
        if (pid == cur) in_cycle = true;
        if (in_cycle) cyc << procs_[pid]->name << " -> ";
      }
      cyc << procs_[cur]->name;
      cycles.push_back(cyc.str());
    }
    for (Pid pid : walk) color[pid] = 2;
  }

  if (cycles.empty()) {
    oss << "no wait-for cycle among simulated processes (a process waits "
           "on an event that never fires)\n";
  } else {
    for (const std::string& cycle : cycles) {
      oss << "wait-for cycle: " << cycle << "\n";
    }
  }
  oss << "blame:";
  for (const auto& [framework, count] : blame) {
    oss << " " << framework << "=" << count;
  }
  oss << " blocked process(es)\n";
  return oss.str();
}

void Engine::ExecuteBody(Proc& p) {
  try {
    if (p.kill_requested) throw ProcessKilled{};
    p.body(*p.context);
    p.state = ProcState::kDone;
    ++completed_;
  } catch (const ProcessKilled&) {
    p.state = ProcState::kKilled;
    ++killed_;
  } catch (...) {
    p.error = std::current_exception();
    p.state = ProcState::kDone;
    ++completed_;
  }
}

void Engine::DispatchProc(Pid pid) {
  Proc& p = *procs_[pid];
  PSTK_CHECK(p.state == ProcState::kReady);
  p.clock = std::max(p.clock, p.wake_at);
  frontier_ = std::max(frontier_, p.clock);
  activation_ = p.clock;
  p.state = ProcState::kRunning;
  running_ = pid;

  obs_.Add(tags_.dispatches);
  const bool traced = obs_.enabled();
  std::chrono::steady_clock::time_point host_start;
  if (traced) {
    obs_.BeginSpan(p.node, pid, tags_.run, p.clock);
    host_start = std::chrono::steady_clock::now();
  }

  fibers_->Resume(p);

  running_ = kNoPid;
  if (traced) {
    // Host-clock dispatch latency (the one intentionally nondeterministic
    // metric; it never enters the trace event stream).
    obs_.Observe(tags_.dispatch_ns,
                 static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - host_start)
                         .count()));
    obs_.EndSpan(p.node, pid, tags_.run, p.clock);
  }
}

void Engine::ProcYieldToEngine(Proc& p) {
  fibers_->Suspend(p);
  CheckKilled(p);
}

void Engine::CheckKilled(Proc& p) {
  if (p.kill_requested) throw ProcessKilled{};
}

SimTime Engine::ProcBlock(Pid pid, std::string_view reason,
                          std::function<Pid()> holder) {
  Proc& p = *procs_[pid];
  PSTK_CHECK(p.state == ProcState::kRunning);
  p.state = ProcState::kBlocked;
  p.wait_reason = reason;
  p.wait_holder = std::move(holder);
  if (obs_.enabled()) {
    obs_.Instant(p.node, pid, tags_.block, p.clock, obs_.Intern(reason));
  }
  ProcYieldToEngine(p);
  p.wait_holder = nullptr;
  return p.clock;
}

SimTime Engine::ProcBlockUntil(Pid pid, SimTime t, std::string_view reason) {
  Proc& p = *procs_[pid];
  PSTK_CHECK(p.state == ProcState::kRunning);
  p.wait_reason = reason;
  MakeReady(pid, std::max(t, p.clock));
  ProcYieldToEngine(p);
  return p.clock;
}

bool Engine::Step() {
  PruneReady();
  const bool has_event = !events_.empty();
  if (!has_event && ready_.empty()) return false;
  if (has_event && (ready_.empty() || events_.Top().t <= ready_.Top().t)) {
    const SimTime t = events_.Top().t;
    auto fn = std::move(events_.MutableTop().fn);
    events_.PopTop();
    frontier_ = std::max(frontier_, t);
    activation_ = t;
    obs_.Add(tags_.events);
    fn();
    return true;
  }
  const Pid pid = ready_.Top().pid;
  ready_.PopTop();
  DispatchProc(pid);
  frontier_ = std::max(frontier_, procs_[pid]->clock);
  if (procs_[pid]->error != nullptr) {
    fatal_ = procs_[pid]->error;
    return false;
  }
  return true;
}

RunResult Engine::Run() {
  PSTK_CHECK_MSG(!running_loop_, "Engine::Run is not reentrant");
  running_loop_ = true;
  while (Step()) {
  }
  running_loop_ = false;

  RunResult result;
  result.end_time = frontier_;
  result.completed = completed_;
  result.killed = killed_;

  if (fatal_ != nullptr) {
    JoinAll();
    std::rethrow_exception(fatal_);
  }

  std::size_t blocked = 0;
  for (const auto& p : procs_) {
    if (p->state == ProcState::kBlocked) ++blocked;
  }
  if (blocked > 0) {
    const std::string report = DeadlockReport();
    if (verify_.active()) {
      // A deadlock after fault injection is the expected teardown of a
      // non-fault-tolerant job, not a usage bug — downgrade to a warning.
      verify_.Report(verify::Finding{
          result.killed > 0 ? verify::Severity::kWarning
                            : verify::Severity::kError,
          "deadlock", "sim-deadlock", report, "", result.end_time});
    }
    result.status = Internal("simulation deadlock; " + report);
    // JoinAll force-unwinds the blocked processes, but those deaths are
    // cleanup, not simulated faults — result.killed keeps the pre-teardown
    // count.
    JoinAll();
  } else {
    result.status = OkStatus();
  }
  return result;
}

void Engine::JoinAll() {
  for (auto& proc : procs_) {
    Proc& p = *proc;
    if (p.state == ProcState::kBlocked || p.state == ProcState::kReady) {
      p.kill_requested = true;
    }
    fibers_->Unwind(p);
  }
}

}  // namespace pstk::sim
