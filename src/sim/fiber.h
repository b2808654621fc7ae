// Fiber execution for sim::Engine: every simulated process is a stackful
// coroutine on the engine's own host thread.
//
// Switch protocol: the engine loop lives on the program stack and
// switches directly onto the next runnable process's fiber stack; the
// process switches back when it parks, finishes, or unwinds. A switch is
// a few instructions of x86-64 assembly (fiber.cc) that push the
// callee-saved registers, the MXCSR and the x87 control word, swap the
// stack pointer and pop the same set from the other stack. It makes no
// system call and leaves the signal mask alone. A dispatch is therefore
// two plain user-space stack switches — no mutex, no condvar, no host
// scheduler round-trip, no kernel entry — which is what makes 10^5-process
// sweeps practical (bench/micro_engine.cc records the dispatch
// throughput). A fiber's first switch pops a hand-built frame at the top
// of its stack whose return address is a two-instruction start stub; the
// stub hands the Fiber* carried in %rbx to FiberMain, whose own return
// address is null, so unwinders and backtrace() stop at the fiber's base.
//
// Stack pooling: fiber stacks are fixed-size slices carved out of large
// heap slabs (one allocation per ~16 MiB of stacks, so even 10^5 live
// fibers need only a few thousand mappings, and untouched pages cost no
// RSS). A finished or unwound process returns its slice to the pool for
// the next Spawn. Size with PSTK_SIM_STACK_KB (see FiberStackBytes).
//
// Overflow canary: stacks grow down, so a body that overruns its slice
// writes into the top of the slice below — another process's live
// frames. A canary word at the low end of every slice, written when the
// slice is carved, is checked after every switch back to the engine; a
// damaged canary aborts the run naming the process and PSTK_SIM_STACK_KB
// before any other fiber can run on the damaged slice. (Guard pages would
// cost one mprotect'ed mapping per stack, and 10^5 live fibers exceed the
// kernel's default vm.max_map_count of 65530.)
//
// Sanitizer support: under ASan every switch is bracketed with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so the
// fake-stack machinery tracks which stack is live (CMake detects the
// header and defines PSTK_HAVE_SANITIZER_FIBER), and a reused slice is
// unpoisoned before its new fiber starts. Under TSan every fiber is
// registered as its own synchronization entity and each switch is
// announced via __tsan_switch_to_fiber (PSTK_HAVE_TSAN_FIBER), which is
// what lets the TSan CI job run fiber workloads. UBSan needs no
// annotations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "sim/engine.h"

namespace pstk::sim {

/// Fiber stack size in bytes: PSTK_SIM_STACK_KB KiB when the variable is
/// set and non-empty, else 256 KiB (512 KiB under ASan, for redzones and
/// fake frames). Aborts naming the variable and its value unless it is a
/// whole decimal number of KiB, at least 64, whose byte count fits a
/// size_t. Read afresh by every Engine.
[[nodiscard]] std::size_t FiberStackBytes();

/// One fixed-size fiber stack, carved out of a StackPool slab.
struct FiberStack {
  char* base = nullptr;
  std::size_t size = 0;
};

/// Slab-backed pool of equally sized fiber stacks. Slabs are plain heap
/// allocations (never memset, so untouched stack pages stay uncommitted);
/// freed stacks are LIFO-reused, which keeps hot dispatch loops on warm
/// pages. Every slice carries the overflow canary at its low end.
class StackPool {
 public:
  explicit StackPool(std::size_t stack_bytes);

  FiberStack Acquire();
  void Release(FiberStack stack);

  /// False once something has written over the canary at the low end of
  /// `stack` — a body that ran past the end of its stack.
  [[nodiscard]] static bool CanaryIntact(const FiberStack& stack);

  /// Stacks carved fresh out of a slab so far.
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }

 private:
  std::size_t stack_bytes_;
  std::size_t stacks_per_slab_;
  std::size_t next_in_slab_;  // == stacks_per_slab_ when a new slab is due
  std::vector<std::unique_ptr<char[]>> slabs_;
  std::vector<FiberStack> free_;
  std::uint64_t allocated_ = 0;
};

/// One process's execution state (Proc::fiber).
struct Fiber {
  FiberSwitcher* switcher = nullptr;
  Proc* proc = nullptr;
  void* sp = nullptr;  // saved by its last switch out (first: FirstFrame)
  FiberStack stack;
  void* fake_stack = nullptr;  // ASan fake-stack handle while parked
  void* tsan_fiber = nullptr;  // TSan fiber entity (owned until death)
  bool started = false;
};
static_assert(sizeof(Fiber) <= 64, "Fiber grew past 64 bytes");

/// Moves control between the engine loop and process bodies. Exactly one
/// of them runs at any instant. See the file comment.
class FiberSwitcher {
 public:
  /// `obs` receives the stack-pool counters (sim.fiber.stacks_allocated /
  /// sim.fiber.stacks_reused).
  FiberSwitcher(Engine& engine, obs::Registry& obs);

  /// Engine side: switch into `p` (starting its body on the first call);
  /// returns when the process parks, finishes, or unwinds. Aborts if the
  /// process overran its stack.
  void Resume(Proc& p);

  /// Process side (runs on p's stack): park and switch back to the engine
  /// loop; returns when Resume picks this process again.
  void Suspend(Proc& p);

  /// Teardown: force a parked process (kill_requested already set by the
  /// caller) to unwind, and return its stack. Idempotent; handles
  /// processes that never started.
  void Unwind(Proc& p);

 private:
  // Bottom frame of every fiber: the start stub in fiber.cc jumps here
  // with the Fiber* that the first frame carries. Never returns.
  [[noreturn]] static void FiberMain(Fiber* f);

  // ASan fake-stack bookkeeping (no-ops outside ASan builds).
  void EnterFiberAnnotations(void* fake_stack);
  void ReturnToEngineAnnotations();

  Engine& engine_;
  obs::Registry& obs_;
  obs::TagId stacks_allocated_tag_;
  obs::TagId stacks_reused_tag_;
  StackPool pool_;
  void* engine_sp_ = nullptr;  // engine stack pointer while a fiber runs
  // Engine-thread stack bounds, captured on the first switch into a fiber;
  // needed to annotate switches back out.
  const void* engine_stack_bottom_ = nullptr;
  std::size_t engine_stack_size_ = 0;
  void* engine_fake_stack_ = nullptr;
  // TSan fiber entity of the engine-side thread, re-captured every Resume
  // (an engine may be run and torn down on different host threads).
  void* tsan_engine_fiber_ = nullptr;
};

}  // namespace pstk::sim
