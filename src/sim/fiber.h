// Stackful-coroutine execution backend for sim::Engine (Backend::kFibers).
//
// One host thread runs everything: the engine loop lives on the program
// stack and swapcontext()s directly onto the next runnable process's
// fiber stack and back. A dispatch is therefore two user-space context
// switches — no mutex, no condvar, no host scheduler round-trip — which
// is what makes 10^5-process sweeps practical (bench/micro_engine.cc
// records the dispatch-throughput gap vs the thread backend).
//
// Stack pooling: fiber stacks are fixed-size slices carved out of large
// heap slabs (one allocation per ~16 MiB of stacks, so even 10^5 live
// fibers stay far under the kernel's VMA limit, and untouched pages cost
// no RSS). A finished or unwound process returns its slice to the pool
// for the next Spawn. Size with PSTK_SIM_STACK_KB (default 256 KiB,
// doubled under ASan for redzone headroom). There are no guard pages —
// a body that overruns its stack corrupts a neighboring slice — so the
// default is deliberately generous; deep-recursion workloads should
// raise the env var or fall back to Backend::kThreads.
//
// Sanitizer support: under ASan every switch is bracketed with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so the
// fake-stack machinery tracks which stack is live (CMake detects the
// header and defines PSTK_HAVE_SANITIZER_FIBER). Under TSan every fiber
// is registered as its own synchronization entity and each swapcontext is
// announced via __tsan_switch_to_fiber (PSTK_HAVE_TSAN_FIBER), which is
// what lets the TSan CI job run fiber workloads. UBSan needs no
// annotations.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "sim/engine.h"

namespace pstk::sim {

/// One fixed-size fiber stack, carved out of a StackPool slab.
struct FiberStack {
  char* base = nullptr;
  std::size_t size = 0;
};

/// Slab-backed pool of equally sized fiber stacks. Slabs are plain heap
/// allocations (never memset, so untouched stack pages stay uncommitted);
/// freed stacks are LIFO-reused, which keeps hot dispatch loops on warm
/// pages.
class StackPool {
 public:
  explicit StackPool(std::size_t stack_bytes);

  FiberStack Acquire();
  void Release(FiberStack stack);

  [[nodiscard]] std::size_t stack_bytes() const { return stack_bytes_; }
  /// Stacks carved fresh out of a slab so far.
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  /// Acquires served from a previously released stack.
  [[nodiscard]] std::uint64_t reused() const { return reused_; }

 private:
  std::size_t stack_bytes_;
  std::size_t stacks_per_slab_;
  std::size_t next_in_slab_;  // == stacks_per_slab_ when a new slab is due
  std::vector<std::unique_ptr<char[]>> slabs_;
  std::vector<FiberStack> free_;
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
};

/// ExecBackend implementation over ucontext fibers. See the file comment.
class FiberBackend final : public ExecBackend {
 public:
  /// `obs` receives the stack-pool counters (sim.fiber.stacks_allocated /
  /// sim.fiber.stacks_reused).
  explicit FiberBackend(obs::Registry& obs);

  void Resume(Engine& engine, Proc& p) override;
  void Suspend(Proc& p) override;
  void Unwind(Engine& engine, Proc& p) override;

  /// PSTK_SIM_STACK_KB (clamped to >= 64 KiB), default 256 KiB — doubled
  /// under ASan.
  [[nodiscard]] static std::size_t DefaultStackBytes();

 private:
  struct FiberExec;

  static void Trampoline();
  void FiberMain(FiberExec& x);

  // makecontext() entry points take no arguments, so the fiber being
  // started is handed to Trampoline through this slot (written immediately
  // before the first switch into the fiber, consumed as its first action;
  // the engine's control flow is single-threaded, so no other switch can
  // intervene). thread_local keeps engines on different host threads
  // independent.
  static thread_local FiberExec* pending_start_;

  // ASan fake-stack bookkeeping (no-ops outside ASan builds).
  void EnterFiberAnnotations(void* fake_stack);
  void ReturnToEngineAnnotations();

  obs::Registry& obs_;
  obs::TagId stacks_allocated_tag_;
  obs::TagId stacks_reused_tag_;
  StackPool pool_;
  ucontext_t engine_ctx_{};
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
