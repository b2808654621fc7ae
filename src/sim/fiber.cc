#include "sim/fiber.h"

#include <cstdlib>
#include <string_view>

#include "common/check.h"

// ASan needs to be told about every stack switch so its fake-stack
// machinery (use-after-return detection, unwinding) follows the fiber
// instead of believing the engine thread's stack is still live. The
// header is detected by CMake (PSTK_HAVE_SANITIZER_FIBER); the
// annotations compile to nothing unless this TU is actually built with
// AddressSanitizer.
#if defined(PSTK_HAVE_SANITIZER_FIBER)
#if defined(__SANITIZE_ADDRESS__)
#define PSTK_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSTK_FIBER_ASAN 1
#endif
#endif
#endif

#if defined(PSTK_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

// TSan likewise models each fiber as its own synchronization entity:
// every swapcontext is announced with __tsan_switch_to_fiber so the race
// detector attributes memory accesses to the fiber (not the host thread's
// original stack), which is what lets the TSan CI job run fiber workloads
// without false positives on stack reuse.
#if defined(PSTK_HAVE_TSAN_FIBER)
#if defined(__SANITIZE_THREAD__)
#define PSTK_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSTK_FIBER_TSAN 1
#endif
#endif
#endif

#if defined(PSTK_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace pstk::sim {

namespace {

// Keep slabs around 16 MiB: big enough that even a 10^5-fiber run needs
// only a few thousand host allocations (VMAs), small enough that a tiny
// simulation does not reserve silly amounts of address space.
constexpr std::size_t kTargetSlabBytes = std::size_t{16} << 20;
constexpr std::size_t kMinStackBytes = std::size_t{64} << 10;

}  // namespace

// ---------------------------------------------------------------------------
// StackPool
// ---------------------------------------------------------------------------

StackPool::StackPool(std::size_t stack_bytes)
    : stack_bytes_(stack_bytes < kMinStackBytes ? kMinStackBytes
                                                : stack_bytes),
      stacks_per_slab_(kTargetSlabBytes / stack_bytes_ > 0
                           ? kTargetSlabBytes / stack_bytes_
                           : 1),
      next_in_slab_(stacks_per_slab_) {}

FiberStack StackPool::Acquire() {
  if (!free_.empty()) {
    const FiberStack stack = free_.back();
    free_.pop_back();
    ++reused_;
    return stack;
  }
  if (next_in_slab_ == stacks_per_slab_) {
    // Plain new[] (not make_unique) on purpose: value-initialization would
    // memset the whole slab and commit every page up front.
    slabs_.emplace_back(new char[stacks_per_slab_ * stack_bytes_]);
    next_in_slab_ = 0;
  }
  FiberStack stack{slabs_.back().get() + next_in_slab_ * stack_bytes_,
                   stack_bytes_};
  ++next_in_slab_;
  ++allocated_;
  return stack;
}

void StackPool::Release(FiberStack stack) {
  if (stack.base != nullptr) free_.push_back(stack);
}

// ---------------------------------------------------------------------------
// FiberBackend
// ---------------------------------------------------------------------------

struct FiberBackend::FiberExec final : ProcExec {
  FiberBackend* backend = nullptr;
  Engine* engine = nullptr;
  Proc* proc = nullptr;
  ucontext_t ctx{};
  FiberStack stack;
  void* fake_stack = nullptr;  // ASan fake-stack handle while parked
  void* tsan_fiber = nullptr;  // TSan fiber entity (owned until death)
  bool started = false;
};

std::size_t FiberBackend::DefaultStackBytes() {
  static const std::size_t bytes = [] {
    std::size_t kb = 256;
#if defined(PSTK_FIBER_ASAN)
    kb *= 2;  // redzones + fake frames need headroom
#endif
    if (const char* env = std::getenv("PSTK_SIM_STACK_KB")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) kb = static_cast<std::size_t>(parsed);
    }
    return kb << 10;
  }();
  return bytes;
}

FiberBackend::FiberBackend(obs::Registry& obs)
    : obs_(obs),
      stacks_allocated_tag_(obs.Intern("sim.fiber.stacks_allocated")),
      stacks_reused_tag_(obs.Intern("sim.fiber.stacks_reused")),
      pool_(DefaultStackBytes()) {}

void FiberBackend::EnterFiberAnnotations(void* fake_stack) {
#if defined(PSTK_FIBER_ASAN)
  // Arriving on a fiber stack, always from the engine: remember the
  // engine-thread stack bounds so switches back out can be annotated.
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &from_bottom, &from_size);
  engine_stack_bottom_ = from_bottom;
  engine_stack_size_ = from_size;
#else
  (void)fake_stack;
#endif
}

void FiberBackend::ReturnToEngineAnnotations() {
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(engine_fake_stack_, nullptr, nullptr);
#endif
}

thread_local FiberBackend::FiberExec* FiberBackend::pending_start_ = nullptr;

void FiberBackend::Trampoline() {
  FiberExec* x = pending_start_;
  pending_start_ = nullptr;
  x->backend->FiberMain(*x);
}

void FiberBackend::FiberMain(FiberExec& x) {
  EnterFiberAnnotations(nullptr);  // first entry: nothing saved yet
  x.engine->ExecuteBody(*x.proc);
  // Dying switch: nullptr fake-stack save tells ASan to free this fiber's
  // fake frames for good.
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_start_switch_fiber(nullptr, engine_stack_bottom_,
                                 engine_stack_size_);
#endif
#if defined(PSTK_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_engine_fiber_, 0);
#endif
  swapcontext(&x.ctx, &engine_ctx_);
  PSTK_CHECK_MSG(false, "resumed a finished fiber");
}

void FiberBackend::Resume(Engine& engine, Proc& p) {
  if (p.exec == nullptr) p.exec = std::make_unique<FiberExec>();
  auto& x = static_cast<FiberExec&>(*p.exec);
  if (!x.started) {
    x.started = true;
    x.backend = this;
    x.engine = &engine;
    x.proc = &p;
    const std::uint64_t allocated_before = pool_.allocated();
    x.stack = pool_.Acquire();
    obs_.Add(pool_.allocated() > allocated_before ? stacks_allocated_tag_
                                                  : stacks_reused_tag_);
    PSTK_CHECK_MSG(getcontext(&x.ctx) == 0, "getcontext failed");
    x.ctx.uc_stack.ss_sp = x.stack.base;
    x.ctx.uc_stack.ss_size = x.stack.size;
    x.ctx.uc_link = nullptr;  // fibers exit via the explicit dying switch
    makecontext(&x.ctx, &Trampoline, 0);
    pending_start_ = &x;
#if defined(PSTK_FIBER_TSAN)
    x.tsan_fiber = __tsan_create_fiber(0);
#endif
  }
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&engine_fake_stack_, x.stack.base,
                                 x.stack.size);
#endif
#if defined(PSTK_FIBER_TSAN)
  // The engine side of the switch may be a different host thread than the
  // one that ran this backend last (an engine may be run and torn down on
  // different host threads), so re-capture the engine fiber every Resume.
  tsan_engine_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(x.tsan_fiber, 0);
#endif
  swapcontext(&engine_ctx_, &x.ctx);
  ReturnToEngineAnnotations();
  if (p.state == ProcState::kDone || p.state == ProcState::kKilled) {
    pool_.Release(x.stack);
    x.stack = FiberStack{};
#if defined(PSTK_FIBER_TSAN)
    if (x.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(x.tsan_fiber);
      x.tsan_fiber = nullptr;
    }
#endif
  }
}

void FiberBackend::Suspend(Proc& p) {
  auto& x = static_cast<FiberExec&>(*p.exec);
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&x.fake_stack, engine_stack_bottom_,
                                 engine_stack_size_);
#endif
#if defined(PSTK_FIBER_TSAN)
  __tsan_switch_to_fiber(x.backend->tsan_engine_fiber_, 0);
#endif
  swapcontext(&x.ctx, &engine_ctx_);
  EnterFiberAnnotations(x.fake_stack);
}

void FiberBackend::Unwind(Engine& engine, Proc& p) {
  auto* x = static_cast<FiberExec*>(p.exec.get());
  if (x == nullptr || !x->started) {
    if (p.state != ProcState::kDone) p.state = ProcState::kKilled;
    return;
  }
  if (p.state == ProcState::kBlocked || p.state == ProcState::kReady) {
    // kill_requested is set: the fiber throws ProcessKilled at its parked
    // suspension point, unwinds, and dies on this one resume.
    Resume(engine, p);
    PSTK_CHECK_MSG(
        p.state == ProcState::kDone || p.state == ProcState::kKilled,
        "process " << p.name << " blocked again while unwinding");
  }
}

}  // namespace pstk::sim
