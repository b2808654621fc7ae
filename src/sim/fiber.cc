#include "sim/fiber.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <system_error>

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
constexpr std::size_t kMinStackKb = 64;
constexpr std::size_t kMaxStackKb = static_cast<std::size_t>(-1) >> 10;

// Written at the low end of every slice when it is carved. Stacks grow
// down, so a body that runs past the end of its slice overwrites these
// bytes on its way into the slice below.
constexpr char kCanary[8] = {'p', 's', 't', 'k', 'c', 'n', 'r', 'y'};

}  // namespace

std::size_t FiberStackBytes() {
  const char* env = std::getenv("PSTK_SIM_STACK_KB");
  if (env == nullptr || *env == '\0') {
#if defined(PSTK_FIBER_ASAN)
    return std::size_t{512} << 10;  // redzones + fake frames need headroom
#else
    return std::size_t{256} << 10;
#endif
  }
  const char* end = env + std::strlen(env);
  std::size_t kb = 0;
  const auto [stop, err] = std::from_chars(env, end, kb);
  PSTK_CHECK_MSG(err == std::errc() && stop == end && kb >= kMinStackKb &&
                     kb <= kMaxStackKb,
                 "PSTK_SIM_STACK_KB='"
                     << env << "' is not a whole number of KiB from "
                     << kMinStackKb << " to " << kMaxStackKb);
  return kb << 10;
}

// ---------------------------------------------------------------------------
// StackPool
// ---------------------------------------------------------------------------

StackPool::StackPool(std::size_t stack_bytes)
    : stack_bytes_(stack_bytes),
      stacks_per_slab_(kTargetSlabBytes / stack_bytes_ > 0
                           ? kTargetSlabBytes / stack_bytes_
                           : 1),
      next_in_slab_(stacks_per_slab_) {}

FiberStack StackPool::Acquire() {
  if (!free_.empty()) {
    const FiberStack stack = free_.back();
    free_.pop_back();
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
  std::memcpy(stack.base, kCanary, sizeof kCanary);
  ++next_in_slab_;
  ++allocated_;
  return stack;
}

void StackPool::Release(FiberStack stack) {
  if (stack.base != nullptr) free_.push_back(stack);
}

// Uninstrumented, with a byte loop rather than the intercepted memcmp: the
// canary may lie inside a frame ASan has poisoned as a redzone (the frame
// of the fiber that overran it).
__attribute__((no_sanitize_address)) bool StackPool::CanaryIntact(
    const FiberStack& stack) {
  for (std::size_t i = 0; i < sizeof kCanary; ++i) {
    if (stack.base[i] != kCanary[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// FiberSwitcher
// ---------------------------------------------------------------------------

FiberSwitcher::FiberSwitcher(Engine& engine, obs::Registry& obs)
    : engine_(engine),
      obs_(obs),
      stacks_allocated_tag_(obs.Intern("sim.fiber.stacks_allocated")),
      stacks_reused_tag_(obs.Intern("sim.fiber.stacks_reused")),
      pool_(FiberStackBytes()) {}

void FiberSwitcher::EnterFiberAnnotations(void* fake_stack) {
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

void FiberSwitcher::ReturnToEngineAnnotations() {
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(engine_fake_stack_, nullptr, nullptr);
#endif
}

thread_local Fiber* FiberSwitcher::pending_start_ = nullptr;

void FiberSwitcher::Trampoline() {
  Fiber* f = pending_start_;
  pending_start_ = nullptr;
  f->switcher->FiberMain(*f);
}

void FiberSwitcher::FiberMain(Fiber& f) {
  EnterFiberAnnotations(nullptr);  // first entry: nothing saved yet
  engine_.ExecuteBody(*f.proc);
  // Dying switch: nullptr fake-stack save tells ASan to free this fiber's
  // fake frames for good.
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_start_switch_fiber(nullptr, engine_stack_bottom_,
                                 engine_stack_size_);
#endif
#if defined(PSTK_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_engine_fiber_, 0);
#endif
  swapcontext(&f.ctx, &engine_ctx_);
  PSTK_CHECK_MSG(false, "resumed a finished fiber");
}

void FiberSwitcher::Resume(Proc& p) {
  if (p.fiber == nullptr) p.fiber = std::make_unique<Fiber>();
  Fiber& f = *p.fiber;
  if (!f.started) {
    f.started = true;
    f.switcher = this;
    f.proc = &p;
    const std::uint64_t allocated_before = pool_.allocated();
    f.stack = pool_.Acquire();
    obs_.Add(pool_.allocated() > allocated_before ? stacks_allocated_tag_
                                                  : stacks_reused_tag_);
    PSTK_CHECK_MSG(getcontext(&f.ctx) == 0, "getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack.base;
    f.ctx.uc_stack.ss_size = f.stack.size;
    f.ctx.uc_link = nullptr;  // fibers exit via the explicit dying switch
    makecontext(&f.ctx, &Trampoline, 0);
    pending_start_ = &f;
#if defined(PSTK_FIBER_TSAN)
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
  }
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&engine_fake_stack_, f.stack.base,
                                 f.stack.size);
#endif
#if defined(PSTK_FIBER_TSAN)
  // The engine side of the switch may be a different host thread than the
  // one that ran this switcher last (an engine may be run and torn down on
  // different host threads), so re-capture the engine fiber every Resume.
  tsan_engine_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  swapcontext(&engine_ctx_, &f.ctx);
  ReturnToEngineAnnotations();
  PSTK_CHECK_MSG(StackPool::CanaryIntact(f.stack),
                 "process '" << p.name << "' (pid " << p.context->pid()
                             << ") overran its " << (f.stack.size >> 10)
                             << " KiB fiber stack into the stack below it; "
                                "raise PSTK_SIM_STACK_KB");
  if (p.state == ProcState::kDone || p.state == ProcState::kKilled) {
    pool_.Release(f.stack);
    f.stack = FiberStack{};
#if defined(PSTK_FIBER_TSAN)
    if (f.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(f.tsan_fiber);
      f.tsan_fiber = nullptr;
    }
#endif
  }
}

void FiberSwitcher::Suspend(Proc& p) {
  Fiber& f = *p.fiber;
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&f.fake_stack, engine_stack_bottom_,
                                 engine_stack_size_);
#endif
#if defined(PSTK_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_engine_fiber_, 0);
#endif
  swapcontext(&f.ctx, &engine_ctx_);
  EnterFiberAnnotations(f.fake_stack);
}

void FiberSwitcher::Unwind(Proc& p) {
  if (p.fiber == nullptr || !p.fiber->started) {
    if (p.state != ProcState::kDone) p.state = ProcState::kKilled;
    return;
  }
  if (p.state == ProcState::kBlocked || p.state == ProcState::kReady) {
    // kill_requested is set: the fiber throws ProcessKilled at its parked
    // suspension point, unwinds, and dies on this one resume.
    Resume(p);
    PSTK_CHECK_MSG(
        p.state == ProcState::kDone || p.state == ProcState::kKilled,
        "process " << p.name << " blocked again while unwinding");
  }
}

}  // namespace pstk::sim
