#include "sim/fiber.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/check.h"
#include "common/strings.h"

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
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// TSan likewise models each fiber as its own synchronization entity:
// every switch is announced with __tsan_switch_to_fiber so the race
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

#if !defined(__x86_64__)
#error "sim/fiber.cc: the fiber switch is written for x86-64 (SysV ABI) only"
#endif

// pstk_sim_fiber_switch(save_sp, load_sp) pushes what the SysV ABI makes
// callee-saved — %rbp, %rbx, %r12-%r15, the MXCSR and the x87 control word
// — stores %rsp through save_sp, loads load_sp, pops the same set from the
// other stack and returns on it. Everything else is caller-saved, so the
// compiler already treats the call as clobbering it. No signal mask is
// saved: nothing in the simulator changes it.
//
// pstk_sim_fiber_start is where a fiber's first switch returns to (see
// FirstFrame): it moves the Fiber* carried in %rbx into the first argument
// register and jumps to the entry function carried in %r12.
//
// Both are hidden, and this file is compiled with -fcf-protection=none
// (src/sim/CMakeLists.txt): the switch returns onto another stack, which a
// shadow stack would reject, so no binary that links it may claim SHSTK.
asm(R"(
    .pushsection .text
    .p2align 4
    .globl pstk_sim_fiber_switch
    .hidden pstk_sim_fiber_switch
    .type pstk_sim_fiber_switch, @function
pstk_sim_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size pstk_sim_fiber_switch, .-pstk_sim_fiber_switch

    .p2align 4
    .globl pstk_sim_fiber_start
    .hidden pstk_sim_fiber_start
    .type pstk_sim_fiber_start, @function
pstk_sim_fiber_start:
    movq %rbx, %rdi
    jmpq *%r12
    .size pstk_sim_fiber_start, .-pstk_sim_fiber_start
    .popsection
)");

extern "C" {
[[gnu::visibility("hidden")]] void pstk_sim_fiber_switch(
    void** save_sp, void* load_sp) noexcept;
[[gnu::visibility("hidden")]] void pstk_sim_fiber_start() noexcept;
}

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

// What pstk_sim_fiber_switch pops to start a fiber, lowest address first,
// placed so that `return_address` is the last word of the slice. The
// switch's `ret` lands in pstk_sim_fiber_start with %rsp at
// `return_address`, which is then the null return address of the entry
// function: unwinders stop there, and %rsp is 8 mod 16 as at any function
// entry.
struct FirstFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  std::uint16_t unused = 0;
  std::uintptr_t r15 = 0;
  std::uintptr_t r14 = 0;
  std::uintptr_t r13 = 0;
  std::uintptr_t r12 = 0;  // the entry function
  std::uintptr_t rbx = 0;  // its Fiber*
  std::uintptr_t rbp = 0;
  std::uintptr_t start = 0;  // pstk_sim_fiber_start
  std::uintptr_t return_address = 0;
};
static_assert(sizeof(FirstFrame) == 72);

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
  const auto kb = ParseWholeNumber(env, "PSTK_SIM_STACK_KB", kMaxStackKb);
  PSTK_CHECK_MSG(kb.ok() && *kb >= kMinStackKb,
                 "PSTK_SIM_STACK_KB='"
                     << env << "' is not a whole number of KiB from "
                     << kMinStackKb << " to " << kMaxStackKb);
  return static_cast<std::size_t>(*kb) << 10;
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

void FiberSwitcher::FiberMain(Fiber* f) {
  FiberSwitcher& self = *f->switcher;
  self.EnterFiberAnnotations(nullptr);  // first entry: nothing saved yet
  self.engine_.ExecuteBody(*f->proc);
  // Dying switch: nullptr fake-stack save tells ASan to free this fiber's
  // fake frames for good.
#if defined(PSTK_FIBER_ASAN)
  __sanitizer_start_switch_fiber(nullptr, self.engine_stack_bottom_,
                                 self.engine_stack_size_);
#endif
#if defined(PSTK_FIBER_TSAN)
  __tsan_switch_to_fiber(self.tsan_engine_fiber_, 0);
#endif
  pstk_sim_fiber_switch(&f->sp, self.engine_sp_);
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
    const bool reused = pool_.allocated() == allocated_before;
    obs_.Add(reused ? stacks_reused_tag_ : stacks_allocated_tag_);
#if defined(PSTK_FIBER_ASAN)
    // The last fiber on a reused slice left through the dying switch, so
    // the redzones of the frames it never returned from are still
    // poisoned, and no interceptor clears them on this switch.
    if (reused) __asan_unpoison_memory_region(f.stack.base, f.stack.size);
#endif
    const std::uintptr_t top =
        (reinterpret_cast<std::uintptr_t>(f.stack.base) + f.stack.size) &
        ~std::uintptr_t{15};
    auto* first =
        new (reinterpret_cast<void*>(top - sizeof(FirstFrame))) FirstFrame;
    // The fiber starts with the engine's current FP control state.
    asm volatile("stmxcsr %0\n\tfnstcw %1"
                 : "=m"(first->mxcsr), "=m"(first->x87_cw));
    first->r12 = reinterpret_cast<std::uintptr_t>(&FiberMain);
    first->rbx = reinterpret_cast<std::uintptr_t>(&f);
    first->start = reinterpret_cast<std::uintptr_t>(&pstk_sim_fiber_start);
    f.sp = first;
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
  pstk_sim_fiber_switch(&engine_sp_, f.sp);
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
  pstk_sim_fiber_switch(&f.sp, engine_sp_);
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
