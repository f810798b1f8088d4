#include "wfl/util/fiber.hpp"

#include <cstdint>
#include <new>
#include <utility>

#include "wfl/check/race.hpp"
#include "wfl/util/assert.hpp"

// ASan cannot follow a stack switch by itself: every switch must report
// the destination stack (start) and re-establish the fake-stack state on
// arrival (finish), or stack-use-after-return shadows go stale and the
// first deep frame on a reused fiber stack is reported as an overflow.
#if defined(__SANITIZE_ADDRESS__)
#define WFL_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WFL_ASAN_FIBERS 1
#endif
#endif

#if defined(WFL_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* stack_bottom,
                                    std::size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** stack_bottom_old,
                                     std::size_t* stack_size_old);
}
#define WFL_FIBER_SWITCH_START(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define WFL_FIBER_SWITCH_FINISH(save, bottom, size) \
  __sanitizer_finish_switch_fiber((save), (bottom), (size))
#else
#define WFL_FIBER_SWITCH_START(save, bottom, size) ((void)0)
#define WFL_FIBER_SWITCH_FINISH(save, bottom, size) ((void)0)
#endif

// The context switch. wfl_fiber_switch(save, next) pushes the callee-saved
// registers and the floating-point control words onto the current stack,
// stores the stack pointer to *save, loads next and pops the same set from
// there, returning into whichever switch (or, the first time, whichever
// start stub) left that frame. Everything caller-saved is already dead at
// the call, so nothing else needs saving. wfl_fiber_start is the return
// address of a fiber's first frame: it calls entry(arg), both parked in
// callee-saved registers by first_frame(), and when entry returns switches
// to the stack pointer it returned, dropping the finished fiber's frame.
// Every instrumented frame on a fiber thus returns before its last switch.
// Otherwise ThreadSanitizer's shadow call stack grows by the unreturned
// frames of every finished fiber, and the stacks it records grow with it.
extern "C" {
void wfl_fiber_switch(void** save_sp, void* next_sp);
void wfl_fiber_start();
}

#if defined(__x86_64__) && defined(__ELF__)
asm(".pushsection .text\n"
    ".globl wfl_fiber_switch\n"
    ".hidden wfl_fiber_switch\n"
    ".type wfl_fiber_switch, @function\n"
    ".p2align 4\n"
    "wfl_fiber_switch:\n"  // rdi = save_sp, rsi = next_sp
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $16, %rsp\n"
    "  stmxcsr 8(%rsp)\n"
    "  fnstcw (%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    ".Lwfl_fiber_restore:\n"
    "  fldcw (%rsp)\n"
    "  ldmxcsr 8(%rsp)\n"
    "  addq $16, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size wfl_fiber_switch, .-wfl_fiber_switch\n"
    ".globl wfl_fiber_start\n"
    ".hidden wfl_fiber_start\n"
    ".type wfl_fiber_start, @function\n"
    ".p2align 4\n"
    "wfl_fiber_start:\n"
    "  movq %r12, %rdi\n"
    "  callq *%r13\n"
    "  movq %rax, %rsp\n"
    "  jmp .Lwfl_fiber_restore\n"
    ".size wfl_fiber_start, .-wfl_fiber_start\n"
    ".popsection\n");

namespace {

// The frame wfl_fiber_switch leaves on a stack it switched away from,
// lowest address (the saved stack pointer) first.
struct SwitchFrame {
  std::uint64_t x87_cw;  // fnstcw/fldcw use the low 16 bits
  std::uint64_t mxcsr;   // stmxcsr/ldmxcsr use the low 32 bits
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) == 9 * 8);

// Builds a fiber's first frame below top (16-aligned) and returns the
// stack pointer to switch to. The switch pops it and returns into the start
// stub with rsp == top, so the stub's call enters entry() with the ABI's
// alignment (rsp + 8 a multiple of 16); rbp == 0 ends any frame-pointer
// walk there.
void* first_frame(char* top, void* arg, void* (*entry)(void*)) {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  auto* f = new (top - sizeof(SwitchFrame)) SwitchFrame{};
  f->x87_cw = x87_cw;
  f->mxcsr = mxcsr;
  f->r12 = reinterpret_cast<std::uintptr_t>(arg);
  f->r13 = reinterpret_cast<std::uintptr_t>(entry);
  f->ret = &wfl_fiber_start;
  return f;
}

}  // namespace

#elif defined(__aarch64__) && defined(__ELF__)
asm(".pushsection .text\n"
    ".globl wfl_fiber_switch\n"
    ".hidden wfl_fiber_switch\n"
    ".type wfl_fiber_switch, %function\n"
    ".p2align 4\n"
    "wfl_fiber_switch:\n"  // x0 = save_sp, x1 = next_sp
    "  sub sp, sp, #176\n"
    "  stp d8, d9, [sp, #0]\n"
    "  stp d10, d11, [sp, #16]\n"
    "  stp d12, d13, [sp, #32]\n"
    "  stp d14, d15, [sp, #48]\n"
    "  stp x19, x20, [sp, #64]\n"
    "  stp x21, x22, [sp, #80]\n"
    "  stp x23, x24, [sp, #96]\n"
    "  stp x25, x26, [sp, #112]\n"
    "  stp x27, x28, [sp, #128]\n"
    "  stp x29, x30, [sp, #144]\n"
    "  mrs x9, fpcr\n"
    "  str x9, [sp, #160]\n"
    "  mov x9, sp\n"
    "  str x9, [x0]\n"
    "  mov sp, x1\n"
    ".Lwfl_fiber_restore:\n"
    "  ldr x9, [sp, #160]\n"
    "  msr fpcr, x9\n"
    "  ldp d8, d9, [sp, #0]\n"
    "  ldp d10, d11, [sp, #16]\n"
    "  ldp d12, d13, [sp, #32]\n"
    "  ldp d14, d15, [sp, #48]\n"
    "  ldp x19, x20, [sp, #64]\n"
    "  ldp x21, x22, [sp, #80]\n"
    "  ldp x23, x24, [sp, #96]\n"
    "  ldp x25, x26, [sp, #112]\n"
    "  ldp x27, x28, [sp, #128]\n"
    "  ldp x29, x30, [sp, #144]\n"
    "  add sp, sp, #176\n"
    "  ret\n"
    ".size wfl_fiber_switch, .-wfl_fiber_switch\n"
    ".globl wfl_fiber_start\n"
    ".hidden wfl_fiber_start\n"
    ".type wfl_fiber_start, %function\n"
    ".p2align 4\n"
    "wfl_fiber_start:\n"
    "  mov x0, x19\n"
    "  blr x20\n"
    "  mov sp, x0\n"
    "  b .Lwfl_fiber_restore\n"
    ".size wfl_fiber_start, .-wfl_fiber_start\n"
    ".popsection\n");

namespace {

// The frame wfl_fiber_switch leaves on a stack it switched away from,
// lowest address (the saved stack pointer) first.
struct SwitchFrame {
  std::uint64_t d8_d15[8];  // low halves of v8-v15
  std::uint64_t x19_x28[10];
  std::uint64_t x29;
  void (*x30)();
  std::uint64_t fpcr;
  std::uint64_t pad;  // keeps sp 16-aligned
};
static_assert(sizeof(SwitchFrame) == 176);

// Builds a fiber's first frame below top (16-aligned) and returns the
// stack pointer to switch to. The switch pops it and returns into the start
// stub with sp == top; x29 == 0 ends any frame-pointer walk there.
void* first_frame(char* top, void* arg, void* (*entry)(void*)) {
  std::uint64_t fpcr = 0;
  asm volatile("mrs %0, fpcr" : "=r"(fpcr));
  auto* f = new (top - sizeof(SwitchFrame)) SwitchFrame{};
  f->x19_x28[0] = reinterpret_cast<std::uintptr_t>(arg);
  f->x19_x28[1] = reinterpret_cast<std::uintptr_t>(entry);
  f->x30 = &wfl_fiber_start;
  f->fpcr = fpcr;
  return f;
}

}  // namespace

#else
#error "util/fiber.cpp: the context switch is x86-64 and AArch64 ELF only"
#endif

namespace wfl {

namespace {
thread_local Fiber* g_current_fiber = nullptr;
}  // namespace

Fiber* Fiber::current() { return g_current_fiber; }

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes) {
  WFL_CHECK(static_cast<bool>(body_));
  arm();
}

void Fiber::arm() {
  // The armer claims the whole stack: any prior generation's frames (pool
  // reuse) must be happens-before ordered with this re-arm.
  WFL_PLAIN_WRITE(stack_.get(), kFiberStack);
  char* top = stack_.get() + stack_bytes_;
  top -= reinterpret_cast<std::uintptr_t>(top) % 16;
  sp_ = first_frame(top, this, &Fiber::entry);
  started_ = false;
  finished_ = false;
}

void Fiber::reset(Body body) {
  WFL_CHECK_MSG(finished_ || !started_,
                "reset() on a suspended fiber (live frames on its stack)");
  WFL_CHECK(static_cast<bool>(body));
  body_ = std::move(body);
  arm();
}

Fiber::~Fiber() {
  // Destroying a suspended (unfinished) fiber leaks whatever its stack owns;
  // the runtimes only destroy fibers after draining them or at teardown,
  // where that is acceptable by construction.
  race::destroyed(stack_.get());  // retire the region: heap reuse != reuse
}

void* Fiber::entry(void* self) noexcept {
  auto* f = static_cast<Fiber*>(self);
  // First activation: complete the switch that brought us here and learn
  // the resumer's stack extent (needed to switch back out).
  WFL_FIBER_SWITCH_FINISH(nullptr, &f->asan_caller_bottom_,
                          &f->asan_caller_size_);
  f->body_();
  f->finished_ = true;
  // The start stub switches to the returned stack pointer, the most recent
  // resume(), for good. Passing a null save slot tells ASan this fiber is
  // dying: free its fake stack.
  WFL_FIBER_SWITCH_START(nullptr, f->asan_caller_bottom_,
                         f->asan_caller_size_);
  return f->return_sp_;
}

void Fiber::resume() {
  WFL_CHECK_MSG(!finished_, "resume() on a finished fiber");
  Fiber* prev = g_current_fiber;
  g_current_fiber = this;
  started_ = true;
  [[maybe_unused]] void* save = nullptr;
  WFL_FIBER_SWITCH_START(&save, stack_.get(), stack_bytes_);
  wfl_fiber_switch(&return_sp_, sp_);
  WFL_FIBER_SWITCH_FINISH(save, nullptr, nullptr);
  g_current_fiber = prev;
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  WFL_CHECK_MSG(self != nullptr, "Fiber::yield() outside a fiber");
  WFL_FIBER_SWITCH_START(&self->asan_save_, self->asan_caller_bottom_,
                         self->asan_caller_size_);
  wfl_fiber_switch(&self->sp_, self->return_sp_);
  // Resumed again, possibly by a different caller: refresh its extent.
  WFL_FIBER_SWITCH_FINISH(self->asan_save_, &self->asan_caller_bottom_,
                          &self->asan_caller_size_);
}

std::unique_ptr<Fiber> FiberPool::acquire(Fiber::Body body) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    race::mutex_acquire(&mu_);
    if (!idle_.empty()) {
      std::unique_ptr<Fiber> f = std::move(idle_.back());
      idle_.pop_back();
      ++reused_;
      f->reset(std::move(body));
      race::mutex_release(&mu_);
      return f;
    }
    ++created_;
    race::mutex_release(&mu_);
  }
  return std::make_unique<Fiber>(std::move(body), stack_bytes_);
}

void FiberPool::release(std::unique_ptr<Fiber> fiber) {
  WFL_CHECK_MSG(fiber->finished(), "released fiber still has live frames");
  std::lock_guard<std::mutex> lk(mu_);
  race::mutex_acquire(&mu_);
  if (idle_.size() < max_idle_) idle_.push_back(std::move(fiber));
  // else: drop — the unique_ptr frees the stack.
  race::mutex_release(&mu_);
}

std::uint64_t FiberPool::created() const {
  std::lock_guard<std::mutex> lk(mu_);
  return created_;
}

std::uint64_t FiberPool::reused() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reused_;
}

std::size_t FiberPool::idle() const {
  std::lock_guard<std::mutex> lk(mu_);
  return idle_.size();
}

}  // namespace wfl
