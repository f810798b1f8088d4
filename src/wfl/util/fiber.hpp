// Minimal stackful fiber with a register-only context switch, plus a
// reusing pool.
//
// Two runtimes multiplex logical work onto fibers:
//
//   * the deterministic simulator (sim/sim.hpp) runs every logical process
//     as a fiber on one OS thread, so a "schedule" is simply the order in
//     which fibers are resumed — execution is bit-for-bit deterministic
//     given the schedule, which is what lets us play the paper's oblivious
//     adversarial scheduler exactly;
//   * the async executor (core/async_executor.hpp) runs each in-flight
//     submission's attempts on a fiber drawn from a pool, so an attempt
//     that must wait suspends instead of pinning an OS thread.
//
// A switch (resume() or yield()) pushes the callee-saved registers and the
// floating-point control words onto the outgoing stack, stores the stack
// pointer, loads the other side's and pops the same set: a few dozen
// instructions. It leaves the signal mask alone, so it makes no system
// call; an rt_sigprocmask call per switch would be ~90% of the cost of a
// simulated step (EXPERIMENTS.md). Limits of the switch:
//
//   * x86-64 and AArch64 only (ELF targets); anything else is a compile
//     error;
//   * the signal mask is per thread, not per fiber — a fiber that changes
//     it changes it for whoever runs next on that thread;
//   * not aware of CET shadow stacks: every switch returns on a different
//     stack than it was called on, so a process running with user shadow
//     stacks enabled would fault at the first switch. glibc 2.36 does not
//     enable them.
//
// Rounding mode and exception masks (MXCSR and the x87 control word on
// x86-64, FPCR on AArch64) are per fiber: a new fiber starts with the
// armer's, and each side keeps its own across switches.
//
// The body is a FixedFunction, not a std::function: fibers are created and
// re-armed on submission paths where a per-arm heap allocation would
// dominate, and the bodies the runtimes install are small capture packs.
// reset() re-arms a finished fiber on its existing stack, which is what
// FiberPool trades in — the 128 KB stack allocation is the expensive part
// of a fiber, not the context.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "wfl/util/fixed_function.hpp"

namespace wfl {

class Fiber {
 public:
  // Capture budget for fiber bodies. Runtime bodies are {pointer, pointer}
  // packs; simulator test bodies capture a handful of references. Bodies
  // larger than this fail at compile time — bundle captures in a struct.
  using Body = FixedFunction<void(), 128>;

  explicit Fiber(Body body, std::size_t stack_bytes = 128 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Switches into the fiber; returns when the fiber yields or its body
  // returns. Must not be called on a finished fiber.
  void resume();

  // Called from inside a running fiber: suspends it and returns control to
  // the resume() caller.
  static void yield();

  bool finished() const { return finished_; }

  // Re-arms the fiber with a new body on the SAME stack. Legal only when
  // the fiber never started or its body returned (finished()) — a
  // suspended fiber still owns live frames on that stack.
  void reset(Body body);

  std::size_t stack_bytes() const { return stack_bytes_; }

  // The fiber currently executing on this thread, or nullptr.
  static Fiber* current();

 private:
  static void* entry(void* self) noexcept;
  void arm();

  Body body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  // Saved stack pointers: the fiber's own while it is switched out, and
  // that of whoever last resumed it (set afresh by every resume()).
  void* sp_ = nullptr;
  void* return_sp_ = nullptr;
  bool started_ = false;
  bool finished_ = false;
  // AddressSanitizer fiber-switch bookkeeping (unused in plain builds):
  // the fiber's saved fake stack while it is switched out, and the stack
  // extent of whoever last resumed it (needed to switch back out).
  void* asan_save_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
};

// A bounded cache of finished fibers keyed by one stack size. acquire()
// re-arms an idle fiber when one exists (reusing its stack) and allocates
// otherwise; release() returns a finished fiber to the cache, destroying
// it instead when the cache is full. Thread-safe: the async executor's
// workers share one pool. created()/reused() expose the allocation-
// avoidance ratio the async bench reports.
class FiberPool {
 public:
  explicit FiberPool(std::size_t stack_bytes = 128 * 1024,
                     std::size_t max_idle = 32)
      : stack_bytes_(stack_bytes), max_idle_(max_idle) {}

  std::unique_ptr<Fiber> acquire(Fiber::Body body);
  void release(std::unique_ptr<Fiber> fiber);

  std::uint64_t created() const;
  std::uint64_t reused() const;
  std::size_t idle() const;

 private:
  mutable std::mutex mu_;
  std::size_t stack_bytes_;
  std::size_t max_idle_;
  std::vector<std::unique_ptr<Fiber>> idle_;
  std::uint64_t created_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace wfl
