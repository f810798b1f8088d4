// Minimal stackful fiber with a register-only context switch.
//
// The deterministic simulator (sim/sim.hpp) runs every logical process as
// a fiber on one OS thread, so a "schedule" is simply the order in which
// fibers are resumed — execution is bit-for-bit deterministic given the
// schedule, which is what lets us play the paper's oblivious adversarial
// scheduler exactly. (The async executor needs no fibers: its worker
// cycles are bounded attempts, run as plain calls on the worker's stack.)
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
// x86-64, FPCR on AArch64) are per fiber: a new fiber starts with its
// creator's, and each side keeps its own across switches.
//
// The body is a FixedFunction, not a std::function: the bodies the
// simulator installs are small capture packs, and an inline body keeps a
// process's creation to the one stack allocation.
#pragma once

#include <cstddef>
#include <memory>

#include "wfl/util/fixed_function.hpp"

namespace wfl {

class Fiber {
 public:
  // Capture budget for fiber bodies. Simulator bodies capture a handful
  // of references. Bodies larger than this fail at compile time — bundle
  // captures in a struct.
  using Body = FixedFunction<void(), 128>;

  // Destroying a suspended (unfinished) fiber leaks whatever its stack
  // owns; the simulator only destroys fibers after draining them or at
  // teardown, where that is acceptable by construction.
  explicit Fiber(Body body, std::size_t stack_bytes = 128 * 1024);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Switches into the fiber; returns when the fiber yields or its body
  // returns. Must not be called on a finished fiber.
  void resume();

  // Called from inside a running fiber: suspends it and returns control to
  // the resume() caller.
  static void yield();

  bool finished() const { return finished_; }

  // The fiber currently executing on this thread, or nullptr.
  static Fiber* current();

 private:
  static void* entry(void* self) noexcept;

  Body body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  // Saved stack pointers: the fiber's own while it is switched out, and
  // that of whoever last resumed it (set afresh by every resume()).
  void* sp_ = nullptr;
  void* return_sp_ = nullptr;
  bool finished_ = false;
  // AddressSanitizer fiber-switch bookkeeping (unused in plain builds):
  // the fiber's saved fake stack while it is switched out, and the stack
  // extent of whoever last resumed it (needed to switch back out).
  void* asan_save_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
};

}  // namespace wfl
