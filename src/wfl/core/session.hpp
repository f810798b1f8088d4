// Sessions: RAII ownership of a registered process.
//
// Before this layer existed, every caller juggled the raw `Process` value
// protocol by hand: register_process() once per thread/fiber, remember to
// never let the value outlive the space, call abandon_process() from crash
// harnesses, and bracket any inspection of shared descriptors with
// ebr_enter/ebr_exit. All four were easy to forget and none was enforced.
//
// A BasicSession owns exactly one registered process of one space:
//
//   * construction registers (reusing a released slot when one exists);
//   * destruction releases the slot — guards are dropped on the process's
//     behalf and, if the process ended in an orderly way, the pid becomes
//     available to the next session (a process crash-parked inside a
//     guarded attempt segment is abandoned instead and its slot retired —
//     see LockTable::release_process). This is safe for the same reason
//     EbrDomain::abandon is: a destroyed session can, by construction,
//     take no further steps with that process;
//   * moveable-not-copyable, so ownership of the registration is unique
//     and transfers explicitly;
//   * guard() hands out a scoped EbrGuard for inspector-style reads
//     (PlayerObserver, adversary harnesses) — re-entrant, because the
//     process's guard depth is.
//
// BasicSession is parameterized over the space type (the duck-typed
// requirements below); `Session<Plat>` — a session of a LockTable, in any
// DelayMode, §6.2's unknown bounds included — is the alias virtually all
// code wants. Locks are taken
// through executor.hpp's submit(session, locks, f, policy) — the one
// acquisition entry point.
#pragma once

#include <utility>

#include "wfl/core/lock_table.hpp"

namespace wfl {

// Space requirements (duck-typed): a `Process` value with an `int pid`
// field, Process register_process() and release_process(Process). Only
// guard() needs ebr_enter(Process)/ebr_exit(Process), and only
// executor.hpp's submit() needs try_locks(Process, LockSetView, Thunk,
// AttemptInfo*) — the baseline spaces (baseline/) have neither and submit
// through their backend's submit().
template <typename Space>
class BasicSession {
 public:
  using Process = typename Space::Process;

  explicit BasicSession(Space& space)
      : space_(&space), proc_(space.register_process()) {}

  ~BasicSession() {
    if (space_ != nullptr) space_->release_process(proc_);
  }

  BasicSession(const BasicSession&) = delete;
  BasicSession& operator=(const BasicSession&) = delete;

  BasicSession(BasicSession&& other) noexcept
      : space_(std::exchange(other.space_, nullptr)), proc_(other.proc_) {}
  BasicSession& operator=(BasicSession&& other) noexcept {
    if (this != &other) {
      if (space_ != nullptr) space_->release_process(proc_);
      space_ = std::exchange(other.space_, nullptr);
      proc_ = other.proc_;
    }
    return *this;
  }

  // False only for a moved-from shell.
  bool active() const { return space_ != nullptr; }

  Space& space() const {
    WFL_CHECK_MSG(space_ != nullptr, "session is not registered (moved-from)");
    return *space_;
  }
  Process process() const { return proc_; }
  int pid() const { return proc_.pid; }

  // Scoped reclamation protection for inspector-style reads of shared
  // descriptors/snapshots (the adaptive-player pattern). Nesting is fine:
  // guard acquisition is re-entrant.
  class EbrGuard {
   public:
    explicit EbrGuard(BasicSession& session) : session_(&session) {
      session.space().ebr_enter(session.process());
    }
    ~EbrGuard() {
      if (session_ != nullptr) {
        session_->space().ebr_exit(session_->process());
      }
    }
    EbrGuard(const EbrGuard&) = delete;
    EbrGuard& operator=(const EbrGuard&) = delete;

   private:
    BasicSession* session_;
  };

  EbrGuard guard() { return EbrGuard(*this); }

 private:
  Space* space_;
  Process proc_{};
};

template <typename Space>
BasicSession(Space&) -> BasicSession<Space>;

// The session type for the known-bounds lock table.
template <typename Plat>
using Session = BasicSession<LockTable<Plat>>;

}  // namespace wfl
