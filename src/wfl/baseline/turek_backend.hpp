// LockBackend adapter over TurekLockSpace: the §3 lock-free helping
// baseline behind the unified submit() shape.
//
// Policy mapping (the honest reading of a lock-free discipline):
//   * a Turek apply() is an *operation*, not an attempt — it always
//     completes (possibly by being helped), so every submission reports
//     won=true with attempts=1 and any max_attempts >= 1 is trivially
//     satisfied;
//   * what is NOT bounded is the caller's own work: total_steps counts the
//     recursive helping excursions, which is exactly the quantity the
//     wait-free comparison experiments plot. pre/post_reveal_work stay 0 —
//     there is no reveal step in this discipline.
//
// Sessions recycle the underlying EBR participants: TurekLockSpace never
// recycles pids on its own (registration is monotonic up to max_procs), so
// the adapter registers each slot's process lazily, once, and hands the
// same handle to every later session on that slot. Releasing a slot drops
// any guard held on the process's behalf (legal for the same reason
// EbrDomain::abandon is: a destroyed session takes no further steps).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "wfl/baseline/turek.hpp"
#include "wfl/core/backend.hpp"

namespace wfl {

template <typename Plat>
struct TurekBackend {
  using Platform = Plat;

  class Space {
   public:
    using Inner = TurekLockSpace<Plat>;
    using Process = typename Inner::Process;

    explicit Space(const BackendConfig& cfg)
        : cfg_(cfg.lock),
          max_procs_(cfg.max_procs),
          inner_(cfg.max_procs, cfg.num_locks),
          slots_(cfg.max_procs),
          procs_(static_cast<std::size_t>(cfg.max_procs)) {
      cfg_.validate();
    }

    int num_locks() const { return inner_.num_locks(); }
    int max_procs() const { return max_procs_; }
    const LockConfig& config() const { return cfg_; }

    Inner& inner() { return inner_; }
    std::uint64_t helps() const { return inner_.helps(); }

    int acquire_pid() {
      const int pid = slots_.acquire();
      std::lock_guard<std::mutex> g(reg_mu_);
      Process& p = procs_[static_cast<std::size_t>(pid)];
      if (p.ebr_pid < 0) p = inner_.register_process();
      return pid;
    }

    void release_pid(int pid) {
      // Drop any guard the slot's process may still hold (no-op when the
      // session ended in an orderly way); the slot then becomes reusable —
      // the previous holder provably takes no further steps.
      inner_.release_process(process_of(pid));
      slots_.release(pid);
    }

    Process process_of(int pid) const {
      return procs_[static_cast<std::size_t>(pid)];
    }

   private:
    LockConfig cfg_;
    int max_procs_;
    Inner inner_;
    ProcSlots slots_;
    std::mutex reg_mu_;
    std::vector<Process> procs_;
  };

  using Session = SlotSession<Space>;

  static const char* name() { return "turek"; }
  static BackendProgress progress() { return BackendProgress::kLockFree; }

  static std::unique_ptr<Space> make_space(const BackendConfig& cfg) {
    return std::make_unique<Space>(cfg);
  }

  template <typename F>
  static Outcome submit(Session& session, LockSetView locks, const F& f,
                        Policy policy = Policy::one_shot()) {
    (void)policy;  // always one winning operation; see header comment
    Space& space = session.space();
    WFL_CHECK_MSG(locks.size() <= space.config().max_locks,
                  "lock set exceeds the configured L bound");
    const std::uint64_t before = Plat::steps();
    typename Space::Inner::Thunk thunk{F(f)};
    space.inner().apply(space.process_of(session.pid()), locks,
                        std::move(thunk));
    Outcome out;
    out.won = true;
    out.attempts = 1;
    out.total_steps = Plat::steps() - before;
    return out;
  }
};

}  // namespace wfl
