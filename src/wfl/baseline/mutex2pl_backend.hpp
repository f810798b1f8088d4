// LockBackend adapter over Mutex2PL: ordered two-phase locking on
// std::mutex — what most deployed systems actually do for multi-lock
// critical sections — behind the unified submit() shape.
//
// RealPlat only: an OS mutex blocks the *thread*, so parking a simulator
// fiber on it would wedge every fiber sharing that thread. The registries
// in baseline/backends.hpp therefore list this backend only for RealPlat.
//
// Policy mapping (the honest reading of an OS-blocking discipline):
//   * Policy::retry() (and any unlimited submission) maps to ONE blocking
//     locked() acquisition — attempts=1, won=true. That single "attempt"
//     may sleep unboundedly on a held mutex; reporting it as many failed
//     probes would misstate what the discipline does;
//   * a bounded Policy (max_attempts = n) maps to n back-to-back try_lock
//     passes over the sorted set — the attempt-shaped comparison the
//     crash/tail experiments need.
//
// Critical sections run exactly once under mutual exclusion, through a
// private IdemCtx (same reasoning as Spin2plBackend).
//
// total_steps counts Plat::steps() like every backend, but an OS mutex
// sleeps without stepping, so blocked time is invisible to it —
// wall-clock benches (exp_throughput) are where this backend is measured.
#pragma once

#include <cstdint>
#include <memory>

#include "wfl/baseline/mutex2pl.hpp"
#include "wfl/core/backend.hpp"
#include "wfl/platform/real.hpp"

namespace wfl {

struct Mutex2plBackend {
  using Platform = RealPlat;

  class Space {
   public:
    using Inner = Mutex2PL;

    explicit Space(const BackendConfig& cfg)
        : cfg_(cfg.lock),
          max_procs_(cfg.max_procs),
          inner_(cfg.num_locks),
          slots_(cfg.max_procs),
          idem_(cfg.max_procs) {
      cfg_.validate();
    }

    int num_locks() const { return inner_.num_locks(); }
    int max_procs() const { return max_procs_; }
    const LockConfig& config() const { return cfg_; }

    Inner& inner() { return inner_; }

    int acquire_pid() { return slots_.acquire(); }
    void release_pid(int pid) { slots_.release(pid); }

    IdemCtx<RealPlat> ctx_for(int pid) { return idem_.ctx_for(pid); }

   private:
    LockConfig cfg_;
    int max_procs_;
    Inner inner_;
    ProcSlots slots_;
    ExclusiveIdem<RealPlat> idem_;
  };

  using Session = SlotSession<Space>;

  static const char* name() { return "mutex2pl"; }
  static BackendProgress progress() { return BackendProgress::kBlocking; }

  static std::unique_ptr<Space> make_space(const BackendConfig& cfg) {
    return std::make_unique<Space>(cfg);
  }

  template <typename F>
  static Outcome submit(Session& session, LockSetView locks, const F& f,
                        Policy policy = Policy::one_shot()) {
    Space& space = session.space();
    WFL_CHECK_MSG(locks.size() <= space.config().max_locks,
                  "lock set exceeds the configured L bound");
    const std::uint64_t before = RealPlat::steps();
    Outcome out;
    auto run = [&] {
      IdemCtx<RealPlat> m = space.ctx_for(session.pid());
      f(m);
    };
    if (policy.max_attempts == 0) {
      space.inner().locked(locks, run);
      out.won = true;
      out.attempts = 1;
    } else {
      for (;;) {
        ++out.attempts;
        if (space.inner().try_locked(locks, run)) {
          out.won = true;
          break;
        }
        if (out.attempts >= policy.max_attempts) break;
      }
    }
    out.total_steps = RealPlat::steps() - before;
    return out;
  }
};

}  // namespace wfl
