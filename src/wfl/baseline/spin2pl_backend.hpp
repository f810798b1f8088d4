// LockBackend adapter over Spin2PL: blocking ordered two-phase locking
// with test-and-set spinlocks, behind the unified submit() shape.
//
// Policy mapping (the honest reading of an attempt-shaped blocking
// discipline):
//   * one attempt = try_locked with a bounded per-lock patience of
//     kPatience spins: it either acquires the whole sorted set or releases
//     what it got and reports a loss — so attempts always terminate, but a
//     *held* lock fails every attempt for as long as its holder sits on it
//     (forever, if the holder crashed — the wedge exp_crash measures);
//   * Policy::retry() re-attempts at once with no bound: termination
//     depends on the other holders, which is exactly the blocking
//     semantics.
//
// Critical sections run exactly once under mutual exclusion, but still
// through IdemCtx (one private per-pid log, fresh tag base per
// submission), so the same substrate thunks run unmodified and the
// idempotent Cells observe the same tagged-word protocol every other
// backend uses. This is the measured cost of the construction when nobody
// can help — exp_throughput's spin2pl rows.
#pragma once

#include <cstdint>
#include <memory>

#include "wfl/baseline/spin2pl.hpp"
#include "wfl/core/backend.hpp"

namespace wfl {

template <typename Plat>
struct Spin2plBackend {
  using Platform = Plat;

  // Per-lock test-and-set spins one attempt makes before giving up.
  static constexpr int kPatience = 4;

  class Space {
   public:
    using Inner = Spin2PL<Plat>;

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
    // Crash audit: a held flag after all live processes drained belongs to
    // a process that died inside its critical section.
    bool any_held() const { return inner_.any_held(); }

    int acquire_pid() { return slots_.acquire(); }
    void release_pid(int pid) { slots_.release(pid); }

    IdemCtx<Plat> ctx_for(int pid) { return idem_.ctx_for(pid); }

   private:
    LockConfig cfg_;
    int max_procs_;
    Inner inner_;
    ProcSlots slots_;
    ExclusiveIdem<Plat> idem_;
  };

  using Session = SlotSession<Space>;

  static const char* name() { return "spin2pl"; }
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
    const std::uint64_t before = Plat::steps();
    Outcome out;
    for (;;) {
      ++out.attempts;
      const bool won = space.inner().try_locked(
          locks,
          [&] {
            IdemCtx<Plat> m = space.ctx_for(session.pid());
            f(m);
          },
          kPatience);
      if (won) {
        out.won = true;
        break;
      }
      if (policy_exhausted(policy, out)) break;
    }
    out.total_steps = Plat::steps() - before;
    return out;
  }
};

}  // namespace wfl
