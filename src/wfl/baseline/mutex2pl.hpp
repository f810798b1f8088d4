// Baseline: ordered two-phase locking on std::mutex, as a LockBackend —
// what most deployed systems actually do for multi-lock critical sections.
//
// RealPlat only: an OS mutex blocks the *thread*, so parking a simulator
// fiber on it would wedge every fiber sharing that thread. The registries
// in baseline/backends.hpp therefore list this backend only for RealPlat.
//
// Policy mapping (the honest reading of an OS-blocking discipline):
//   * Policy::retry() (and any unlimited submission) maps to ONE blocking
//     acquisition of the whole set — attempts=1, won=true. That single
//     "attempt" may sleep unboundedly on a held mutex; reporting it as many
//     failed probes would misstate what the discipline does;
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
#include <mutex>
#include <vector>

#include "wfl/core/backend.hpp"
#include "wfl/platform/real.hpp"

namespace wfl {

struct Mutex2plBackend {
  using Platform = RealPlat;

  class Space {
   public:
    using Process = ExclusiveIdem<RealPlat>::Process;

    explicit Space(const BackendConfig& cfg)
        : cfg_(cfg.lock), idem_(cfg.max_procs) {
      cfg_.validate();
      WFL_CHECK(cfg.num_locks > 0);
      locks_.reserve(static_cast<std::size_t>(cfg.num_locks));
      for (int i = 0; i < cfg.num_locks; ++i) {
        locks_.push_back(std::make_unique<std::mutex>());
      }
    }

    int num_locks() const { return static_cast<int>(locks_.size()); }
    int max_procs() const { return idem_.max_procs(); }
    const LockConfig& config() const { return cfg_; }

    Process register_process() { return idem_.register_process(); }
    void release_process(Process p) { idem_.release_process(p); }

    // Blocks until it holds every lock of the sorted set, runs f, releases.
    template <typename F>
    void locked(Process p, LockSetView locks, const F& f) {
      for (const std::uint32_t id : locks) locks_[id]->lock();
      run(p, f);
      unlock_first(locks, locks.size());
    }

    // One attempt: take every lock of the sorted set without blocking, or
    // none; on success run f once. Releases in reverse either way.
    template <typename F>
    bool try_locked(Process p, LockSetView locks, const F& f) {
      std::uint32_t held = 0;
      while (held < locks.size() && locks_[locks[held]]->try_lock()) ++held;
      const bool won = held == locks.size();
      if (won) run(p, f);
      unlock_first(locks, held);
      return won;
    }

   private:
    template <typename F>
    void run(Process p, const F& f) {
      IdemCtx<RealPlat> m = idem_.ctx_for(p);
      f(m);
    }

    void unlock_first(LockSetView locks, std::uint32_t n) {
      while (n > 0) locks_[locks[--n]]->unlock();
    }

    LockConfig cfg_;
    std::vector<std::unique_ptr<std::mutex>> locks_;
    ExclusiveIdem<RealPlat> idem_;
  };

  using Session = BasicSession<Space>;

  static const char* name() { return "mutex2pl"; }
  static BackendProgress progress() { return BackendProgress::kBlocking; }

  static std::unique_ptr<Space> make_space(const BackendConfig& cfg) {
    return std::make_unique<Space>(cfg);
  }

  template <typename F>
  static Outcome submit(Session& session, LockSetView locks, const F& f,
                        Policy policy = Policy::one_shot()) {
    Space& space = session.space();
    check_lock_set(space, locks);
    const std::uint64_t before = RealPlat::steps();
    Outcome out;
    if (policy.max_attempts == 0) {
      space.locked(session.process(), locks, f);
      out.won = true;
      out.attempts = 1;
    } else {
      for (;;) {
        ++out.attempts;
        if (space.try_locked(session.process(), locks, f)) {
          out.won = true;
          break;
        }
        if (policy_exhausted(policy, out)) break;
      }
    }
    out.total_steps = RealPlat::steps() - before;
    return out;
  }
};

}  // namespace wfl
