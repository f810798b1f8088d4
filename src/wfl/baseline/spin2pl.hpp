// Baseline: blocking two-phase locking over test-and-set spinlocks, as a
// LockBackend.
//
// The classic practice the paper's locks are measured against: acquire the
// lock set in ascending id order (deadlock freedom by global order), run
// the critical section directly (no helping — mutual exclusion is by
// blocking), release in reverse. Not wait-free, not fair: a preempted (or
// starved) lock holder blocks everyone behind it — exactly the failure
// mode wait-free locks remove.
//
// Policy mapping (the honest reading of an attempt-shaped blocking
// discipline):
//   * one attempt tries each lock for up to kPatience test-and-set spins:
//     it either acquires the whole set or releases what it got and reports
//     a loss — so attempts always terminate, but a *held* lock fails every
//     attempt for as long as its holder sits on it (forever, if the holder
//     crashed — the wedge exp_crash measures);
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
#include <vector>

#include "wfl/core/backend.hpp"
#include "wfl/util/align.hpp"

namespace wfl {

template <typename Plat>
struct Spin2plBackend {
  using Platform = Plat;

  // Per-lock test-and-set spins one attempt makes before giving up.
  static constexpr int kPatience = 4;

  class Space {
   public:
    using Process = typename ExclusiveIdem<Plat>::Process;

    explicit Space(const BackendConfig& cfg)
        : cfg_(cfg.lock),
          flags_(static_cast<std::size_t>(cfg.num_locks)),
          idem_(cfg.max_procs) {
      cfg_.validate();
      WFL_CHECK(cfg.num_locks > 0);
      for (auto& f : flags_) f->init(0);
    }

    int num_locks() const { return static_cast<int>(flags_.size()); }
    int max_procs() const { return idem_.max_procs(); }
    const LockConfig& config() const { return cfg_; }

    Process register_process() { return idem_.register_process(); }
    void release_process(Process p) { idem_.release_process(p); }

    // Crash audit (quiescent use): true if any lock is held. After all
    // live processes drained, a held flag can only belong to a process
    // that died inside its critical section.
    bool any_held() const {
      for (const auto& f : flags_) {
        if (f->peek() != 0) return true;
      }
      return false;
    }

    // One attempt: acquire every lock of the sorted set or none; on
    // success run f once, then release in reverse.
    template <typename F>
    bool try_locked(Process p, LockSetView locks, const F& f) {
      std::uint32_t held = 0;
      while (held < locks.size() && try_acquire(locks[held])) ++held;
      const bool won = held == locks.size();
      if (won) {
        IdemCtx<Plat> m = idem_.ctx_for(p);
        f(m);
      }
      while (held > 0) flags_[locks[--held]]->store(0);
      return won;
    }

   private:
    bool try_acquire(std::uint32_t id) {
      auto& f = *flags_[id];
      for (int s = 0; s < kPatience; ++s) {
        if (f.load() == 0 && f.cas(0, 1)) return true;
      }
      return false;
    }

    LockConfig cfg_;
    std::vector<CachePadded<typename Plat::template Atomic<std::uint32_t>>>
        flags_;
    ExclusiveIdem<Plat> idem_;
  };

  using Session = BasicSession<Space>;

  static const char* name() { return "spin2pl"; }
  static BackendProgress progress() { return BackendProgress::kBlocking; }

  static std::unique_ptr<Space> make_space(const BackendConfig& cfg) {
    return std::make_unique<Space>(cfg);
  }

  template <typename F>
  static Outcome submit(Session& session, LockSetView locks, const F& f,
                        Policy policy = Policy::one_shot()) {
    Space& space = session.space();
    check_lock_set(space, locks);
    const std::uint64_t before = Plat::steps();
    Outcome out;
    for (;;) {
      ++out.attempts;
      if (space.try_locked(session.process(), locks, f)) {
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
