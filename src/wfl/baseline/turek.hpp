// Baseline: lock-free locks with recursive helping, in the style of
// Turek–Shasha–Prakash (PODS '92) and Barnes (SPAA '93) as recounted in §3
// of the paper, as a LockBackend.
//
// Each lock holds a pointer to the descriptor of its current owner. An
// operation acquires its (sorted) lock set left to right with CAS; when it
// finds a lock held, it *helps*: it runs the owner's whole operation
// (recursively helping whatever that owner is blocked on), then retries.
// Critical sections are executed through the same idempotence construction
// the wait-free locks use, so helpers replaying a thunk are harmless.
//
// Properties (faithful to the originals): lock-free — some operation always
// completes; NOT wait-free — a given operation can help forever and lose
// every race (no priorities, no fairness bound). This is the comparison
// point that motivates the paper.
//
// Policy mapping (the honest reading of a lock-free discipline):
//   * a Turek submission is an *operation*, not an attempt — it always
//     completes (possibly by being helped), so every submission reports
//     won=true with attempts=1 and any max_attempts >= 1 is trivially
//     satisfied;
//   * what is NOT bounded is the caller's own work: total_steps counts the
//     recursive helping excursions, which is exactly the quantity the
//     wait-free comparison experiments plot. pre/post_reveal_work stay 0 —
//     there is no reveal step in this discipline.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "wfl/core/backend.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/fixed_function.hpp"

namespace wfl {

template <typename Plat>
struct TurekBackend {
  using Platform = Plat;

  class Space {
   public:
    struct Desc {
      using Thunk = FixedFunction<void(IdemCtx<Plat>&), 64>;
      std::uint32_t lock_ids[kMaxLocksPerAttempt] = {};  // sorted
      std::uint32_t lock_count = 0;
      Thunk thunk;
      std::uint32_t tag_base = 0;
      typename Plat::template Atomic<std::uint32_t> done;
      ThunkLog<Plat> log;

      void reinit(std::uint64_t serial) {
        lock_count = 0;
        thunk.reset();
        tag_base = idem_tag_base(serial);  // never-zero, wrap-safe (idem.hpp)
        done.init(0);
        log.reset();
      }
    };
    using Thunk = typename Desc::Thunk;

    // A dense pid, which is also the process's participant id in the
    // space's EBR domain.
    struct Process {
      int pid = -1;
    };

    explicit Space(const BackendConfig& cfg)
        : cfg_(cfg.lock),
          max_procs_(cfg.max_procs),
          desc_pool_(std::max(1024, cfg.max_procs * 128)),
          ebr_(cfg.max_procs) {
      cfg_.validate();
      WFL_CHECK(cfg.max_procs > 0 && cfg.num_locks > 0);
      owners_.resize(static_cast<std::size_t>(cfg.num_locks));
      for (auto& o : owners_) o = std::make_unique<OwnerCell>();
    }

    int num_locks() const { return static_cast<int>(owners_.size()); }
    int max_procs() const { return max_procs_; }
    const LockConfig& config() const { return cfg_; }

    // Reuses the most recently released pid, else registers a fresh EBR
    // participant (which aborts past max_procs). Off every attempt path.
    Process register_process() {
      std::lock_guard<std::mutex> g(reg_mu_);
      if (!free_pids_.empty()) {
        const int pid = free_pids_.back();
        free_pids_.pop_back();
        return Process{pid};
      }
      return Process{ebr_.register_participant()};
    }

    // End of session: drop any guard still held on the process's behalf
    // (a no-op after an orderly end; legal for the same reason
    // EbrDomain::abandon is — a destroyed session takes no further steps),
    // then make the pid reusable.
    void release_process(Process p) {
      ebr_.abandon(p.pid);
      std::lock_guard<std::mutex> g(reg_mu_);
      free_pids_.push_back(p.pid);
    }

    // Executes `thunk` under the given locks. Always succeeds (it is an
    // operation, not an attempt) but may take unboundedly many of the
    // caller's steps under contention — the lock-free-not-wait-free deal.
    void apply(Process proc, LockSetView locks, Thunk thunk) {
      WFL_CHECK(proc.pid >= 0);
      WFL_CHECK_MSG(locks.size() <= kMaxLocksPerAttempt,
                    "lock set exceeds the shared per-attempt budget");
      const std::uint32_t didx = desc_pool_.alloc();
      Desc& d = desc_pool_.at(didx);
      d.reinit(serial_.fetch_add(1, std::memory_order_relaxed));
      d.lock_count = locks.size();
      std::copy(locks.begin(), locks.end(), d.lock_ids);
      d.thunk = std::move(thunk);

      ebr_.enter(proc.pid);
      help(d, 0);
      ebr_.exit(proc.pid);
      ebr_.retire(proc.pid, this, didx, &free_descriptor);
    }

    std::uint64_t helps() const {
      return helps_.load(std::memory_order_relaxed);
    }

   private:
    struct OwnerCell {
      typename Plat::template Atomic<Desc*> owner{nullptr};
    };

    static void free_descriptor(void* ctx, std::uint32_t handle) {
      static_cast<Space*>(ctx)->desc_pool_.free(handle);
    }

    // Drives `d` to completion: acquire remaining locks in order, helping
    // (recursively) any current owner encountered. Depth is bounded by the
    // number of processes — the helping chain d1→d2→… follows strictly
    // increasing lock ids (each owner blocks on a lock above the ones it
    // holds), so it cannot cycle.
    void help(Desc& d, int depth) {
      WFL_CHECK_MSG(depth < kMaxHelpDepth, "helping chain exceeded bound");
      while (d.done.load() == 0) {
        for (std::uint32_t i = 0; i < d.lock_count && d.done.load() == 0;
             ++i) {
          auto& cell = owners_[d.lock_ids[i]]->owner;
          for (;;) {
            Desc* cur = cell.load();
            if (cur == &d) break;  // already ours (possibly via a helper)
            if (d.done.load() != 0) break;
            if (cur == nullptr) {
              if (cell.cas(nullptr, &d)) break;
              continue;  // lost the race; re-read
            }
            // Occupied: recursively help the owner finish, then retry.
            // While d's status is not done, nothing releases locks already
            // held for d (owner cells change only null→x and
            // x→null-after-done), so held locks stay held across the
            // helping excursion.
            helps_.fetch_add(1, std::memory_order_relaxed);
            help(*cur, depth + 1);
          }
        }
        if (d.done.load() == 0) {
          if (d.thunk) {
            IdemCtx<Plat> m(d.log, d.tag_base);
            d.thunk(m);
          }
          d.done.store(1);
        }
      }
      // Release: anyone (owner or helper) may clear; CAS keeps it exact.
      for (std::uint32_t i = 0; i < d.lock_count; ++i) {
        owners_[d.lock_ids[i]]->owner.cas(&d, nullptr);
      }
    }

    static constexpr int kMaxHelpDepth = 128;

    LockConfig cfg_;
    int max_procs_;
    IndexPool<Desc> desc_pool_;
    EbrDomain ebr_;
    std::vector<std::unique_ptr<OwnerCell>> owners_;
    std::atomic<std::uint64_t> serial_{1};
    std::atomic<std::uint64_t> helps_{0};
    std::mutex reg_mu_;
    std::vector<int> free_pids_;  // released pids awaiting reuse (reg_mu_)
  };

  using Session = BasicSession<Space>;

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
    check_lock_set(space, locks);
    const std::uint64_t before = Plat::steps();
    space.apply(session.process(), locks, typename Space::Thunk{F(f)});
    Outcome out;
    out.won = true;
    out.attempts = 1;
    out.total_steps = Plat::steps() - before;
    return out;
  }
};

}  // namespace wfl
