// Baseline: lock-free locks with recursive helping, in the style of
// Turek–Shasha–Prakash (PODS '92) and Barnes (SPAA '93) as recounted in §3
// of the paper.
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
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "wfl/core/descriptor.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/fixed_function.hpp"

namespace wfl {

template <typename Plat>
class TurekLockSpace {
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

  struct Process {
    int ebr_pid = -1;
  };

  TurekLockSpace(int max_procs, int num_locks)
      : desc_pool_(std::max(1024, max_procs * 128)), ebr_(max_procs) {
    WFL_CHECK(max_procs > 0 && num_locks > 0);
    owners_.resize(static_cast<std::size_t>(num_locks));
    for (auto& o : owners_) o = std::make_unique<OwnerCell>();
  }

  Process register_process() { return Process{ebr_.register_participant()}; }

  int num_locks() const { return static_cast<int>(owners_.size()); }

  // Executes `thunk` under the given locks. Always succeeds (it is an
  // operation, not an attempt) but may take unboundedly many of the
  // caller's steps under contention — the lock-free-not-wait-free deal.
  void apply(Process proc, std::span<const std::uint32_t> lock_ids,
             Thunk thunk) {
    WFL_CHECK(proc.ebr_pid >= 0);
    WFL_CHECK_MSG(lock_ids.size() <= kMaxLocksPerAttempt,
                  "lock set exceeds the shared per-attempt budget");
    const std::uint32_t didx = desc_pool_.alloc();
    Desc& d = desc_pool_.at(didx);
    d.reinit(serial_.fetch_add(1, std::memory_order_relaxed));
    d.lock_count = static_cast<std::uint32_t>(lock_ids.size());
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      WFL_CHECK(lock_ids[i] < owners_.size());
      d.lock_ids[i] = lock_ids[i];
    }
    std::sort(d.lock_ids, d.lock_ids + d.lock_count);
    for (std::uint32_t i = 1; i < d.lock_count; ++i) {
      WFL_CHECK_MSG(d.lock_ids[i] != d.lock_ids[i - 1], "duplicate lock");
    }
    d.thunk = std::move(thunk);

    ebr_.enter(proc.ebr_pid);
    help(d, 0);
    ebr_.exit(proc.ebr_pid);
    ebr_.retire(proc.ebr_pid, this, didx, &free_descriptor);
  }

  std::uint64_t helps() const {
    return helps_.load(std::memory_order_relaxed);
  }

  // Orderly end-of-session (BasicSession's destructor). Turek pids are not
  // recycled; releasing just drops any guard held at teardown.
  void release_process(Process p) { ebr_.abandon(p.ebr_pid); }

 private:
  struct OwnerCell {
    typename Plat::template Atomic<Desc*> owner{nullptr};
  };

  static void free_descriptor(void* ctx, std::uint32_t handle) {
    static_cast<TurekLockSpace*>(ctx)->desc_pool_.free(handle);
  }

  // Drives `d` to completion: acquire remaining locks in order, helping
  // (recursively) any current owner encountered. Depth is bounded by the
  // number of processes — the helping chain d1→d2→… follows strictly
  // increasing lock ids (each owner blocks on a lock above the ones it
  // holds), so it cannot cycle.
  void help(Desc& d, int depth) {
    WFL_CHECK_MSG(depth < kMaxHelpDepth, "helping chain exceeded bound");
    while (d.done.load() == 0) {
      for (std::uint32_t i = 0; i < d.lock_count && d.done.load() == 0; ++i) {
        auto& cell = owners_[d.lock_ids[i]]->owner;
        for (;;) {
          Desc* cur = cell.load();
          if (cur == &d) break;  // already ours (possibly via a helper)
          if (d.done.load() != 0) break;
          if (cur == nullptr) {
            if (cell.cas(nullptr, &d)) break;
            continue;  // lost the race; re-read
          }
          // Occupied: recursively help the owner finish, then retry. While
          // d's status is not done, nothing releases locks already held for
          // d (owner cells change only null→x and x→null-after-done), so
          // held locks stay held across the helping excursion.
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

  IndexPool<Desc> desc_pool_;
  EbrDomain ebr_;
  std::vector<std::unique_ptr<OwnerCell>> owners_;
  std::atomic<std::uint64_t> serial_{1};
  std::atomic<std::uint64_t> helps_{0};
};

}  // namespace wfl
