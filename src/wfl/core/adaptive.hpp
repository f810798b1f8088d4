// §6.2: handling unknown bounds (Theorem 6.10).
//
// The known-bounds algorithm used κ and L twice: to size the announcement
// arrays and to compute the fixed delays. This variant removes both uses:
//
//   * announcement arrays are sized P (total processes), while set sizes —
//     and hence step costs — stay proportional to the true contention;
//   * the reveal is split: after inserting, a descriptor performs its
//     *participation-reveal* (priority := TBD — it is now visible as a
//     competitor, but its priority is still hidden), takes a local snapshot
//     of every lock's set, and only then its *priority-reveal*. After the
//     priority is revealed the active sets are never queried again on its
//     behalf: the competition runs against the stored snapshots, so the
//     adversary learns the priority only after the set of potential
//     threateners is frozen;
//   * instead of delaying to a κ,L-derived constant, the descriptor
//     measures its own pre-participation work w and pads it to the next
//     power of two — the guess-and-double trick that confines the adversary
//     to log(κLT) distinguishable reveal times, which is exactly where the
//     theorem's log(κLT) fairness loss comes from.
//
// One case the PODC text leaves to the full version: a snapshot member
// whose priority is still TBD when the competition examines it. Skipping
// such members is provably unsafe — two descriptors that each snapshot the
// other pre-priority-reveal could both win a shared lock:
//
//   p inserts, snapshots {..no q..}; q inserts, snapshots {..p(TBD)..};
//   if q skips p and p never sees q, both decide won.
//
// Since inserts complete before snapshots are taken, at least one of any
// conflicting pair sees the other (their insert/snapshot windows cannot
// both precede each other). We therefore adopt a *seer-eliminates* rule:
// re-read the member's priority once more; if it is still TBD, eliminate
// it. Elimination happens before either priority is known, so it cannot
// bias the priority distribution — it costs success probability, which
// experiment E8 measures and which stays inside the theorem's log factor.
// Safety then follows from the same celebrate-before-decide ordering as
// Algorithm 3.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "wfl/active/active_set.hpp"
#include "wfl/active/multi_set.hpp"
#include "wfl/core/attempt.hpp"
#include "wfl/core/config.hpp"
#include "wfl/core/descriptor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/process.hpp"
#include "wfl/core/session.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/fixed_function.hpp"

namespace wfl {

// Same cache-line segregation as Descriptor (core/descriptor.hpp): the
// helper-CAS'd competition words live on their own line, away from the
// owner's publication-time fields; the frozen snapshots and the thunk log
// each start fresh lines (written/CAS'd on their own schedules).
template <typename Plat>
struct alignas(kCacheLine) AdaptiveDescriptor {
  using Thunk = FixedFunction<void(IdemCtx<Plat>&), 64>;
  using Self = AdaptiveDescriptor<Plat>;

  // Written by the owner before publication; read-only afterwards.
  std::uint32_t lock_ids[kMaxLocksPerAttempt] = {};
  std::uint32_t lock_count = 0;
  Thunk thunk;
  std::uint32_t tag_base = 0;
  std::uint64_t serial = 0;

  // Owner-private.
  int slot_of_lock[kMaxLocksPerAttempt] = {};

  // Shared competition state. The snapshots are written by the owner
  // strictly between participation-reveal and priority-reveal; the
  // seq_cst store of the positive priority publishes them, so any reader
  // that observed a revealed priority reads frozen snapshots.
  alignas(kCacheLine) typename Plat::template Atomic<std::int64_t> priority;
  typename Plat::template Atomic<std::uint32_t> status;
  alignas(kCacheLine) MemberList<Self*> snaps[kMaxLocksPerAttempt];
  alignas(kCacheLine) ThunkLog<Plat> log;

  // Multi-active-set flag: *participation* is what makes a descriptor
  // visible here (TBD counts as flagged), unlike the known-bounds variant.
  bool flag() { return priority.load() != kPriorityPending; }
  void clear_flag() { priority.store(kPriorityPending); }

  // Returns the number of thunk-log slots re-initialized (lazy reset).
  std::uint32_t reinit(std::uint64_t new_serial) {
    lock_count = 0;
    thunk.reset();
    serial = new_serial;
    tag_base = idem_tag_base(new_serial);
    priority.init(kPriorityPending);
    status.init(kStatusActive);
    for (auto& s : snaps) s.count = 0;
    return log.reset_used();
  }
};

template <typename Plat>
class AdaptiveLockSpace {
 public:
  using Platform = Plat;
  using Desc = AdaptiveDescriptor<Plat>;
  using Thunk = typename Desc::Thunk;
  using Set = ActiveSet<Plat, Desc*>;
  using Handle = ProcessHandle<Plat, Desc>;

  struct Process {
    int ebr_pid = -1;
  };

  // No κ/L/T promises needed; `max_procs` (the paper's P) sizes the arrays.
  AdaptiveLockSpace(int max_procs, int num_locks, SpaceSizing sizing = {})
      : max_procs_(max_procs),
        snap_pool_(sizing.snap_pool_capacity != 0
                       ? sizing.snap_pool_capacity
                       : std::max<std::uint32_t>(
                             16384, static_cast<std::uint32_t>(max_procs) *
                                        1024)),
        desc_pool_(sizing.desc_pool_capacity != 0
                       ? sizing.desc_pool_capacity
                       : std::max<std::uint32_t>(
                             1024,
                             static_cast<std::uint32_t>(max_procs) * 128)),
        desc_caches_(static_cast<std::size_t>(std::max(max_procs, 1))),
        snap_caches_(static_cast<std::size_t>(std::max(max_procs, 1))),
        ebr_(max_procs),
        mem_{snap_pool_, ebr_, snap_caches_.data()},
        serial_block_(sizing.serial_block != 0 ? sizing.serial_block
                                               : kDefaultSerialBlock),
        handles_(static_cast<std::size_t>(std::max(max_procs, 1))) {
    WFL_CHECK(max_procs > 0 && num_locks > 0);
    WFL_CHECK(static_cast<std::uint32_t>(max_procs) <= kMaxSetCap);
    for (auto& c : desc_caches_) c->bind(&desc_pool_);
    for (auto& c : snap_caches_) c->bind(&snap_pool_);
    locks_.reserve(static_cast<std::size_t>(num_locks));
    for (int i = 0; i < num_locks; ++i) {
      locks_.push_back(std::make_unique<Set>(
          static_cast<std::uint32_t>(max_procs), mem_));
    }
  }

  // Same handle scheme as LockTable (core/process.hpp), with one shard:
  // striped stats and serial blocks, so this variant's hot path is also
  // free of process-shared counter writes. Slots released by destroyed
  // sessions are reused, handle and all (see LockTable::register_process).
  //
  // No embedded fast-path descriptor (with_fast_desc stays false): the
  // §5.1 thin-word protocol depends on an attempt's priority existing
  // before publication, while this variant's guess-and-double reveal
  // schedule is the whole point — and an AdaptiveDescriptor carries L
  // frozen snapshot lists, so the embedded copy would cost ~5KB per
  // handle for a path the space cannot take. Cooperative helping is
  // likewise not applied here: the §6.2 adaptivity argument leans on
  // every observer finishing revealed competitors, exactly like kTheory
  // mode (DESIGN.md §5.2).
  Process register_process() {
    std::lock_guard<std::mutex> lk(reg_mutex_);
    if (!free_pids_.empty()) {
      const int pid = free_pids_.back();
      free_pids_.pop_back();
      return Process{pid};
    }
    const int pid = ebr_.register_participant();
    WFL_CHECK(pid >= 0 && pid < static_cast<int>(handles_.size()));
    handles_[static_cast<std::size_t>(pid)] = std::make_unique<Handle>(
        pid, /*num_shards=*/1, serial_hwm_, serial_block_);
    registered_.store(pid + 1, std::memory_order_release);
    return Process{pid};
  }

  // Inspector guard (re-entrant through the handle's depth counter) and the
  // session lifecycle hooks — the same surface LockTable exposes, so
  // BasicSession serves both spaces.
  void ebr_enter(Process p) { handle(p).guard_enter(ebr_, 0); }
  void ebr_exit(Process p) { handle(p).guard_exit(ebr_, 0); }

  void abandon_process(Process p) {
    WFL_CHECK(p.ebr_pid >= 0);
    ebr_.abandon(p.ebr_pid);
  }

  // See LockTable::release_process: orderly ends recycle the slot; a
  // crash-parked process (nonzero guard depth) is abandoned and retired.
  // Either way the process's slot caches are spilled back to the shared
  // pools so a retired pid leaks nothing.
  void release_process(Process p) {
    WFL_CHECK(p.ebr_pid >= 0);
    Handle& h = handle(p);
    const bool parked_in_guard = h.guard_depth(0) != 0;
    ebr_.abandon(p.ebr_pid);
    const auto pidx = static_cast<std::size_t>(p.ebr_pid);
    desc_caches_[pidx]->drain();
    snap_caches_[pidx]->drain();
    if (parked_in_guard) return;
    std::lock_guard<std::mutex> lk(reg_mutex_);
    free_pids_.push_back(p.ebr_pid);
  }

  int num_locks() const { return static_cast<int>(locks_.size()); }
  int max_procs() const { return max_procs_; }

  // One attempt: the primitive under executor.hpp's submit(), which is
  // how callers take locks (through an AdaptiveSession).
  bool try_locks(Process proc, LockSetView lock_ids, Thunk thunk,
                 AttemptInfo* info = nullptr) {
    Handle& h = handle(proc);
    WFL_CHECK(lock_ids.size() <= kMaxLocksPerAttempt);
    h.stats().add_attempt();
    if (lock_ids.empty()) {
      if (thunk) {
        ThunkLog<Plat>& local_log = h.local_log();
        IdemCtx<Plat> m(local_log, 0);
        thunk(m);
        local_log.note_used(m.ops_used());
        h.stats().add_log_slot_resets(local_log.reset_used());
      }
      h.stats().add_win();
      if (info != nullptr) *info = AttemptInfo{true, 0, 0, 0};
      return true;
    }

    const std::uint64_t start_steps = Plat::steps();
    SlotCache<Desc>& dcache =
        *desc_caches_[static_cast<std::size_t>(proc.ebr_pid)];
    const std::uint32_t didx = dcache.alloc();
    Desc& d = desc_pool_.at(didx);
    h.stats().add_log_slot_resets(d.reinit(h.next_serial()));
    d.lock_count = static_cast<std::uint32_t>(lock_ids.size());
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      WFL_CHECK(lock_ids[i] < locks_.size());
      d.lock_ids[i] = lock_ids[i];
    }
    d.thunk = std::move(thunk);

    AdaptiveCtx cx{*this, h};

    // Help phase: finish everyone already visible on our locks. A member
    // still in its TBD window has no revealed priority yet, so it is not a
    // "known-priority" threat and is skipped (run() would defer on it
    // anyway); everyone revealed is driven to a decision.
    h.guard_enter(ebr_, 0);
    {
      MemberList<Desc*>& members = h.help_scratch();
      for (std::uint32_t i = 0; i < d.lock_count; ++i) {
        multi_get_set<Plat>(*locks_[d.lock_ids[i]], members);
        for (Desc* q : members) {
          if (q->priority.load() > 0) {
            h.stats().add_help();
            run(cx, *q);
          }
        }
      }
    }
    // Insert into every lock's set (still unflagged).
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      d.slot_of_lock[i] = locks_[d.lock_ids[i]]->insert(&d, proc.ebr_pid);
    }
    h.guard_exit(ebr_, 0);
    const std::uint64_t pre_reveal_work = Plat::steps() - start_steps;

    // Guess-and-double: pad the variable-length pre-participation work to
    // the next power of two of our own steps, making the participation-
    // reveal time one of only log-many values the adversary can induce.
    pad_to_power_of_two(start_steps);
    d.priority.store(kPriorityTbd);  // participation-reveal

    // Freeze the competition: snapshot every lock's membership. These
    // snapshots fix the potential-threatener set *before* our priority
    // exists anywhere.
    h.guard_enter(ebr_, 0);
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      multi_get_set<Plat>(*locks_[d.lock_ids[i]], d.snaps[i]);
    }
    h.guard_exit(ebr_, 0);

    d.priority.store(draw_priority<Plat>());  // priority-reveal
    const std::uint64_t reveal_steps = Plat::steps();

    h.guard_enter(ebr_, 0);
    run(cx, d);
    d.clear_flag();
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      locks_[d.lock_ids[i]]->remove(d.slot_of_lock[i], proc.ebr_pid);
    }
    h.guard_exit(ebr_, 0);
    const std::uint64_t post_reveal_work = Plat::steps() - reveal_steps;

    // Pad the post-reveal segment the same way, fixing the attempt's end
    // time to one of log-many offsets from the reveal.
    pad_to_power_of_two(reveal_steps);

    const bool won = d.status.load() == kStatusWon;
    if (won) h.stats().add_win();
    ebr_.retire(proc.ebr_pid, &dcache, didx,
                &SlotCache<Desc>::free_to_cache);
    if (info != nullptr) {
      // Unified accounting (executor.hpp): the work segments exclude the
      // guess-and-double padding, mirroring the known-bounds table's
      // delay-exclusive pre/post reveal work.
      info->won = won;
      info->pre_reveal_work = pre_reveal_work;
      info->post_reveal_work = post_reveal_work;
      info->total_steps = Plat::steps() - start_steps;
    }
    return won;
  }

  // Aggregates the striped per-process slabs (see LockTable::stats()).
  LockStats stats() const {
    LockStats s;
    const int n = registered_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const auto& h = handles_[static_cast<std::size_t>(i)];
      if (h != nullptr) h->stats().accumulate_into(s);
    }
    return s;
  }

  std::uint64_t tbd_eliminations() const {
    std::uint64_t total = 0;
    const int n = registered_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const auto& h = handles_[static_cast<std::size_t>(i)];
      if (h != nullptr) {
        total += h->stats().tbd_eliminations.load(std::memory_order_relaxed);
      }
    }
    return total;
  }

 private:
  // The shared engine supplies decide/eliminate/celebrateIfWon (the
  // snapshot-driven competition loop below stays local: it is the §6.2
  // variant's difference from Algorithm 3, not a storage concern).
  struct AdaptiveCtx {
    AdaptiveLockSpace& s;
    Handle& h;
    using Desc = AdaptiveLockSpace::Desc;
    StatsSlab& stats() { return h.stats(); }
    void run_thunk(Desc& p, IdemCtx<Plat>& m) { p.thunk(m); }
  };
  friend struct AdaptiveCtx;
  using Engine = AttemptEngine<Plat, AdaptiveCtx>;

  Handle& handle(Process proc) {
    WFL_CHECK(proc.ebr_pid >= 0 &&
              proc.ebr_pid < static_cast<int>(handles_.size()) &&
              handles_[static_cast<std::size_t>(proc.ebr_pid)] != nullptr);
    return *handles_[static_cast<std::size_t>(proc.ebr_pid)];
  }

  // The competition, against the subject's frozen snapshots. Callable for
  // self (after priority-reveal) or as help for a revealed descriptor.
  void run(AdaptiveCtx& cx, Desc& p) {
    for (std::uint32_t i = 0; i < p.lock_count; ++i) {
      if (p.status.load() != kStatusActive) continue;
      const MemberList<Desc*>& snap = p.snaps[i];
      for (std::uint32_t k = 0; k < snap.count; ++k) {
        Desc* q = snap.items[k];
        if (q->status.load() == kStatusActive && q != &p) {
          const std::int64_t pp = p.priority.load();
          std::int64_t qp = q->priority.load();
          if (qp == kPriorityTbd) {
            qp = q->priority.load();  // defer once: it may just have landed
          }
          if (qp == kPriorityTbd) {
            // Seer-eliminates (see header comment): q is visible to us but
            // priorityless; exactly one of {p,q} sees the other, so one of
            // the pair must act or both could win. Priorities of neither
            // are involved — no bias, only a measured success-rate cost.
            cx.stats().add_tbd_elimination();
            Engine::eliminate(cx, *q);
          } else if (pp > qp) {
            Engine::eliminate(cx, *q);
          } else {
            Engine::eliminate(cx, p);
          }
        }
        Engine::celebrate_if_won(cx, *q);
      }
    }
    Engine::decide(p);
    Engine::celebrate_if_won(cx, p);
  }

  void pad_to_power_of_two(std::uint64_t base) {
    const std::uint64_t w = Plat::steps() - base;
    std::uint64_t target = 1;
    while (target < w) target <<= 1;
    while (Plat::steps() - base < target) Plat::step();
  }

  // Caches are declared before ebr_ (destroyed after it): EBR teardown
  // pushes retired slots through them. mem_ references snap_caches_.
  int max_procs_;
  IndexPool<SetSnap<Desc*>> snap_pool_;
  IndexPool<Desc> desc_pool_;
  std::vector<CachePadded<SlotCache<Desc>>> desc_caches_;
  std::vector<CachePadded<SlotCache<SetSnap<Desc*>>>> snap_caches_;
  EbrDomain ebr_;
  SetMem<Desc*> mem_;
  std::vector<std::unique_ptr<Set>> locks_;

  std::atomic<std::uint64_t> serial_hwm_{1};
  std::uint32_t serial_block_;
  std::mutex reg_mutex_;
  std::vector<std::unique_ptr<Handle>> handles_;
  std::vector<int> free_pids_;  // released slots awaiting reuse (reg_mutex_)
  std::atomic<int> registered_{0};
};

// RAII session over the adaptive space (see core/session.hpp); works with
// executor.hpp's submit() exactly like Session<Plat> does.
template <typename Plat>
using AdaptiveSession = BasicSession<AdaptiveLockSpace<Plat>>;

}  // namespace wfl
