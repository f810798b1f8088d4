// The attempt engine: Algorithm 3's tryLock, and nothing else.
//
// This header owns the per-attempt procedures — tryLock's descriptor path
// (attempt: help phase, multiInsert, reveal, run, multiRemove; lines
// 17-24), run / decide / eliminate / celebrateIfWon (lines 26-37) and the
// fixed-delay spin (lines 10-11, 24) — parameterized over a *context* that
// supplies memory and accounting. How locks are stored, how descriptors
// are pooled or addressed and how statistics are aggregated is the
// tables' and ProcessHandle's business (core/lock_table.hpp,
// core/shm_table.hpp, core/process.hpp); that is what lets one body serve
// the in-process and the shared-memory table, and it is what the proofs
// actually constrain.
//
// Context requirements (duck-typed; LockTable::AttemptCtx is the model):
//   using Desc = ...;                        // descriptor (status/priority)
//   SetT& set(std::uint32_t id);             // lock id -> active set
//   int  insert(std::uint32_t id, Desc& d);  // announce d; returns its slot
//   void remove(std::uint32_t id, int slot); // withdraw that slot
//   StatsSlab& stats();                      // striped per-process counters
//   MemberList<Desc*>& help_scratch();       // getSet scratch: help phase
//   bool revealed(Desc& q);                  // help q? (§6.2 skips TBD)
//   const MemberList<Desc*>& competitors(Desc& p, std::uint32_t i);
//                                            // p's rivals on its i-th lock:
//                                            // a live getSet, or §6.2's
//                                            // frozen snapshot
//   GuardT guard();                          // RAII: the table's EBR guard
//                                            // (re-entrant)
//   Desc* thin_rival(std::uint32_t id);      // the lock's thin-word
//                                            // publication (nullptr when
//                                            // free/own/absent); performs
//                                            // the observe protocol
//   void run_thunk(Desc& p, IdemCtx<Plat>&); // call p's thunk
//   int  pid();                              // dense process id
//   bool help_phase();                       // E10's help-phase switch
//   bool cooperative();                      // claim-gated helping on?
//   std::uint32_t claim_patience();          // see LockConfig
//   void before_reveal(Desc&, std::uint64_t start);  // hooks: T0 delay,
//                                            // or §6.2 padding + TBD +
//                                            // snapshots; crash trap
//   void after_reveal();                     // crash trap
//   void after_release(Desc&, std::uint64_t reveal);  // wake events + T1
//                                            // delay or §6.2 padding
//
// The hooks run inside the attempt's guard, and a hook that spins (a T0/T1
// delay, §6.2 padding) must exit it for the spin — the table's
// delay_until/pad_to_power_of_two do, through core/process.hpp's
// GuardRelease.
//
// The stats object is the caller's striped slab, so nothing the engine
// does writes a cacheline shared between processes except the algorithm's
// own status CASes, priority stores and set operations. Under the known-
// bounds modes the hooks add no step: revealed() returns true without a
// load and competitors() is exactly the getSet run() always made.
#pragma once

#include <atomic>
#include <cstdint>

#include "wfl/active/multi_set.hpp"
#include "wfl/check/race.hpp"
#include "wfl/core/config.hpp"
#include "wfl/core/descriptor.hpp"
#include "wfl/fuzz/sites.hpp"
#include "wfl/idem/idem.hpp"

namespace wfl {

// Per-attempt measurements (own steps of the calling process), filled by
// try_locks when requested. pre_reveal_work and post_reveal_work exclude
// delay spinning — they are the quantities the T0/T1 budgets must dominate
// for the fairness argument to hold (Observation 6.7).
struct AttemptInfo {
  bool won = false;
  std::uint64_t pre_reveal_work = 0;   // help + multiInsert steps
  std::uint64_t post_reveal_work = 0;  // run + multiRemove steps
  std::uint64_t total_steps = 0;       // whole attempt, delays included
};

template <typename Plat, typename Ctx>
struct AttemptEngine {
  using Desc = typename Ctx::Desc;

  // The core competition procedure (lines 26-37). `p` may be the caller's
  // own descriptor or one being helped; the code cannot tell and must not.
  // The guard covers the whole table, so a helper reads any descriptor's
  // snapshots and fields under reclamation protection; inside an attempt
  // it is a depth bump.
  //
  // Besides the set members, each lock's *thin word* (DESIGN.md §5.1) is
  // probed for a fast-path publication and dueled exactly like a member:
  // the thin word is a one-element extension of the lock's active set, and
  // the Dekker-style publish/scan ordering (fast publishes the word before
  // reading the set; slow inserts into the set before probing the word,
  // both seq_cst) guarantees two conflicting attempts cannot both miss
  // each other — the same visibility property Lemma 6.3 needs.
  static void run(Ctx& cx, Desc& p) {
    auto guard = cx.guard();
    // Reads line group A (lock_ids/lock_count) — must be ordered after the
    // owner's publication writes.
    WFL_PLAIN_READ(&p, kDescPlain);
    for (std::uint32_t i = 0; i < p.lock_count; ++i) {
      const MemberList<Desc*>& members = cx.competitors(p, i);
      if (p.status.load() != kStatusActive) continue;
      for (Desc* q : members) duel(cx, p, *q);
      if (Desc* r = cx.thin_rival(p.lock_ids[i])) duel(cx, p, *r);
    }
    decide(p);
    celebrate_if_won(cx, p);
  }

  // One pairwise competition step between `p` and an observed rival `q`
  // (set member or thin-word publication).
  //
  // A TBD rival exists only under DelayMode::kUnknownBounds (known-bounds
  // priorities are pending or positive, so the branch is dead there and
  // costs no step): q participated but its priority has not landed. Re-read
  // once — it may just have — and if it is still TBD, eliminate q
  // (seer-eliminates; the safety argument is in core/lock_table.hpp).
  static void duel(Ctx& cx, Desc& p, Desc& q) {
    if (q.status.load() == kStatusActive && &q != &p) {
      const std::int64_t pp = p.priority.load();
      std::int64_t qp = q.priority.load();
      if (qp == kPriorityTbd) qp = q.priority.load();
      if (qp == kPriorityTbd) {
        cx.stats().add_tbd_elimination();
        eliminate(cx, q);
      } else if (pp > qp) {
        eliminate(cx, q);
      } else {
        eliminate(cx, p);  // covers qp > pp and the tie (self loses)
      }
    }
    celebrate_if_won(cx, q);
  }

  // Help-phase drive of a revealed competitor (tryLocks lines 17-20).
  //
  // With cooperative helping off (kTheory, and the shm table) this is
  // exactly run(): every observer drives every stalled attempt, which is
  // what the fairness lemma's proof assumes. With it on, a per-descriptor
  // claim word lets ONE helper at a time do the full drive while everyone
  // else settles for celebrate-if-won — eliminating the herd of redundant
  // status/priority CASes on the helper-shared line. The claim is
  // advisory and revocable: after cfg.claim_patience observers found the
  // same claim in place, the next observer drives regardless, so a crashed
  // or preempted claimer delays any attempt by a bounded number of
  // observations and wait-freedom is untouched (worst case degenerates to
  // today's everyone-drives behavior). See DESIGN.md §5.2.

  static void help(Ctx& cx, Desc& q) {
    if (!cx.cooperative()) {
      run(cx, q);
      return;
    }
    if (q.status.load() != kStatusActive) {
      celebrate_if_won(cx, q);
      return;
    }
    const std::uint64_t mine = static_cast<std::uint64_t>(cx.pid()) + 1;
    const std::uint64_t claim = q.help_claim.load(std::memory_order_relaxed);
    WFL_CHK_ATOMIC(&q.help_claim, kLoad, relaxed, kHelpClaimLoad, claim);
    if (claim != 0 && claim != mine) {
      const std::uint32_t skips =
          q.claim_skips.fetch_add(1, std::memory_order_relaxed);
      WFL_CHK_ATOMIC(&q.claim_skips, kFetchAdd, relaxed, kClaimSkipsBump,
                     skips + 1);
      if (skips < cx.claim_patience()) {
        cx.stats().add_help_claim_skip();
        celebrate_if_won(cx, q);
        return;
      }
      WFL_FUZZ_SITE(kSiteClaimExpiry);
    }
    // Unclaimed, or the claim went stale: take (or revoke) it and drive.
    // Plain store, not CAS — the claim is advisory, so the last writer
    // winning is fine; correctness never depends on who holds it.
    q.help_claim.store(mine, std::memory_order_relaxed);
    WFL_CHK_ATOMIC(&q.help_claim, kStore, relaxed, kHelpClaimStore, mine);
    q.claim_skips.store(0, std::memory_order_relaxed);
    WFL_CHK_ATOMIC(&q.claim_skips, kStore, relaxed, kClaimSkipsReset, 0);
    run(cx, q);
    std::uint64_t expect = mine;  // release unless someone revoked us
    const bool released = q.help_claim.compare_exchange_strong(
        expect, 0, std::memory_order_relaxed);
    if (released) {
      WFL_CHK_ATOMIC(&q.help_claim, kCasOk, relaxed, kHelpClaimRelease, 0);
    } else {
      WFL_CHK_ATOMIC(&q.help_claim, kCasFail, relaxed, kHelpClaimRelease,
                     expect);
    }
  }

  // The descriptor path of tryLock (lines 17-24) for `d`, whose line group
  // A (lock ids, thunk, serial) the caller has allocated and filled.
  // `start_steps` is the caller's step count when the attempt began; the
  // T0/T1 delays or §6.2 padding (the LockTable's before_reveal/
  // after_release hooks) are pinned to it. Returns the outcome; fills
  // `info` when non-null. The caller retires `d`.
  //
  // The attempt enters its EBR guard once, here, and every nested guard
  // (run(), helping) is a depth bump. Under DelayMode::kOff that one guard
  // spans the attempt. Under the paper's delays the hooks exit it while a
  // T0/T1 delay or §6.2 padding spins, so only the two *work* segments
  // (help+insert, and run+remove) are guarded: a process stalled in a
  // delay holds no borrowed references (its own descriptor is not retired
  // until the caller is done with it) and must not stall reclamation.
  static bool attempt(Ctx& cx, Desc& d, std::uint64_t start_steps,
                      AttemptInfo* info) {
    auto guard = cx.guard();
    // --- work segment 1: help phase + multiInsert (lines 17-21) ---
    if (cx.help_phase()) {
      MemberList<Desc*>& members = cx.help_scratch();
      for (std::uint32_t i = 0; i < d.lock_count; ++i) {
        multi_get_set<Plat>(cx.set(d.lock_ids[i]), members);
        for (Desc* q : members) {
          if (!cx.revealed(*q)) continue;
          cx.stats().add_help();
          help(cx, *q);
        }
        // A thin-word publication on this lock is a revealed competitor
        // like any set member: drive it too (fast-path owners are helped,
        // not just dueled).
        if (Desc* r = cx.thin_rival(d.lock_ids[i])) {
          cx.stats().add_help();
          help(cx, *r);
        }
      }
    }
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      d.slot_of_lock[i] = cx.insert(d.lock_ids[i], d);
    }
    const std::uint64_t pre_reveal_work = Plat::steps() - start_steps;

    // --- the reveal step (lines 10-11) ---
    cx.before_reveal(d, start_steps);
    d.priority.store(draw_priority<Plat>());
    const std::uint64_t reveal_steps = Plat::steps();
    cx.after_reveal();

    // --- work segment 2: compete, then multiRemove (lines 22-23) ---
    run(cx, d);
    d.clear_flag();
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      cx.remove(d.lock_ids[i], d.slot_of_lock[i]);
    }
    const std::uint64_t post_reveal_work = Plat::steps() - reveal_steps;
    cx.after_release(d, reveal_steps);

    const bool won = d.status.load() == kStatusWon;
    if (won) cx.stats().add_win();
    if (info != nullptr) {
      info->won = won;
      info->pre_reveal_work = pre_reveal_work;
      info->post_reveal_work = post_reveal_work;
      info->total_steps = Plat::steps() - start_steps;
    }
    return won;
  }

  static void decide(Desc& p) { p.status.cas(kStatusActive, kStatusWon); }

  static void eliminate(Ctx& cx, Desc& p) {
    if (p.status.cas(kStatusActive, kStatusLost)) {
      cx.stats().add_elimination();
    }
  }

  static void celebrate_if_won(Ctx& cx, Desc& p) {
    if (p.status.load() != kStatusWon) return;
    // Replays the thunk and reads tag_base — line group A again.
    WFL_PLAIN_READ(&p, kDescPlain);
    cx.stats().add_thunk_run();
    if (p.thunk) {
      IdemCtx<Plat> m(p.log, p.tag_base);
      cx.run_thunk(p, m);
      // Completed replay: record the exact slot high-water mark so the
      // post-grace reinit resets only the slots consumed (idem.hpp).
      p.log.note_used(m.ops_used());
    }
  }

  // Spins own steps until exactly `base + delta` steps have been taken.
  // Starting beyond the target is an overrun: the constants were too small
  // for the workload — counted (through the caller's striped slab, via
  // `on_overrun`), surfaced by exp_step_bound, asserted zero in tests with
  // default constants. The caller has exited its attempt guard.
  template <typename OnOverrun>
  static void delay_until(std::uint64_t base, std::uint64_t delta,
                          OnOverrun&& on_overrun) {
    const std::uint64_t target = base + delta;
    if (Plat::steps() > target) {
      on_overrun();
      return;
    }
    while (Plat::steps() < target) Plat::step();
  }
};

}  // namespace wfl
