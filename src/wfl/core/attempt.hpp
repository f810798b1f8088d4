// The attempt engine: Algorithm 3's tryLock, and nothing else.
//
// This header owns the per-attempt procedures — tryLock's descriptor path
// (attempt: help phase, multiInsert, reveal, run, multiRemove; lines
// 17-24), run / decide / eliminate / celebrateIfWon (lines 26-37) and the
// fixed delay (lines 10-11, 24) — parameterized over a *context* that
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
//                                            // frozen snapshot (p itself
//                                            // left out, unloaded)
//   GuardT guard();                          // RAII: the table's EBR guard
//                                            // (re-entrant)
//   Desc* thin_rival(std::uint32_t id);      // the lock's thin-word
//                                            // publication (nullptr when
//                                            // free/own/absent); performs
//                                            // the observe protocol
//   void run_thunk(Desc& p, IdemCtx<Plat>&); // call p's thunk (only
//                                            // while p's log is not done)
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
// A delay or padding is own steps that touch no shared memory, taken with
// Plat::idle_steps(n), never as n single steps: the simulator grants an
// idle span the same slots but resumes the process only for the first, and
// draws the slots of stretches in which every process idles as one batch
// (sim/sim.hpp); on RealPlat it is n counter increments.
// idle_steps must run on the simulator process's own fiber, which every
// caller does (async submission runs its attempts from whatever drives
// run_ready(), but it is kOff-only and never delays).
//
// The hooks run inside the attempt's guard, and a hook that idles (a T0/T1
// delay, §6.2 padding) must exit it for the idle span — the table's
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
// delay steps — they are the quantities the T0/T1 budgets must dominate
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
  //
  // No step re-reads a word whose value the attempt already holds: the
  // getSet skips p itself without loading its flag, a duel with p itself
  // is no duel, a status once seen decided stays decided (transitions only
  // leave active), and decide's value-reporting CAS gives p's final status,
  // from which run() celebrates p and which it returns: true iff p won.
  static bool run(Ctx& cx, Desc& p) {
    auto guard = cx.guard();
    // Reads line group A (lock_ids/lock_count) — must be ordered after the
    // owner's publication writes.
    WFL_PLAIN_READ(&p, kDescPlain);
    std::uint32_t status = kStatusActive;
    for (std::uint32_t i = 0; i < p.lock_count; ++i) {
      const MemberList<Desc*>& members = cx.competitors(p, i);
      status = p.status.load();
      // Decided by a rival or a helper: whoever decided p won celebrated
      // p's rivals first, and a lost p runs nothing.
      if (status != kStatusActive) break;
      for (Desc* q : members) duel(cx, p, *q);
      if (Desc* r = cx.thin_rival(p.lock_ids[i])) duel(cx, p, *r);
    }
    if (status == kStatusActive) status = decide(p);
    if (status != kStatusWon) return false;
    celebrate(cx, p);
    return true;
  }

  // One pairwise competition step between `p` and an observed rival `q`
  // (set member or thin-word publication), which ends with q celebrated if
  // q won; a duel of p with itself does nothing (run() decides and
  // celebrates p at its end).
  //
  // A TBD rival exists only under DelayMode::kUnknownBounds (known-bounds
  // priorities are pending or positive, so the branch is dead there and
  // costs no step): q participated but its priority has not landed. Re-read
  // once — it may just have — and if it is still TBD, eliminate q
  // (seer-eliminates; the safety argument is in core/lock_table.hpp).
  //
  // q's status is loaded once. Decided, it is final; eliminating q reports
  // it through the CAS. Only when p is the one eliminated is q's status
  // still unknown, and only then is it loaded again.
  static void duel(Ctx& cx, Desc& p, Desc& q) {
    if (&q == &p) return;
    std::uint32_t qs = q.status.load();
    if (qs == kStatusActive) {
      const std::int64_t pp = p.priority.load();
      std::int64_t qp = q.priority.load();
      if (qp == kPriorityTbd) qp = q.priority.load();
      if (qp == kPriorityTbd) {
        cx.stats().add_tbd_elimination();
        qs = eliminate(cx, q);
      } else if (pp > qp) {
        qs = eliminate(cx, q);
      } else {
        eliminate(cx, p);  // covers qp > pp and the tie (self loses)
        qs = q.status.load();
      }
    }
    if (qs == kStatusWon) celebrate(cx, q);
  }

  // Help-phase drive of a revealed competitor (tryLocks lines 17-20).
  //
  // With cooperative helping off (kTheory, and the shm table) this is
  // exactly run(): every observer drives every stalled attempt, which is
  // what the fairness lemma's proof assumes. With it on, a per-descriptor
  // claim word lets ONE helper at a time do the full drive while everyone
  // else moves on — eliminating the herd of redundant status/priority
  // CASes on the helper-shared line. A rival that is already decided is
  // skipped outright, and so is a claimed one: the helper's own run()
  // celebrates every flagged won rival before it decides, and a winner
  // clears its flag only after a run of its thunk completed, so no
  // unfinished thunk is missed (DESIGN.md §5.2). The claim is advisory and
  // revocable: after cfg.claim_patience observers found the same claim in
  // place, the next observer drives regardless, so a crashed or preempted
  // claimer delays any attempt by a bounded number of observations and
  // wait-freedom is untouched (worst case degenerates to everyone-drives).

  static void help(Ctx& cx, Desc& q) {
    if (!cx.cooperative()) {
      run(cx, q);
      return;
    }
    if (q.status.load() != kStatusActive) return;
    const std::uint64_t mine = static_cast<std::uint64_t>(cx.pid()) + 1;
    const std::uint64_t claim = q.help_claim.load(
        std::memory_order_relaxed, race::Site::kHelpClaimLoad);
    if (claim != 0 && claim != mine) {
      const std::uint32_t skips = q.claim_skips.fetch_add(
          1, std::memory_order_relaxed, race::Site::kClaimSkipsBump);
      if (skips < cx.claim_patience()) {
        cx.stats().add_help_claim_skip();
        return;
      }
      WFL_FUZZ_SITE(kSiteClaimExpiry);
    }
    // Unclaimed, or the claim went stale: take (or revoke) it and drive.
    // Plain store, not CAS — the claim is advisory, so the last writer
    // winning is fine; correctness never depends on who holds it.
    q.help_claim.store(mine, std::memory_order_relaxed,
                       race::Site::kHelpClaimStore);
    q.claim_skips.store(0, std::memory_order_relaxed,
                        race::Site::kClaimSkipsReset);
    run(cx, q);
    std::uint64_t expect = mine;  // release unless someone revoked us
    q.help_claim.compare_exchange_strong(expect, 0, std::memory_order_relaxed,
                                         race::Site::kHelpClaimRelease);
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
  // T0/T1 delay or §6.2 padding idles, so only the two *work* segments
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
    const bool won = run(cx, d);
    d.clear_flag();
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      cx.remove(d.lock_ids[i], d.slot_of_lock[i]);
    }
    const std::uint64_t post_reveal_work = Plat::steps() - reveal_steps;
    cx.after_release(d, reveal_steps);

    if (won) cx.stats().add_win();
    if (info != nullptr) {
      info->won = won;
      info->pre_reveal_work = pre_reveal_work;
      info->post_reveal_work = post_reveal_work;
      info->total_steps = Plat::steps() - start_steps;
    }
    return won;
  }

  // p's final status: won if this CAS decided it, else the decided status
  // the CAS found.
  static std::uint32_t decide(Desc& p) {
    const std::uint32_t found = p.status.cas_value(kStatusActive, kStatusWon);
    return found == kStatusActive ? kStatusWon : found;
  }

  // Eliminates p if it is still active; returns p's final status (lost, or
  // won when the CAS found p already decided that way).
  static std::uint32_t eliminate(Ctx& cx, Desc& p) {
    const std::uint32_t found =
        p.status.cas_value(kStatusActive, kStatusLost);
    if (found != kStatusActive) return found;
    cx.stats().add_elimination();
    return kStatusLost;
  }

  // Runs the thunk of a p known to have won, unless a run of it has
  // completed already. The done word is set only after a run installed
  // every effect, and its seq_cst load orders the skipper after them
  // (DESIGN.md §3.6).
  static void celebrate(Ctx& cx, Desc& p) {
    if (p.log.done()) return;
    // Replays the thunk and reads tag_base — line group A again.
    WFL_PLAIN_READ(&p, kDescPlain);
    cx.stats().add_thunk_run();
    IdemCtx<Plat> m(p.log, p.tag_base);
    if (p.thunk) {
      // Seeded fault: "done" before the run's logged ops have landed.
      if (fuzz::fault_on(fuzz::Fault::kEarlyDone)) {
        p.log.mark_done(kMaxThunkOps);
      }
      cx.run_thunk(p, m);
    }
    // Completed run: the done word also carries the exact slot high-water
    // mark, so the post-grace reinit resets only the slots consumed.
    p.log.mark_done(m.ops_used());
  }

  // Idles own steps until exactly `base + delta` steps have been taken.
  // Starting beyond the target is an overrun: the constants were too small
  // for the workload — counted (through the caller's striped slab, via
  // `on_overrun`), surfaced by exp_step_bound, asserted zero in tests with
  // default constants. The caller has exited its attempt guard.
  template <typename OnOverrun>
  static void delay_until(std::uint64_t base, std::uint64_t delta,
                          OnOverrun&& on_overrun) {
    const std::uint64_t target = base + delta;
    const std::uint64_t now = Plat::steps();
    if (now > target) {
      on_overrun();
      return;
    }
    Plat::idle_steps(target - now);
  }
};

}  // namespace wfl
