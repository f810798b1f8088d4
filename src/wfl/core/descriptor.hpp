// The tryLock attempt descriptor (Algorithm 3, struct Descriptor).
//
// A descriptor is the unit that lives in the active sets: it names the lock
// set, carries the thunk and its idempotence log, and holds the two pieces
// of shared state the competition is decided on:
//   * priority — doubles as the multi-active-set flag: -1 means unflagged
//     (pending), kPriorityTbd is DelayMode::kUnknownBounds' participation-
//     reveal sentinel, positive values are revealed priorities;
//   * status — {active, won, lost}; transitions only by CAS, only away from
//     active, so a descriptor's fate is decided exactly once (the property
//     Lemma 6.3 leans on).
//
// Descriptors are pool-allocated and recycled only after an EBR grace
// period, so any helper that found one through a set snapshot can safely
// read it for the duration of its guard.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "wfl/active/multi_set.hpp"
#include "wfl/check/race.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/fixed_function.hpp"

namespace wfl {

inline constexpr std::uint32_t kMaxLocksPerAttempt = 8;

inline constexpr std::int64_t kPriorityPending = -1;
inline constexpr std::int64_t kPriorityTbd = -2;  // kUnknownBounds only

enum : std::uint32_t {
  kStatusActive = 0,
  kStatusWon = 1,
  kStatusLost = 2,
};

// Field layout is cache-line segregated (DESIGN.md "Hot-path memory
// discipline"): helpers decide the competition by CAS-hammering `priority`
// and `status`, and that invalidation storm must not evict the owner's
// publication-time and bookkeeping fields (lock_ids, slot_of_lock, thunk)
// from the owner's cache. The thunk log gets its own line start too — it
// is CAS'd only during replays, on a different schedule than the status
// words. The struct itself is line-aligned so pool-array neighbours never
// share the boundary lines.
// ThunkT defaults to the in-process closure type. The shared-memory table
// (core/shm_table.hpp) instantiates Descriptor with a POD thunk *program*
// instead: a FixedFunction captures pointers, which are meaningless in
// another address space, so the cross-process thunk must be interpretable
// data (opcode + cell offsets). Any ThunkT needs reset() and operator
// bool; the table's engine context calls it (AttemptCtx::run_thunk).
template <typename Plat,
          typename ThunkT = FixedFunction<void(IdemCtx<Plat>&), 64>>
struct alignas(kCacheLine) Descriptor {
  using Thunk = ThunkT;

  Descriptor() = default;

  Descriptor(const Descriptor&) = delete;
  Descriptor& operator=(const Descriptor&) = delete;

  // --- line group A: written by the owner before publication, read-only
  // afterwards ---
  std::uint32_t lock_ids[kMaxLocksPerAttempt] = {};
  std::uint32_t lock_count = 0;
  Thunk thunk;
  std::uint32_t tag_base = 0;  // idem_tag_base(serial); see IdemCtx contract
  std::uint64_t serial = 0;

  // DelayMode::kUnknownBounds only: each lock's frozen competitor snapshot
  // (§6.2). Null until the pool slot first serves such an attempt, then
  // owned by the slot, so it is reclaimed exactly like the descriptor. The
  // owner fills it between the participation reveal (TBD) and the priority
  // reveal, whose seq_cst store publishes it to every competitor.
  using FrozenSnaps = std::array<MemberList<Descriptor*>, kMaxLocksPerAttempt>;
  std::unique_ptr<FrozenSnaps> snaps;

  // --- owner-private bookkeeping (never read by helpers) ---
  int slot_of_lock[kMaxLocksPerAttempt] = {};

  // --- line group B: shared competition state, helper-CAS'd ---
  alignas(kCacheLine) typename Plat::template Atomic<std::int64_t> priority;
  typename Plat::template Atomic<std::uint32_t> status;

  // Cooperative-helping claim (DESIGN.md §5.2): while help_claim holds a
  // helper's pid+1, other helpers skip the full run() drive of this
  // descriptor (they still celebrate a win) — until claim_skips exceeds the
  // engine's patience, at which point the claim is revoked and the next
  // observer drives anyway, so a crashed claimer delays an attempt by a
  // bounded number of observations. Raw atomics: advisory scheduling state
  // outside the step model, same stance as reclamation (substitution #2).
  // Lives on the helper-hammered line — it is written on exactly the
  // schedule that line already absorbs.
  race::Atomic<std::uint64_t> help_claim{0};
  race::Atomic<std::uint32_t> claim_skips{0};

  // --- line group C: the thunk log, CAS'd during replays ---
  alignas(kCacheLine) ThunkLog<Plat> log;

  // Multi-active-set flag interface (Algorithm 3 lines 7-13; the delay that
  // precedes the reveal lives in LockTable, which owns the step counting).
  // Participation is what flags: a TBD descriptor is visible to getSet.
  // Under known bounds a priority is only ever pending or positive, so this
  // is the paper's `priority > 0`.
  bool flag() { return priority.load() != kPriorityPending; }
  void clear_flag() { priority.store(kPriorityPending); }

  // Quiescent reset on (re)allocation from the pool. Returns the number of
  // thunk-log slots re-initialized (the lazy reset's O(ops used) figure,
  // surfaced through the lock-space stats).
  std::uint32_t reinit(std::uint64_t new_serial) {
    // The owner re-claims line group A; any helper of the previous
    // generation must be ordered before this point (the EBR grace period —
    // the analysis layer checks exactly that).
    WFL_PLAIN_WRITE(this, kDescPlain);
    lock_count = 0;
    thunk.reset();
    serial = new_serial;
    tag_base = idem_tag_base(new_serial);
    priority.init(kPriorityPending);
    status.init(kStatusActive);
    help_claim.store(0, std::memory_order_relaxed,
                     race::Site::kHelpClaimStore);
    claim_skips.store(0, std::memory_order_relaxed,
                      race::Site::kClaimSkipsReset);
    return log.reset_used();
  }
};

// Draws a positive 62-bit priority. Uniqueness is probabilistic; ties are
// handled by the both-lose rule (paper footnote 3).
template <typename Plat>
std::int64_t draw_priority() {
  return static_cast<std::int64_t>(Plat::rand_u64() >> 2) + 1;
}

}  // namespace wfl
