// The idempotence construction of Theorem 4.2.
//
// A thunk (critical section) may be executed concurrently by its owner and
// by any number of helpers; idempotence (Definition 4.1) demands the
// combined runs look like a single run. The construction: every run replays
// the thunk from the top, but each shared-memory operation, in program
// order, first *agrees* with all other runs on its result through a shared
// per-thunk log.
//
//   * agree(i, v): one load of slot i; if it is still EMPTY, one
//     value-reporting CAS from EMPTY to v — the first run to arrive wins,
//     everyone adopts the winner's value: a decided slot's load, or the
//     word a failed CAS found (a slot is written once, so that word is the
//     winner's). One step on a decided slot, two on an empty one: constant
//     overhead per operation, as the theorem requires.
//   * proposals are lazy: an operation whose proposal is the cell's word
//     reads the cell only when its slot is still empty, so a replay of a
//     decided operation reads the slot alone (DESIGN.md §3.7).
//   * load:   agree on the cell's observed word.
//   * store:  agree on the observed old word, then one single-shot physical
//     CAS(old -> (value, fresh unique tag)). Tags make installed words
//     unique, so at most one run's CAS takes effect; stragglers' CASes find
//     a different word and fail with no effect.
//   * cas:    agree on the observed word; if its value mismatches, the
//     logical CAS failed identically in every run. Otherwise one physical
//     CAS to a tagged word, then agree on the *outcome*. A straggler whose
//     physical CAS failed looks at the word that CAS found: if it is the
//     desired word the logical CAS clearly succeeded; if it is anything
//     newer, the winning run must already have recorded the outcome (later
//     operations only run after the outcome slot is filled), so the
//     straggler's (possibly wrong) vote loses the agreement. This ordering
//     argument is why the outcome agreement must sit *between* the physical
//     CAS and any later operation.
//   * once:   agree on a local nondeterministic value (randomness, time),
//     making replays deterministic.
//
// Because agreed values are identical across runs, every run takes the same
// branch at every step, so log-slot consumption is deterministic — the log
// needs no per-run indexing.
//
// Exactness assumes cells are mutated only through this construction (all
// writers install unique words). That holds for cells guarded by the locks
// — the regime the paper's locks guarantee — and extends to racy
// "group-locking" uses as long as *all* writers are instrumented
// (store_racy provides the bounded-retry variant for that case).
#pragma once

#include <algorithm>
#include <cstdint>

#include "wfl/idem/cell.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// Capacity contract: a thunk may perform at most kMaxThunkOps instrumented
// operations; each consumes at most 2 log slots.
inline constexpr std::uint32_t kMaxThunkOps = 64;
inline constexpr std::uint32_t kThunkLogCap = 2 * kMaxThunkOps;

// --- Idempotence tags ------------------------------------------------------
//
// Every instrumented write installs a (value, tag) word whose tag must be
// unique among all *concurrently live* thunk instances (cell.hpp). Tags are
// derived from the descriptor serial; the naive map
//     tag = uint32(serial) * kMaxThunkOps + op + 1
// had two defects: it recycles tags every 2^26 serials with an unmarked
// wrap, and — worse — near a wrap it can emit tag 0 == kCellInitTag (e.g.
// serial = k*2^26 - 1, op = 63), colliding with the initial word of every
// fresh cell. The map below reduces the flattened operation index
// serial*kMaxThunkOps + op modulo M = 2^32 - 1 and adds 1:
//
//   * the emitted tag lies in [1, 2^32 - 1] — NEVER kCellInitTag, for any
//     serial;
//   * because M is odd (gcd(kMaxThunkOps, M) = 1), the map is injective on
//     any window of M consecutive flattened indices: two live thunks can
//     collide only if their serials are ~2^26 apart AND a helper of the
//     older one is stalled inside an EBR guard across that entire span
//     while holding the exact colliding word — the bounded-assumption
//     regime the paper itself accepts for priorities (footnote 3), now
//     documented in DESIGN.md "Hot-path memory discipline".
//
// The reduction is done on the full 64-bit serial ((serial mod M) * 64 fits
// in 2^38, so the arithmetic never overflows), so no silent truncation
// happens anywhere on the way to the 32-bit tag word.
inline constexpr std::uint64_t kIdemTagModulus = 0xFFFFFFFFull;  // 2^32 - 1

constexpr std::uint32_t idem_tag_base(std::uint64_t serial) {
  return static_cast<std::uint32_t>(((serial % kIdemTagModulus) *
                                     kMaxThunkOps) % kIdemTagModulus);
}

constexpr std::uint32_t idem_tag(std::uint32_t tag_base, std::uint32_t op) {
  return static_cast<std::uint32_t>(
             (static_cast<std::uint64_t>(tag_base) + op) % kIdemTagModulus) +
         1;
}

// Outcome words for CAS agreement; distinct from kCellEmptySlot.
inline constexpr std::uint64_t kOutcomeFalse = 0;
inline constexpr std::uint64_t kOutcomeTrue = 1;

template <typename Plat>
class ThunkLog {
 public:
  ThunkLog() {
    for (auto& s : slots_) s.init(kCellEmptySlot);
  }

  ThunkLog(const ThunkLog&) = delete;
  ThunkLog& operator=(const ThunkLog&) = delete;

  // The done word (DESIGN.md §3.6): 0 until some run of the thunk
  // completes, then that run's op count + 1 (IdemCtx::ops_used() at
  // return). One stepped seq_cst store, made after every effect of the run
  // is installed; a run that loads a nonzero word is ordered after those
  // effects and need not replay. Slot consumption is deterministic across
  // runs (agreement forces identical branches), so every completed run
  // stores the same value, and the word doubles as the high-water mark of
  // the lazy reset below.
  bool done() const { return done_.load() != 0; }
  void mark_done(std::uint32_t ops) { done_.store(ops + 1); }

  // Quiescent-only full reset: for logs whose runs are never marked done
  // (Turek descriptors, ExclusiveIdem).
  void reset() {
    for (auto& s : slots_) s.init(kCellEmptySlot);
    done_.init(0);
  }

  // Quiescent-only LAZY reset: called when the owning descriptor is
  // (re)initialized, after reclamation guarantees no helper can still touch
  // it (by then some completed run has marked the log done — a thunk only
  // ever runs when its descriptor won, and the winner always sees a run to
  // completion before retiring the descriptor; a descriptor that lost
  // never ran its thunk and consumed no slots). Reads the done word
  // without a step, clears it, and re-inits only the slots actually
  // consumed — O(ops used), not O(kThunkLogCap) — returning that count
  // (surfaced through the lock-space stats).
  std::uint32_t reset_used() {
    const std::uint32_t word = done_.peek();
    done_.init(0);
    return reset_prefix(word == 0 ? 0 : word - 1);
  }

  // Quiescent-only: re-inits the slots of the first `ops` operations. The
  // lazy reset of a private log whose one run's op count the caller holds.
  std::uint32_t reset_prefix(std::uint32_t ops) {
    const std::uint32_t n = std::min(2 * ops, kThunkLogCap);
    for (std::uint32_t i = 0; i < n; ++i) slots_[i].init(kCellEmptySlot);
    return n;
  }

  // Agreement on slot i: first arrival installs, everyone reads the winner.
  std::uint64_t agree(std::uint32_t i, std::uint64_t v) {
    return agree_lazy(i, [v] { return v; });
  }

  // The same agreement with the proposal made by `propose()` — only when
  // slot i is still empty. A decided slot costs its one load (the common
  // case when helping a finished run); an empty one adds one CAS, whose
  // failure reports the winner's word.
  template <typename Propose>
  std::uint64_t agree_lazy(std::uint32_t i, Propose&& propose) {
    WFL_CHECK_MSG(i < kThunkLogCap, "thunk exceeded its operation budget");
    typename Plat::template Atomic<std::uint64_t>& slot = slots_[i];
    const std::uint64_t cur = slot.load();
    if (cur != kCellEmptySlot) return cur;
    const std::uint64_t v = propose();
    WFL_DASSERT(v != kCellEmptySlot);
    const std::uint64_t found = slot.cas_value(kCellEmptySlot, v);
    return found == kCellEmptySlot ? v : found;
  }

 private:
  typename Plat::template Atomic<std::uint64_t> slots_[kThunkLogCap];
  typename Plat::template Atomic<std::uint32_t> done_;  // see done()
};

// Per-run cursor over a shared ThunkLog. Each run of the thunk constructs
// its own IdemCtx (positions are per-run; agreement makes them line up).
template <typename Plat>
class IdemCtx {
 public:
  // `tag_base` must be identical for all runs of the same thunk instance
  // and unique across thunk instances within the idem_tag window — always
  // produce it with idem_tag_base(serial) (the lock descriptors do), never
  // by multiplying the serial directly: the raw product truncates mod 2^32
  // and can collide with kCellInitTag near wraps (see the tag contract
  // above).
  IdemCtx(ThunkLog<Plat>& log, std::uint32_t tag_base)
      : log_(&log), tag_base_(tag_base) {}

  std::uint32_t load(Cell<Plat>& c) {
    return cell_value(observe(c, consume_op()));
  }

  void store(Cell<Plat>& c, std::uint32_t v) {
    const std::uint32_t op = consume_op();
    const std::uint64_t old = observe(c, op);
    const std::uint64_t desired = cell_pack(v, tag_for(op));
    WFL_DASSERT(old != desired);
    c.raw_cas(old, desired);  // single shot; failure means already done
  }

  bool cas(Cell<Plat>& c, std::uint32_t expected, std::uint32_t desired_v) {
    const std::uint32_t op = consume_op();
    const std::uint64_t cur = observe(c, op);
    if (cell_value(cur) != expected) {
      return false;  // same agreed word in every run => same branch
    }
    const std::uint64_t desired = cell_pack(desired_v, tag_for(op));
    // Our CAS installed the word (found == cur), or another run of this
    // very op did (found == desired).
    const std::uint64_t found = c.raw_cas_value(cur, desired);
    const std::uint64_t vote =
        found == cur || found == desired ? kOutcomeTrue : kOutcomeFalse;
    const std::uint64_t outcome = log_->agree(slot_for(op, 1), vote);
    return outcome == kOutcomeTrue;
  }

  // Agree on a run-local nondeterministic value (e.g. a random draw). The
  // value must not equal kCellEmptySlot.
  std::uint64_t once(std::uint64_t v) { return agree(v); }

  // Bounded-retry store for racy (group-locking) cells where concurrent
  // instrumented writers outside this thunk are allowed. Returns false if
  // the write could not be applied within max_rounds (callers choose
  // max_rounds >= the interference bound, e.g. the point contention).
  bool store_racy(Cell<Plat>& c, std::uint32_t v, int max_rounds) {
    for (int r = 0; r < max_rounds; ++r) {
      const std::uint32_t op = consume_op();
      const std::uint64_t old = observe(c, op);
      const std::uint64_t desired = cell_pack(v, tag_for(op));
      if (old == desired) return true;  // an earlier round already landed
      const std::uint64_t found = c.raw_cas_value(old, desired);
      const std::uint64_t vote =
          found == old || found == desired ? kOutcomeTrue : kOutcomeFalse;
      if (log_->agree(slot_for(op, 1), vote) == kOutcomeTrue) return true;
    }
    return false;
  }

  std::uint32_t ops_used() const { return pos_; }

 private:
  std::uint32_t consume_op() {
    WFL_CHECK_MSG(pos_ < kMaxThunkOps,
                  "thunk exceeded kMaxThunkOps instrumented operations");
    return pos_++;
  }

  static std::uint32_t slot_for(std::uint32_t op, std::uint32_t which) {
    return 2 * op + which;
  }

  std::uint32_t tag_for(std::uint32_t op) const {
    // Never emits the initial tag 0 for ANY serial, wrap included, and
    // stays injective within a 2^32-1 window of flattened operation
    // indices — see the idem_tag contract above.
    return idem_tag(tag_base_, op);
  }

  std::uint64_t agree(std::uint64_t v) {
    const std::uint32_t op = consume_op();
    return log_->agree(slot_for(op, 0), v);
  }

  // Agreement on the word of `c` that op `op` observed. The cell is read
  // only while the op's slot is empty: a run that finds it empty has made
  // its own attempt at op - 1's effect, and no run applies op's effect
  // before the slot is agreed, so the word read then is as good a
  // proposal as one read earlier (DESIGN.md §3.7).
  std::uint64_t observe(Cell<Plat>& c, std::uint32_t op) {
    return log_->agree_lazy(slot_for(op, 0), [&c] { return c.raw_load(); });
  }

  ThunkLog<Plat>* log_;
  std::uint32_t pos_ = 0;
  std::uint32_t tag_base_;
};

}  // namespace wfl
