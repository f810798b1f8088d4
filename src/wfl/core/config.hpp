// Configuration for the wait-free lock algorithm.
#pragma once

#include <cstdint>

#include "wfl/util/assert.hpp"

namespace wfl {

// The fixed delays are what make the reveal time of an attempt a pure
// function of its start time (Observation 6.7) — the linchpin of the
// fairness proof. kTheory is the paper's Algorithm 3. kOff removes the
// delays (and with them the fairness bound, NOT safety); it is the
// "flock-style" practical mode used by the throughput benchmark and the
// delay-ablation experiment.
//
// kUnknownBounds is §6.2 (Theorem 6.10): the same attempt without knowing
// κ, L or T — sets sized by max_procs (the paper's P), guess-and-double
// padding in place of the fixed delays (log(κLT) possible reveal times:
// the theorem's fairness loss), a TBD participation-reveal, and frozen
// per-lock snapshots as the competitors, so the threatener set is fixed
// before the priority exists. A member still TBD when examined is
// eliminated by its observer (seer-eliminates); core/lock_table.hpp has
// the design and the safety argument. Only max_locks (the submit-side L
// budget) is read; κ, T, c0 and c1 are ignored.
enum class DelayMode { kTheory, kOff, kUnknownBounds };

struct LockConfig {
  // κ: promised upper bound on the point contention of any single lock
  // (live attempts whose lock set contains the lock). Sizes the
  // announcement arrays and the delays.
  std::uint32_t kappa = 4;
  // L: promised upper bound on locks per tryLock attempt.
  std::uint32_t max_locks = 2;
  // T: promised upper bound on instrumented steps per thunk.
  std::uint32_t max_thunk_steps = 4;

  // Delay constants: T0 = c0·κ²L²·T steps from attempt start to the reveal
  // step, T1 = c1·κLT steps from the reveal step to attempt end (§6
  // "Delays"). Any sufficiently large constant works; defaults are
  // validated empirically by exp_step_bound (overruns must be zero).
  double c0 = 24.0;
  double c1 = 24.0;

  DelayMode delay_mode = DelayMode::kTheory;

  // Ablation switch for experiment E10: disables the pre-insert helping
  // phase (tryLocks lines 17–20). Fairness-breaking; safety preserved.
  bool help_phase = true;

  // Practical-mode (DelayMode::kOff) contended-path optimizations
  // (DESIGN.md §5), always on under kOff and always off otherwise, so
  // the reveal-timing argument (Observation 6.7) and the helping
  // discipline (Lemma 6.4) stay exactly the paper's:
  //
  //   * the thin-word fast path — uncontended single-lock attempts publish
  //     through a per-lock thin word instead of allocating a descriptor and
  //     climbing the active set; contenders revoke the word and compete
  //     against the owner's embedded descriptor (safety argument in
  //     DESIGN.md §5.1). Multi-lock attempts take the descriptor path.
  //   * cooperative helping — the pre-insert help phase lets one helper at
  //     a time drive a stalled attempt through a revocable per-descriptor
  //     claim; the rest settle for celebrate-if-won and move on
  //     (starvation-freedom argument in DESIGN.md §5.2).

  // How many foreign observations a help claim survives before the next
  // observer revokes it and drives the attempt itself (DESIGN.md §5.2).
  // Bounds the celebrate-only delay any single stalled claimer can impose;
  // wait-freedom holds for every value >= 1 (the revoke path degenerates
  // to everyone-drives). Small values trade redundant drives for shorter
  // stalls — the schedule fuzzer runs one to keep the expiry/revoke branch
  // under coverage pressure.
  std::uint32_t claim_patience = 16;

  std::uint64_t t0_steps() const {
    const double k = kappa, l = max_locks, t = max_thunk_steps;
    return static_cast<std::uint64_t>(c0 * k * k * l * l * t);
  }
  std::uint64_t t1_steps() const {
    const double k = kappa, l = max_locks, t = max_thunk_steps;
    return static_cast<std::uint64_t>(c1 * k * l * t);
  }

  void validate() const {
    WFL_CHECK(kappa >= 1);
    WFL_CHECK(max_locks >= 1);
    WFL_CHECK(max_thunk_steps >= 1);
    WFL_CHECK(c0 > 0 && c1 > 0);
    WFL_CHECK(claim_patience >= 1);
  }
};

// Counters exported by a lock space; raw atomics, not part of the step
// model. Cheap enough to keep always-on.
struct LockStats {
  std::uint64_t attempts = 0;
  std::uint64_t wins = 0;
  std::uint64_t helps = 0;          // run(p') calls on others' descriptors
  std::uint64_t eliminations = 0;   // successful status CASes to lost
  std::uint64_t thunk_runs = 0;     // celebrateIfWon executions that ran code
  std::uint64_t t0_overruns = 0;    // pre-reveal work exceeded T0 (must be 0)
  std::uint64_t t1_overruns = 0;    // post-reveal work exceeded T1 (must be 0)
  std::uint64_t log_slot_resets = 0;  // thunk-log slots re-inited by reinit
                                      // (lazy reset: O(ops used) per attempt)
  // Contended-path optimizations (DESIGN.md §5; all 0 outside kOff):
  std::uint64_t fastpath_hits = 0;         // attempts decided via thin word
  std::uint64_t fastpath_revocations = 0;  // thin words observed by rivals
  std::uint64_t help_claim_skips = 0;      // help-phase drives ceded to the
                                           // current claim holder
  // kUnknownBounds only: TBD snapshot members eliminated by the
  // seer-eliminates rule (DESIGN.md substitution #4).
  std::uint64_t tbd_eliminations = 0;
};

}  // namespace wfl
