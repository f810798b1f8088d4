// Per-process hot state for the lock table.
//
// Every mutable word a tryLock attempt touches outside the algorithm's own
// shared CASes lives here, on cachelines owned by exactly one process:
//
//   * StatsSlab — the striped statistics counters. The original monolithic
//     lock space kept seven process-shared std::atomic counters that every attempt
//     fetch_add-ed; under contention those seven words were the hottest
//     cachelines in the system and had nothing to do with the algorithm.
//     Each process now bumps its own padded slab and LockTable::stats()
//     aggregates on demand (reads are racy-by-design snapshots, exact once
//     the workload quiesces — which is when the tests read them).
//   * serial block allocator — descriptor serials (which feed the
//     idempotence tag space) come from a per-process block carved off a
//     shared high-water mark once every kSerialBlock attempts, instead of a
//     global fetch_add on every attempt.
//   * scratch MemberLists — getSet results for the help phase and the
//     competition loop; fixed-capacity, reused across attempts.
//   * the EBR guard depth — guard acquisition is re-entrant, so a helper
//     driving another descriptor, a batch or an inspector can nest inside
//     an attempt's guard at the cost of a private increment.
//
// Handles are created by LockTable::register_process (and owned by the
// table, whatever its DelayMode) and by ShmLockTable::open_session (owned
// by the process-local Session, since none of this state crosses address
// spaces); the cheap `Process` value (an index) is what travels through
// application code.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "wfl/active/multi_set.hpp"
#include "wfl/check/race.hpp"
#include "wfl/core/config.hpp"
#include "wfl/fuzz/sites.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// One process's stripe of the lock-space statistics. Single writer (the
// owning process); concurrent readers (stats aggregation) see a relaxed
// snapshot. The unsynchronized load-then-store is deliberate: with one
// writer it is exact, and it keeps the hot path free of lock-prefixed
// read-modify-writes entirely.
struct StatsSlab {
  race::Atomic<std::uint64_t> attempts{0};
  race::Atomic<std::uint64_t> wins{0};
  race::Atomic<std::uint64_t> helps{0};
  race::Atomic<std::uint64_t> eliminations{0};
  race::Atomic<std::uint64_t> thunk_runs{0};
  race::Atomic<std::uint64_t> t0_overruns{0};
  race::Atomic<std::uint64_t> t1_overruns{0};
  // DelayMode::kUnknownBounds only (§6.2 seer-eliminates rule).
  race::Atomic<std::uint64_t> tbd_eliminations{0};
  // Thunk-log slots re-initialized by descriptor reinit (the lazy-reset
  // figure: O(ops used) per attempt instead of O(kThunkLogCap)).
  race::Atomic<std::uint64_t> log_slot_resets{0};
  // Contended-path optimization counters (DESIGN.md §5):
  race::Atomic<std::uint64_t> fastpath_hits{0};
  race::Atomic<std::uint64_t> fastpath_revocations{0};
  race::Atomic<std::uint64_t> help_claim_skips{0};

  static std::uint64_t read(const race::Atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed, race::Site::kStatsBump);
  }
  static void bump(race::Atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.store(read(c) + n, std::memory_order_relaxed, race::Site::kStatsBump);
  }
  void add_attempt() { bump(attempts); }
  void add_win() { bump(wins); }
  void add_help() { bump(helps); }
  void add_elimination() { bump(eliminations); }
  void add_thunk_run() { bump(thunk_runs); }
  void add_t0_overrun() { bump(t0_overruns); }
  void add_t1_overrun() { bump(t1_overruns); }
  void add_tbd_elimination() { bump(tbd_eliminations); }
  void add_log_slot_resets(std::uint64_t n) { bump(log_slot_resets, n); }
  void add_fastpath_hit() { bump(fastpath_hits); }
  void add_fastpath_revocation() { bump(fastpath_revocations); }
  void add_help_claim_skip() { bump(help_claim_skips); }

  void accumulate_into(LockStats& s) const {
    s.attempts += read(attempts);
    s.wins += read(wins);
    s.helps += read(helps);
    s.eliminations += read(eliminations);
    s.thunk_runs += read(thunk_runs);
    s.t0_overruns += read(t0_overruns);
    s.t1_overruns += read(t1_overruns);
    s.log_slot_resets += read(log_slot_resets);
    s.fastpath_hits += read(fastpath_hits);
    s.fastpath_revocations += read(fastpath_revocations);
    s.help_claim_skips += read(help_claim_skips);
    s.tbd_eliminations += read(tbd_eliminations);
  }
};

// One writer's slab plus padding; the slab itself must not straddle into a
// neighbour's stripe.
static_assert(sizeof(CachePadded<StatsSlab>) % kCacheLine == 0);

// Per-process handle; DescT is the descriptor type whose pointers the
// scratch lists carry (Descriptor<Plat> for LockTable, ShmDesc for the shm
// table).
template <typename Plat, typename DescT>
class ProcessHandle {
 public:
  // `with_fast_desc` allocates the embedded fast-path descriptor (LockTable
  // wants it; the shm table, which has no thin words, does not).
  ProcessHandle(int pid, race::Atomic<std::uint64_t>& serial_hwm,
                bool with_fast_desc = false)
      : pid_(pid),
        serial_hwm_(&serial_hwm),
        fast_desc_(with_fast_desc ? std::make_unique<DescT>() : nullptr) {
    WFL_CHECK(pid >= 0);
  }

  ProcessHandle(const ProcessHandle&) = delete;
  ProcessHandle& operator=(const ProcessHandle&) = delete;

  // Serials per block carved off the table's shared high-water mark.
  static constexpr std::uint32_t kSerialBlock = 1024;

  int pid() const { return pid_; }

  // Next descriptor serial, from the process's private block; refills from
  // the shared high-water mark once per kSerialBlock attempts (the only
  // process-shared write on this path, amortized to ~nothing).
  std::uint64_t next_serial() {
    if (serial_next_ == serial_end_) {
      serial_next_ = serial_hwm_->fetch_add(
          kSerialBlock, std::memory_order_relaxed, race::Site::kSerialRefill);
      serial_end_ = serial_next_ + kSerialBlock;
    }
    return serial_next_++;
  }

  StatsSlab& stats() { return *stats_; }
  const StatsSlab& stats() const { return *stats_; }

  // Scratch getSet results. Two distinct lists because the help phase
  // iterates one while the engine's run() (called per helped descriptor)
  // refills the other; run() is never reentered, so two suffice.
  MemberList<DescT*>& help_scratch() { return help_scratch_; }
  MemberList<DescT*>& run_scratch() { return run_scratch_; }

  // Private scratch thunk log for degenerate (empty-lock-set) attempts:
  // reused across attempts with the lazy reset instead of re-initializing
  // kThunkLogCap slots per call. Never shared — no helpers exist for a
  // descriptor-less run.
  ThunkLog<Plat>& local_log() { return local_log_; }

  // The embedded fast-path descriptor (DESIGN.md §5.1): uncontended
  // single-lock attempts publish it through the lock's thin word instead
  // of drawing a pooled descriptor, so the steady state performs zero pool
  // and active-set traffic. It is pool-free and never EBR-retired; reuse
  // safety comes from the thin-word observation protocol: the descriptor
  // may be re-initialized only while fast_ready() is true — either no
  // rival ever observed the previous publication (the release CAS
  // succeeded untouched), or a full grace period of the table's domain
  // has passed since (the table retires a cooldown token whose deleter
  // calls end_fast_cooldown()). Allocated only when the owning space
  // requested it (with_fast_desc).
  DescT& fast_desc() {
    WFL_DASSERT(fast_desc_ != nullptr);
    return *fast_desc_;
  }
  bool fast_ready() const {
    return fast_ready_.load(std::memory_order_relaxed,
                            race::Site::kFastReadyLoad);
  }
  void begin_fast_cooldown() {
    fast_ready_.store(false, std::memory_order_relaxed,
                      race::Site::kFastReadyStore);
  }
  void end_fast_cooldown() {
    fast_ready_.store(true, std::memory_order_relaxed,
                      race::Site::kFastReadyStore);
  }
  // EbrDomain deleter shape for the cooldown token; ctx is the handle.
  static void fast_cooldown_expired(void* ctx, std::uint32_t) {
    WFL_FUZZ_SITE(kSiteCooldownResume);
    static_cast<ProcessHandle*>(ctx)->end_fast_cooldown();
  }

  // Re-entrancy depth of this process's EBR guard. The table enters its
  // domain when the depth rises from 0 and exits when it returns to 0;
  // everything in between is a plain private increment.
  std::uint32_t& guard_depth() { return guard_depth_; }
  template <typename Domain>
  void guard_enter(Domain& domain) {
    if (guard_depth_++ == 0) domain.enter(pid_);
  }
  template <typename Domain>
  void guard_exit(Domain& domain) {
    WFL_DASSERT(guard_depth_ > 0);
    if (--guard_depth_ == 0) domain.exit(pid_);
  }

 private:
  int pid_;
  std::uint64_t serial_next_ = 0;
  std::uint64_t serial_end_ = 0;
  race::Atomic<std::uint64_t>* serial_hwm_;
  CachePadded<StatsSlab> stats_;
  MemberList<DescT*> help_scratch_;
  MemberList<DescT*> run_scratch_;
  ThunkLog<Plat> local_log_;
  std::unique_ptr<DescT> fast_desc_;
  // Raw atomic: flipped by the EBR cooldown deleter, which runs on the
  // owning participant or under quiescent domain teardown (another thread).
  race::Atomic<bool> fast_ready_{true};
  std::uint32_t guard_depth_ = 0;
};

// RAII hold of a handle's guard on `Domain` through its re-entrant depth
// counter. Neither copyable nor movable; returned by value through
// guaranteed elision.
template <typename HandleT, typename Domain>
class HandleGuard {
 public:
  HandleGuard(HandleT& h, Domain& domain) : h_(h), domain_(domain) {
    h_.guard_enter(domain_);
  }
  ~HandleGuard() { h_.guard_exit(domain_); }
  HandleGuard(const HandleGuard&) = delete;
  HandleGuard& operator=(const HandleGuard&) = delete;

 private:
  HandleT& h_;
  Domain& domain_;
};

// The inverse, for an attempt's delay segments: exits one level of the
// handle's guard — the attempt's own — for the scope and re-enters it on
// exit. An enclosing holder (an inspector) keeps its guard; the attempt's
// own guard never stalls reclamation across a delay.
template <typename HandleT, typename Domain>
class GuardRelease {
 public:
  GuardRelease(HandleT& h, Domain& domain) : h_(h), domain_(domain) {
    h_.guard_exit(domain_);
  }
  ~GuardRelease() { h_.guard_enter(domain_); }
  GuardRelease(const GuardRelease&) = delete;
  GuardRelease& operator=(const GuardRelease&) = delete;

 private:
  HandleT& h_;
  Domain& domain_;
};

}  // namespace wfl
