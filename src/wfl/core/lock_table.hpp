// The lock table: storage + orchestration for Algorithm 3.
//
// A LockTable owns a family of locks, each represented by one active set
// (Algorithm 1); together they form the multi active set (Algorithm 2) the
// attempts are inserted into. try_locks(lockList, thunk) is Algorithm 3;
// its descriptor path is AttemptEngine::attempt (core/attempt.hpp), which
// this table drives through its AttemptCtx:
//
//   1. Help phase (lines 17–20): getSet every lock in the list; run() every
//      revealed descriptor found. Any competitor whose priority the player
//      adversary could have seen before starting us is forced to finish
//      before we pick our own priority (Lemma 6.4).
//   2. multiInsert (line 21): insert our descriptor into every lock's set;
//      then the *reveal step* — after delaying until exactly T0 = c0·κ²L²·T
//      of our own steps have elapsed since the attempt started, store a
//      uniformly random priority. The fixed delay makes the reveal time a
//      pure function of the start time (Observation 6.7), which is what
//      denies the adversary any priority-dependent timing leverage.
//   3. run(p) (lines 26–37): the competition core, which owns the
//      safety-critical celebrate-before-decide ordering (Definition 4.3).
//   4. multiRemove (line 23) and the trailing delay to T1 = c1·κLT own
//      steps after the reveal, fixing the attempt's end time as well.
//
// Wait-freedom is structural: every loop on the attempt path is bounded by
// κ, L, or T. There are no unbounded retries anywhere.
//
// --- Unknown bounds (DelayMode::kUnknownBounds, §6.2, Theorem 6.10) -------
//
// The same attempt without κ, L or T. Only the reveal schedule changes, and
// each change is one AttemptCtx hook:
//
//   * sets are sized by max_procs (the paper's P) — set sizes, and with
//     them step costs, stay proportional to the true contention;
//   * before_reveal pads the pre-participation work to the next power of
//     two of the attempt's own steps (guess-and-double: log(κLT) possible
//     reveal times, the theorem's fairness loss), stores TBD — the
//     *participation-reveal*: visible as a competitor, priority still
//     hidden — and snapshots every lock's set into the descriptor's frozen
//     snapshots. Only then does the engine store the priority, so the
//     adversary learns it after the set of potential threateners is fixed;
//   * competitors() hands run() those snapshots instead of live sets, and
//     the help phase drives only revealed members (revealed());
//   * after_release pads the post-reveal work the same way.
//
// One case the PODC text leaves to the full version: a snapshot member
// whose priority is still TBD when the competition examines it. Skipping
// it is unsafe — two descriptors that each snapshot the other before its
// priority-reveal could both win a shared lock:
//
//   p inserts, snapshots {..no q..}; q inserts, snapshots {..p(TBD)..};
//   if q skips p and p never sees q, both decide won.
//
// Inserts complete before snapshots are taken, so of any conflicting pair
// at least one sees the other (their insert/snapshot windows cannot both
// precede each other). The engine's duel() therefore applies a
// *seer-eliminates* rule: re-read the member's priority once more and, if
// it is still TBD, eliminate it. That happens before either priority is
// known, so it cannot bias the priority distribution — it costs success
// probability, which experiment E8 measures (column tbd-elims) and which
// stays inside the theorem's log factor. Safety then follows from the same
// celebrate-before-decide ordering as Algorithm 3. The thin-word fast path
// and cooperative helping stay off, as under kTheory: the fast path needs
// a priority at publication, and the adaptivity argument leans on every
// observer finishing revealed competitors (DESIGN.md §5.2).
//
// --- Reclamation ------------------------------------------------------------
//
// The table owns one descriptor pool and one snapshot pool, each fronted by
// per-process slot caches, and ONE EBR domain, as the shm table does. An
// attempt enters its guard once, and that one guard covers every descriptor
// and snapshot it may read — helping another descriptor costs a re-entrancy
// depth bump, not a fence. A descriptor is retired exactly once, into that
// domain, and its pool slot goes back to the owner's cache when the grace
// period expires, so a steady-state attempt never touches the shared
// freelist. The price: a guard held by any process delays the freeing of
// every slot retired while it is held.
//
// Under DelayMode::kOff the guard is held across the whole attempt. Under
// the paper's delays the attempt exits it while a T0/T1 delay or §6.2
// padding spins, which dominate an attempt's steps; this keeps reclamation
// flowing while a slow process stalls in a delay (core/attempt.hpp).
//
// --- Thin-word fast path (DelayMode::kOff only) ----------------------------
//
// Every lock carries a *thin word*. An uncontended single-lock attempt
// CASes an encoding of (owner pid, attempt serial) into it, competes
// through the handle's embedded descriptor — which the word logically
// publishes, exactly as an active-set insert would — and CASes the word
// back to free. The steady state is two thin-word CASes plus the
// competition reads: zero descriptor-pool traffic, zero snapshot climbs,
// zero EBR retires.
//
// On conflict a contender *revokes* the publication: it sets the word's
// observed bit (announcing that it holds a reference to the embedded
// descriptor) and then duels/helps that descriptor through the ordinary
// Algorithm-3 machinery — eliminate, celebrate-if-won, thunk replay via
// the idempotence log — so helping semantics and the step bound are
// preserved verbatim. The owner, finding its release CAS failed, clears
// the word and *cools down*: the embedded descriptor may not be reused
// until a grace period of the table's EBR domain has passed (a cooldown
// token retired into that domain flips the handle's fast_ready flag back),
// because the observer may still be reading it. Until then the process's
// single-lock attempts take the descriptor path. Safety argument in
// DESIGN.md §5.1.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "wfl/active/active_set.hpp"
#include "wfl/active/multi_set.hpp"
#include "wfl/core/attempt.hpp"
#include "wfl/core/config.hpp"
#include "wfl/core/descriptor.hpp"
#include "wfl/core/lock_set.hpp"
#include "wfl/core/process.hpp"
#include "wfl/fuzz/sites.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// Initial pool capacities; 0 means "auto from process count".
struct SpaceSizing {
  std::uint32_t snap_pool_capacity = 0;  // initial snapshots
  std::uint32_t desc_pool_capacity = 0;  // initial descriptors
};

// Release-event sink: a runtime (the async executor) installs one to learn
// when a lock's competition state changed — a descriptor left the lock's
// active set (multiRemove, win or loss) or a thin-word publication was
// released/revoked — i.e. exactly the moments a blocked submission may
// have become runnable. Notifications are advisory (spurious ones are
// fine; the executor's park protocol re-checks), posted OUTSIDE the step
// model (like reclamation, DESIGN.md #2), and only ever posted while a
// sink is installed — which the async executor gates on DelayMode::kOff,
// so kTheory executions stay bit-identical.
// `origin_pid` is the process whose attempt posted the event — the sink
// uses it to skip that attempt's own submission when picking a waiter to
// wake (an op must not consume its own release events; that would turn
// every losing attempt into a hot self-retry). It is a pid rather than a
// thread-identity because under SimPlat many logical processes interleave
// mid-attempt on one OS thread.
class WakeSink {
 public:
  virtual void on_release(std::uint32_t lock_id, int origin_pid) = 0;

 protected:
  ~WakeSink() = default;
};

template <typename Plat>
class LockTable {
 public:
  using Platform = Plat;
  using Desc = Descriptor<Plat>;
  using Thunk = typename Desc::Thunk;
  using Set = ActiveSet<Plat, Desc*>;
  using Handle = ProcessHandle<Plat, Desc>;

  // A per-logical-process name (dense id; also the participant id in the
  // table's EBR domain). Cheap value type; each OS thread / sim fiber
  // holds one through a Session (core/session.hpp).
  struct Process {
    int ebr_pid = -1;
  };

  LockTable(const LockConfig& cfg, int max_procs, int num_locks,
            SpaceSizing sizing = {})
      : cfg_(cfg),
        max_procs_(max_procs),
        practical_(cfg.delay_mode == DelayMode::kOff),
        thin_(static_cast<std::size_t>(std::max(num_locks, 1))),
        snap_pool_(sizing.snap_pool_capacity != 0
                       ? sizing.snap_pool_capacity
                       : auto_snap_capacity(max_procs)),
        desc_pool_(sizing.desc_pool_capacity != 0
                       ? sizing.desc_pool_capacity
                       : auto_desc_capacity(max_procs)),
        desc_caches_(static_cast<std::size_t>(std::max(max_procs, 1))),
        snap_caches_(static_cast<std::size_t>(std::max(max_procs, 1))),
        handles_(static_cast<std::size_t>(std::max(max_procs, 1))),
        ebr_(max_procs),
        set_mem_(snap_pool_, ebr_, snap_caches_.data()) {
    // Raw atomics with hooked accessors: seed their shadow state so a
    // table built on a reused heap address starts clean.
    race::created(&serial_hwm_, 1);
    race::created(&wake_sink_, 0);
    cfg_.validate();
    WFL_CHECK(max_procs > 0 && num_locks > 0);
    WFL_CHECK_MSG(max_procs < (1 << 15),
                  "thin-word owner encoding caps max_procs at 2^15 - 1");
    WFL_CHECK(cfg_.max_locks <= kMaxLocksPerAttempt);
    WFL_CHECK(cfg_.max_thunk_steps <= kMaxThunkOps);
    // §6.2 knows no κ: its sets are sized by max_procs (the paper's P).
    unknown_bounds_ = cfg_.delay_mode == DelayMode::kUnknownBounds;
    const std::uint32_t set_cap =
        unknown_bounds_ ? static_cast<std::uint32_t>(max_procs) : cfg_.kappa;
    WFL_CHECK(set_cap <= kMaxSetCap);
    for (auto& c : desc_caches_) c->bind(&desc_pool_);
    for (auto& c : snap_caches_) c->bind(&snap_pool_);
    locks_.reserve(static_cast<std::size_t>(num_locks));
    for (int i = 0; i < num_locks; ++i) {
      locks_.push_back(std::make_unique<Set>(set_cap, set_mem_));
    }
  }

  ~LockTable() {
    race::destroyed(&serial_hwm_);
    race::destroyed(&wake_sink_);
  }

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // Registers the calling logical process: one participant slot in the
  // table's EBR domain plus a ProcessHandle carrying its striped hot
  // state. A slot released by a destroyed Session is reused (its handle —
  // stats, serial block, scratch — carries over, so table-level stats stay
  // monotone across session generations). Not on the attempt path;
  // serialized by a mutex with the free list.
  Process register_process() {
    std::lock_guard<std::mutex> lk(reg_mutex_);
    if (!free_pids_.empty()) {
      const int pid = free_pids_.back();
      free_pids_.pop_back();
      return Process{pid};
    }
    const int pid = ebr_.register_participant();
    WFL_CHECK(pid >= 0 && pid < static_cast<int>(handles_.size()));
    handles_[static_cast<std::size_t>(pid)] =
        std::make_unique<Handle>(pid, serial_hwm_, /*with_fast_desc=*/true);
    registered_.store(pid + 1, std::memory_order_release);
    return Process{pid};
  }

  int num_locks() const { return static_cast<int>(locks_.size()); }
  int max_procs() const { return max_procs_; }
  const LockConfig& config() const { return cfg_; }

  // Installs (or clears, with nullptr) the release-event sink. Callers
  // install before submitting any traffic they want notifications for;
  // the async executor clears it only after its workers have drained.
  void set_wake_sink(WakeSink* sink) {
    wake_sink_.store(sink, std::memory_order_release);
    WFL_CHK_ATOMIC(&wake_sink_, kStore, release, kWakeSinkInstall,
                   reinterpret_cast<std::uintptr_t>(sink));
  }

  // True iff `p` currently holds its EBR guard. Attempts exit the guard
  // before returning, so this is false between attempts — the async
  // executor asserts it before parking a submission (a parked session
  // holding a guard would stall reclamation table-wide).
  bool any_guard_held(Process p) { return handle(p).guard_depth() != 0; }

  Handle& handle(Process proc) {
    WFL_CHECK(proc.ebr_pid >= 0 &&
              proc.ebr_pid < static_cast<int>(handles_.size()) &&
              handles_[static_cast<std::size_t>(proc.ebr_pid)] != nullptr);
    return *handles_[static_cast<std::size_t>(proc.ebr_pid)];
  }

  // One tryLock attempt on `lock_ids` running `thunk` if all locks are
  // acquired. Returns success. Never blocks on other processes: completes
  // in O(κ²L²T) of the caller's own steps regardless of the schedule.
  //
  // The primitive under executor.hpp's submit(), which is how callers take
  // locks. The set is not re-validated here: the LockSetView type carries
  // its invariants (core/lock_set.hpp) and submit() checks the L budget.
  bool try_locks(Process proc, LockSetView lock_ids, Thunk thunk,
                 AttemptInfo* info = nullptr) {
    WFL_DASSERT(lock_ids.size() <= cfg_.max_locks);
    return attempt(proc, lock_ids.span(), std::move(thunk), info);
  }

 private:
  bool attempt(Process proc, std::span<const std::uint32_t> lock_ids,
               Thunk thunk, AttemptInfo* info) {
    Handle& h = handle(proc);
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      WFL_CHECK(lock_ids[i] < locks_.size());
    }
    h.stats().add_attempt();

    if (lock_ids.empty()) {
      // Degenerate attempt: nothing to contend on; run the thunk alone on
      // the handle's private scratch log (reused + lazily reset across
      // attempts — no 1KB of slot re-init per call).
      if (thunk) {
        ThunkLog<Plat>& local_log = h.local_log();
        IdemCtx<Plat> ctx(local_log, 0);
        thunk(ctx);
        local_log.note_used(ctx.ops_used());
        h.stats().add_log_slot_resets(local_log.reset_used());
        h.stats().add_thunk_run();
      }
      h.stats().add_win();
      return true;
    }

    // Thin-word fast path: a single-lock attempt whose embedded descriptor
    // is warm tries to decide through the lock's thin word. A contended or
    // cooling-down attempt falls through to the descriptor path below with
    // the thunk intact.
    if (practical_ && lock_ids.size() == 1 && h.fast_ready()) {
      bool won = false;
      if (fast_attempt(h, lock_ids[0], thunk, info, won)) return won;
    }

    const std::uint64_t start_steps = Plat::steps();

    // The descriptor's slot flows through the process's cache: alloc pops
    // it here and the EBR deleter pushes the slot back to it, so a
    // steady-state attempt never touches the shared freelist (arena.hpp).
    SlotCache<Desc>& dcache = *desc_caches_[static_cast<std::size_t>(h.pid())];
    const std::uint32_t didx = dcache.alloc();
    Desc& d = desc_pool_.at(didx);
    h.stats().add_log_slot_resets(d.reinit(h.next_serial()));
    d.lock_count = static_cast<std::uint32_t>(lock_ids.size());
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      d.lock_ids[i] = lock_ids[i];
    }
    d.thunk = std::move(thunk);
    if (unknown_bounds_ && d.snaps == nullptr) {
      d.snaps = std::make_unique<typename Desc::FrozenSnaps>();
    }
    // Line group A is complete; the set insert publishes it.
    WFL_PLAIN_WRITE(&d, kDescPlain);

    AttemptCtx cx{*this, h};
    const bool won = Engine::attempt(cx, d, start_steps, info);
    ebr_.retire(h.pid(), &dcache, didx,
                &SlotCache<Desc>::free_to_cache);
    return won;
  }

  // --- thin-word fast path (see the header comment and DESIGN.md §5.1) ---

  // Thin-word encoding: bit 0 = observed (a rival holds a reference to the
  // publication), bits 1..15 = owner pid + 1, bits 16..63 = attempt serial.
  // pid+1 keeps 0 meaning "free"; the serial makes (pid, serial) reuse —
  // the only ABA that could confuse a rival's CAS — require a 2^48 serial
  // wrap inside one rival's bounded probe window.
  static constexpr std::uint64_t kThinObserved = 1;
  static std::uint64_t thin_encode(int pid, std::uint64_t serial) {
    return (static_cast<std::uint64_t>(pid + 1) << 1) | (serial << 16);
  }
  static int thin_pid(std::uint64_t word) {
    return static_cast<int>((word >> 1) & 0x7FFF) - 1;
  }

  // One fast-path attempt on `lock_id`. Returns true when the attempt was
  // decided here (won_out holds the outcome); false when the thin word was
  // already held — the thunk is moved back out and the caller proceeds on
  // the descriptor path. The embedded descriptor is fully formed BEFORE
  // the publish CAS, so a rival that observes the word immediately after
  // reads a complete, revealed (priority > 0) Algorithm-3 descriptor.
  bool fast_attempt(Handle& h, std::uint32_t lock_id, Thunk& thunk,
                    AttemptInfo* info, bool& won_out) {
    Desc& fd = h.fast_desc();
    const std::uint64_t start_steps = Plat::steps();
    h.stats().add_log_slot_resets(fd.reinit(h.next_serial()));
    fd.lock_count = 1;
    fd.lock_ids[0] = lock_id;
    fd.thunk = std::move(thunk);
    fd.priority.init(draw_priority<Plat>());  // revealed by the publish CAS
    WFL_PLAIN_WRITE(&fd, kDescPlain);  // complete before the publish CAS
    const std::uint64_t enc = thin_encode(h.pid(), fd.serial);
    ThinWord& w = *thin_[lock_id];
    WFL_CHK_TAG(kThinPublish);  // contract: the publish CAS must stay seq_cst
    if (!w.cas(0, enc)) {
      // Held by someone else: this attempt is contended, take the
      // descriptor path (which duels/helps the holder via thin_rival).
      thunk = std::move(fd.thunk);
      return false;
    }
    const std::uint64_t pre_reveal_work = Plat::steps() - start_steps;

    // Compete exactly as a slow-path attempt would: the engine reads the
    // lock's set members AND the thin word (skipping our own publication)
    // under the table's guard, then decides and celebrates.
    AttemptCtx cx{*this, h};
    const std::uint64_t reveal_steps = Plat::steps();
    Engine::run(cx, fd);

    WFL_CHK_TAG(kThinRelease);
    bool released = w.cas(enc, 0);
    if (!released) {
      // A rival set the observed bit (the only transition a non-owner
      // makes) and may still be reading the embedded descriptor; clear the
      // word, then cool the descriptor down through a grace period before
      // any reuse. Rivals that probe from here on see 0 — and any attempt
      // that started after our publication already found us through the
      // word or will see our effects as decided.
      WFL_CHK_TAG(kThinRelease);
      WFL_FUZZ_SITE(kSiteThinRevocation);
      w.store(0);
      h.begin_fast_cooldown();
      ebr_.retire(h.pid(), &h, 0, &Handle::fast_cooldown_expired);
      h.stats().add_fastpath_revocation();
    }
    // Publication gone (released or revoked+cleared): post the release
    // event for parked waiters either way.
    notify_release({&lock_id, 1}, h.pid());
    const std::uint64_t post_reveal_work = Plat::steps() - reveal_steps;

    const bool won = fd.status.load() == kStatusWon;
    if (won) h.stats().add_win();
    h.stats().add_fastpath_hit();
    if (info != nullptr) {
      info->won = won;
      info->pre_reveal_work = pre_reveal_work;
      info->post_reveal_work = post_reveal_work;
      info->total_steps = Plat::steps() - start_steps;
    }
    won_out = won;
    return true;
  }

  // The observe protocol, called by the engine under the table's guard.
  // Returns the lock's current fast-path publication as a duel-able
  // descriptor, or nullptr when the word is free, owned by the caller, or
  // too unstable to pin.
  //
  // Setting the observed bit BEFORE dereferencing is what makes the
  // returned pointer stable: once the bit is set the owner's release CAS
  // fails, so the owner clears the word and cools the descriptor through a
  // grace period — which cannot expire while the caller holds its guard.
  // Giving up after two changed-word passes is safe: the word changing
  // means the previous publication completed (decided and released), and
  // any NEWER publication's competition scan happens after its publish
  // CAS — which is after our own set insert — so the newer owner is
  // guaranteed to see and duel us instead.
  Desc* thin_rival(Handle& h, std::uint32_t lock_id) {
    if (!practical_) return nullptr;
    ThinWord& w = *thin_[lock_id];
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t v = w.load();
      if (v == 0) return nullptr;
      const int pid = thin_pid(v);
      if (pid == h.pid()) return nullptr;  // own publication
      if ((v & kThinObserved) != 0 || w.cas(v, v | kThinObserved)) {
        return &handles_[static_cast<std::size_t>(pid)]->fast_desc();
      }
    }
    return nullptr;
  }

 public:
  // Aggregates the striped per-process slabs. Exact whenever the processes
  // are quiescent (the only time the tests compare totals); otherwise a
  // racy-but-monotone snapshot.
  LockStats stats() const {
    LockStats s;
    const int n = registered_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const auto& h = handles_[static_cast<std::size_t>(i)];
      if (h != nullptr) h->stats().accumulate_into(s);
    }
    return s;
  }

  // Test/diagnostic visibility into pool occupancy: capacity minus free
  // is the number of slots in use, cached or awaiting a grace period.
  std::uint32_t desc_capacity() const { return desc_pool_.capacity(); }
  std::uint32_t desc_free() const { return desc_pool_.free_count(); }
  std::uint32_t snap_capacity() const { return snap_pool_.capacity(); }
  std::uint32_t snap_free() const { return snap_pool_.free_count(); }

  // The benchmark suite's pool_slots metric still reads the table through
  // a shard interface; these forwarders go in the suite's next
  // benchmark-type change.
  std::uint32_t num_shards() const { return 1; }
  std::uint32_t shard_desc_capacity(std::uint32_t s) const {
    WFL_CHECK(s == 0);
    return desc_capacity();
  }
  std::uint32_t shard_snap_capacity(std::uint32_t s) const {
    WFL_CHECK(s == 0);
    return snap_capacity();
  }

  // Shared-freelist transactions (pops/pushes, single or batched) against
  // the pools. The allocation-locality tests assert this stays flat across
  // a steady-state uncontended window; bench_hotpath reports it per
  // attempt.
  std::uint64_t freelist_ops() const {
    return desc_pool_.freelist_ops() + snap_pool_.freelist_ops();
  }

  // Slots currently parked in `p`'s caches (descriptors + snapshots).
  // Quiescent-only diagnostic: the caches are owner-private.
  std::uint32_t cached_slots(Process p) const {
    const auto pidx = static_cast<std::size_t>(p.ebr_pid);
    return desc_caches_[pidx]->size() + snap_caches_[pidx]->size();
  }

  // Test/diagnostic access to a lock's active set. An inspector must hold
  // an EBR guard (ebr_enter/ebr_exit) across get_set() and any use of the
  // returned snapshot. The adversary harness in exp_ablation uses this to
  // play the model's adaptive player, which may see all of history.
  Set& lock_set(std::uint32_t id) { return *locks_[id]; }

  // Inspector guard (re-entrant through the handle's depth counter): the
  // player adversary may look at any lock, and a batch holds it across its
  // ops (executor::submit_batch).
  void ebr_enter(Process p) { handle(p).guard_enter(ebr_); }
  void ebr_exit(Process p) { handle(p).guard_exit(ebr_); }

  // Crash-harness support: release `p`'s EBR guard on its behalf and spill
  // its slot caches back to the shared pools. Legal ONLY when the process
  // provably takes no further steps (a fiber parked forever by a
  // CrashSchedule, whose Session is never destroyed). See
  // EbrDomain::abandon. The caches are owner-private, so nothing else
  // could ever return their slots. The pid stays retired — a crashed
  // process's slot is never handed to a new session.
  void abandon_process(Process p) {
    WFL_CHECK(p.ebr_pid >= 0);
    ebr_.abandon(p.ebr_pid);
    const auto pidx = static_cast<std::size_t>(p.ebr_pid);
    desc_caches_[pidx]->drain();
    snap_caches_[pidx]->drain();
  }

  // End-of-session (Session's destructor): abandon_process, then recycle
  // the pid if that is safe. Legal for the same reason abandon_process is:
  // the caller guarantees the process takes no further steps under this
  // registration. Two cases:
  //
  //   * orderly end (no guard held — the process finished outside any
  //     attempt): the pid joins the registration free list and the slot —
  //     participant id, handle, striped stats — is reused by the next
  //     register_process();
  //   * crash-parked mid-attempt (a CrashSchedule stopped the fiber inside
  //     the attempt's guard, so its re-entrancy depth is still nonzero):
  //     the slot is retired forever, as after abandon_process — the stale
  //     depth counter means the handle can never re-enter a guard
  //     correctly, so it must not be handed to a new session.
  void release_process(Process p) {
    const bool parked_in_guard = any_guard_held(p);
    abandon_process(p);
    if (parked_in_guard) return;
    std::lock_guard<std::mutex> lk(reg_mutex_);
    free_pids_.push_back(p.ebr_pid);
  }

 public:
  // Diagnostics for the kOff optimizations (tests, bench_scaling).
  bool fast_path_enabled() const { return practical_; }
  bool claim_helping_enabled() const { return practical_; }
  // Quiescent-only peek at a lock's thin word (0 = free).
  std::uint64_t thin_word_peek(std::uint32_t lock_id) const {
    return thin_[lock_id]->peek();
  }

 private:
  struct AttemptCtx;
  using Engine = AttemptEngine<Plat, AttemptCtx>;
  using ThinWord = typename Plat::template Atomic<std::uint64_t>;

  // The engine's memory/stats context (see core/attempt.hpp).
  struct AttemptCtx {
    LockTable& t;
    Handle& h;
    using Desc = LockTable::Desc;

    Set& set(std::uint32_t lock_id) { return *t.locks_[lock_id]; }
    int insert(std::uint32_t lock_id, Desc& d) {
      return t.locks_[lock_id]->insert(&d, h.pid());
    }
    void remove(std::uint32_t lock_id, int slot) {
      t.locks_[lock_id]->remove(slot, h.pid());
    }
    StatsSlab& stats() { return h.stats(); }
    MemberList<Desc*>& help_scratch() { return h.help_scratch(); }
    // §6.2: a member still in its TBD window has no priority yet, so it is
    // no known-priority threat; only revealed members are driven.
    bool revealed(Desc& q) {
      return !t.unknown_bounds_ || q.priority.load() > 0;
    }
    const MemberList<Desc*>& competitors(Desc& p, std::uint32_t i) {
      if (t.unknown_bounds_) {
        WFL_PLAIN_READ(p.snaps.get(), kFrozenSnaps);
        return (*p.snaps)[i];
      }
      multi_get_set<Plat>(set(p.lock_ids[i]), h.run_scratch());
      return h.run_scratch();
    }
    HandleGuard<Handle, EbrDomain> guard() { return {h, t.ebr_}; }
    Desc* thin_rival(std::uint32_t lock_id) {
      return t.thin_rival(h, lock_id);
    }
    void run_thunk(Desc& p, IdemCtx<Plat>& m) { p.thunk(m); }
    int pid() { return h.pid(); }
    bool help_phase() { return t.cfg_.help_phase; }
    bool cooperative() { return t.practical_; }
    std::uint32_t claim_patience() { return t.cfg_.claim_patience; }

    // The reveal is pinned to exactly T0 own steps after the attempt's
    // start (Observation 6.7)... Under §6.2 it is padded instead, then
    // preceded by the participation-reveal and the frozen snapshots.
    void before_reveal(Desc& d, std::uint64_t start_steps) {
      if (!t.unknown_bounds_) {
        delay_until(start_steps, t.cfg_.t0_steps(),
                    [this] { h.stats().add_t0_overrun(); });
        return;
      }
      pad_to_power_of_two(start_steps);
      d.priority.store(kPriorityTbd);
      for (std::uint32_t i = 0; i < d.lock_count; ++i) {
        multi_get_set<Plat>(set(d.lock_ids[i]), (*d.snaps)[i]);
        WFL_PLAIN_WRITE(d.snaps.get(), kFrozenSnaps);
      }
    }
    void after_reveal() {}
    // ...and its end to T1 own steps after the reveal (line 24), or padded
    // under §6.2. First, the descriptor left every lock's set: waiters
    // parked on those locks may now be able to win — post the release
    // events (no-op without a sink; never reached with one outside kOff).
    void after_release(Desc& d, std::uint64_t reveal_steps) {
      t.notify_release({d.lock_ids, d.lock_count}, h.pid());
      if (t.unknown_bounds_) {
        pad_to_power_of_two(reveal_steps);
        return;
      }
      delay_until(reveal_steps, t.cfg_.t1_steps(),
                  [this] { h.stats().add_t1_overrun(); });
    }
    // The delay and padding helpers spin outside the attempt's guard (see
    // core/attempt.hpp): the attempt holds no borrowed reference there.
    template <typename OnOverrun>
    void delay_until(std::uint64_t base, std::uint64_t delta,
                     OnOverrun&& on_overrun) {
      if (t.cfg_.delay_mode == DelayMode::kOff) return;
      GuardRelease<Handle, EbrDomain> unguarded(h, t.ebr_);
      Engine::delay_until(base, delta, on_overrun);
    }
    // Guess-and-double: spin own steps until the work since `base` is a
    // power of two.
    void pad_to_power_of_two(std::uint64_t base) {
      GuardRelease<Handle, EbrDomain> unguarded(h, t.ebr_);
      const std::uint64_t w = Plat::steps() - base;
      std::uint64_t target = 1;
      while (target < w) target <<= 1;
      while (Plat::steps() - base < target) Plat::step();
    }
  };
  friend struct AttemptCtx;

  // Initial sizes only: the pools grow on demand (reclamation can stall for
  // as long as any process is preempted inside an EBR guard, so no static
  // bound is safe — see arena.hpp).
  static std::uint32_t auto_snap_capacity(int procs) {
    return std::max<std::uint32_t>(4096,
                                   static_cast<std::uint32_t>(procs) * 256);
  }
  static std::uint32_t auto_desc_capacity(int procs) {
    return std::max<std::uint32_t>(512,
                                   static_cast<std::uint32_t>(procs) * 32);
  }

  // Posts release events to the installed sink, if any. One relaxed load
  // on the hot path when no sink is installed; the sink's own ordering
  // obligations are the executor's (its park protocol re-validates under
  // its wait-list locks, so advisory ordering here suffices).
  void notify_release(std::span<const std::uint32_t> lock_ids,
                      int origin_pid) {
    WakeSink* sink = wake_sink_.load(std::memory_order_acquire);
    WFL_CHK_ATOMIC(&wake_sink_, kLoad, acquire, kWakeSinkLoad,
                   reinterpret_cast<std::uintptr_t>(sink));
    if (sink == nullptr) return;
    for (const std::uint32_t id : lock_ids) sink->on_release(id, origin_pid);
  }


  LockConfig cfg_;
  int max_procs_;
  // The practical-mode optimizations (thin-word fast path, cooperative
  // helping) are hard-gated on kOff: with the paper's delays on, every
  // execution is bit-identical to the pre-fast-path tree (the thin words
  // are never published, and the slow path's probes are skipped entirely).
  const bool practical_;
  bool unknown_bounds_ = false;
  // One thin word per lock, line-padded: under contention rivals hammer a
  // lock's word with observe CASes and the owner with publish/release
  // CASes — neighbouring locks must not share that line.
  std::vector<CachePadded<ThinWord>> thin_;
  // Order matters: the EbrDomain's destructor drains retired objects back
  // into the per-process caches and pools and runs any pending fast-path
  // cooldown deleters against their handles, so every pool, cache AND
  // handle must outlive the domain: they are declared before ebr_ (members
  // are destroyed in reverse order), and set_mem_/locks_ (which reference
  // both) come after. The caches are indexed by EBR pid and line-padded so
  // neighbouring processes' caches never share a line.
  IndexPool<SetSnap<Desc*>> snap_pool_;
  IndexPool<Desc> desc_pool_;
  std::vector<CachePadded<SlotCache<Desc>>> desc_caches_;
  std::vector<CachePadded<SlotCache<SetSnap<Desc*>>>> snap_caches_;
  std::vector<std::unique_ptr<Handle>> handles_;  // indexed by pid; fixed size
  EbrDomain ebr_;
  SetMem<Desc*> set_mem_;
  std::vector<std::unique_ptr<Set>> locks_;

  std::atomic<std::uint64_t> serial_hwm_{1};
  // Raw atomic (not Plat::Atomic): loads of the sink are runtime plumbing,
  // not steps of the paper's model — installing one must not perturb step
  // accounting. Null whenever no async executor is attached.
  std::atomic<WakeSink*> wake_sink_{nullptr};
  std::mutex reg_mutex_;
  std::vector<int> free_pids_;  // released slots awaiting reuse (reg_mutex_)
  std::atomic<int> registered_{0};
};

}  // namespace wfl
