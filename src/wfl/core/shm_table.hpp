// Cross-process lock table: Algorithm 3 in a shared-memory arena
// (DESIGN.md §10).
//
// ShmLockTable is the pointer-free sibling of LockTable: every piece of
// shared state — descriptors, set snapshots, announcement slots, EBR
// announcements, session records — lives in a ShmArena and is addressed by
// pool handle or byte offset, so independent OS processes can attach the
// same table at different base addresses. It runs the SAME code as the
// in-process table wherever placement allows: tryLock's descriptor path
// (AttemptEngine::attempt, core/attempt.hpp), the per-process
// ProcessHandle (serials, stats, scratch, re-entrant guard depth), and
// IndexPool, ActiveSet and EbrDomain with their shared state placed in the
// arena. What differs is the engine context (AttemptCtx below):
//
//   * set members are owner words (descriptor handle + 1), not pointers:
//     insert() announces the owner word, and sets are read through a view
//     that resolves owner words to descriptors in this process's mapping;
//   * thunks are interpretable POD programs (ShmThunk) run against the
//     accessor's own arena, not closures;
//   * the reveal hooks are the crash harness's traps, not the T0/T1
//     delays (create_in enforces DelayMode::kOff);
//   * there is no thin-word fast path and no cooperative helping (both
//     are single-address-space optimizations; the descriptor path is the
//     paper's algorithm and needs neither).
//
// The honest part of the paper's fault model lives here. A "crashed
// process" is a real SIGKILL, and recovery is SURVIVOR-DRIVEN:
//
//   * each session records its OS pid in its shared session record;
//   * any attacher that observes a dead pid (kill(0) probe) claims the
//     victim's session record with one CAS (kLive -> kReaping, exactly one
//     reaper wins) and recovers:
//       - the victim's EBR guard is abandoned (legal: the SIGKILL evidence
//         is the no-further-steps proof EbrDomain::abandon requires),
//         un-pinning the global epoch;
//       - a REVEALED in-flight descriptor (priority > 0) is driven through
//         Engine::run — decide + celebrate-if-won completes the victim's
//         thunk exactly once via the idempotence log, the same replay any
//         helper performs;
//       - an UNREVEALED one (priority still pending) is eliminated: no
//         getSet ever surfaced it (the flag filter), so no helper can have
//         depended on it winning, and losing is the only sound fate;
//       - the victim's announcement slots are cleared by owner-scan and
//         re-climbed, removing it from every lock's set;
//   * the victim's pool slots — its in-flight descriptor, anything parked
//     in its private SlotCache, its pending local retirements — leak
//     forever, bounded per crash and priced into the fixed pool capacity.
//     Its pid is never recycled to a new session.
//
// Survivors' wait-freedom is preserved: recovery adds a bounded amount of
// work (one run() + L·C owner scans per crash), and everything a survivor
// waits on — status CASes, set climbs — is the bounded competition the
// paper already prices in. A crashed winner's lock is released the moment
// any survivor celebrates its thunk and the reaper removes it from the
// sets; nothing blocks on the corpse.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "wfl/active/active_set.hpp"
#include "wfl/active/multi_set.hpp"
#include "wfl/core/attempt.hpp"
#include "wfl/core/config.hpp"
#include "wfl/core/descriptor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/process.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {

// The cross-process thunk: an interpretable program over arena-resident
// cells, not a closure. A FixedFunction captures pointers that are garbage
// in another address space; survivors must be able to REPLAY the victim's
// thunk, so the thunk itself has to be data. kAddCells covers the locked
// read-modify-write shape every crash experiment and test in this repo
// uses; the opcode space leaves room for richer programs. The cell offsets
// resolve against the arena of the accessor that runs the program (the
// engine calls it through ShmLockTable's AttemptCtx::run_thunk).
//
// The trap fields are crash-harness hooks: when the interpreting process's
// OS pid matches trap_os_pid, the thunk raises trap_flag after its first
// cell op and freezes (awaiting SIGKILL) — wedging the victim MID-THUNK
// with a partially-applied, partially-logged program. Survivors replaying
// the thunk have a different pid, skip the trap, and complete it; the
// agreement log makes their replay of the already-applied prefix
// write-identical (idem/idem.hpp), so the program still applies exactly
// once.
struct ShmThunk {
  enum Op : std::uint32_t { kNone = 0, kAddCells };
  static constexpr std::uint32_t kMaxCells = 4;

  std::uint32_t op = kNone;
  std::uint32_t n_cells = 0;
  Offset<Cell<RealPlat>> cells[kMaxCells] = {};
  std::uint32_t delta = 1;
  int trap_os_pid = 0;
  Offset<std::atomic<std::uint32_t>> trap_flag = {};

  void reset() { *this = ShmThunk{}; }
  explicit operator bool() const { return op != kNone; }

  void run(const ShmArena& a, IdemCtx<RealPlat>& m) const {
    if (op != kAddCells) return;
    for (std::uint32_t i = 0; i < n_cells; ++i) {
      Cell<RealPlat>& c = *cells[i].in(a);
      m.store(c, m.load(c) + delta);
      if (i == 0 && trap_os_pid != 0 && trap_os_pid == ::getpid()) {
        // No IdemCtx ops inside the trap branch: the logged op sequence
        // must be identical for the victim and its replayers.
        if (auto* f = trap_flag.in(a)) {
          f->store(1, std::memory_order_release);
        }
        for (;;) ::usleep(1000);  // hold the win; the harness SIGKILLs us
      }
    }
  }
};

using ShmDesc = Descriptor<RealPlat, ShmThunk>;

// Session lifecycle states (shared record). Pids move kFree -> kLive ->
// {kClosed, kReaping -> kReaped} and never back: a crashed or closed pid's
// slot is retired forever (its guard-depth/log state cannot be proven
// clean, and recycling it would let a stale announcement impersonate a new
// session).
enum : std::uint32_t {
  kSessFree = 0,
  kSessLive = 1,
  kSessReaping = 2,
  kSessReaped = 3,
  kSessClosed = 4,
};

struct alignas(kCacheLine) ShmSessionRec {
  std::atomic<std::uint32_t> state;
  // Handle+1 of the in-flight descriptor, 0 = none. Published (release)
  // after line group A is complete, so a reaper's acquire load sees a
  // fully-formed descriptor. This is the one piece of crash-recovery state
  // the in-process table never needed: there, the abandoning thread could
  // inspect the victim's stack; here the stack died with the process.
  std::atomic<std::uint32_t> cur_desc;
  // The session's OS pid, written before the kFree -> kLive CAS publishes
  // the record; reap_dead probes it with kill(0).
  std::atomic<int> os_pid;
};

struct ShmTableHeader {
  LockConfig cfg;
  int max_procs = 0;
  std::uint32_t num_locks = 0;
  std::uint32_t set_cap = 0;
  std::uint32_t empty_snap = 0;  // reserved all-empty snapshot handle
  std::uint64_t desc_pool_off = 0;
  std::uint64_t snap_pool_off = 0;
  std::uint64_t ebr_off = 0;
  std::uint64_t sets_off = 0;      // Set::Slot[num_locks * set_cap]
  std::uint64_t sessions_off = 0;  // ShmSessionRec[max_procs]
  race::Atomic<std::uint64_t> serial_hwm{1};
};

class ShmLockTable {
 public:
  using Desc = ShmDesc;
  using Snap = SetSnap<std::uint32_t>;  // members are owner words (handle+1)
  using Set = ActiveSet<RealPlat, std::uint32_t>;
  using Handle = ProcessHandle<RealPlat, Desc>;

  // Per-process session state. The shared part is the EBR announcement and
  // the ShmSessionRec; everything here — the ProcessHandle (stats, scratch,
  // serial block, guard depth) and the slot cache — is private to the
  // owning process and dies with it (the cached slots leak on a crash; see
  // the header comment).
  class Session {
   public:
    int pid() const { return h_.pid(); }
    StatsSlab& stats() { return h_.stats(); }

    // Crash-harness hooks: run at the two descriptor-path points a real
    // crash is most interesting (announced-but-unrevealed, and revealed-
    // but-undriven). The experiments park the process inside one and
    // SIGKILL it there.
    std::function<void()> trap_pre_reveal;
    std::function<void()> trap_post_reveal;

   private:
    friend class ShmLockTable;
    Session(int pid, race::Atomic<std::uint64_t>& serial_hwm)
        : h_(pid, serial_hwm) {}
    Handle h_;
    SlotCache<Desc> dcache_;
  };

  // --- construction --------------------------------------------------------

  // Builds a table inside the arena and publishes it as the arena root.
  // Creator-only; every other process (and the creator itself) talks to it
  // through the returned local accessor.
  static std::unique_ptr<ShmLockTable> create_in(ShmArena& shm,
                                                 const LockConfig& cfg,
                                                 int max_procs, int num_locks) {
    cfg.validate();
    WFL_CHECK(max_procs > 0 && num_locks > 0);
    WFL_CHECK(cfg.max_locks <= kMaxLocksPerAttempt);
    WFL_CHECK(cfg.max_thunk_steps <= kMaxThunkOps);
    WFL_CHECK(cfg.kappa <= kMaxSetCap);
    // The delays are step-counted in thread_locals that mean nothing across
    // address spaces, and the fairness argument they buy assumes a common
    // step clock; the cross-process table runs practical mode only.
    WFL_CHECK_MSG(cfg.delay_mode == DelayMode::kOff,
                  "ShmLockTable supports DelayMode::kOff only");

    const std::uint64_t header_off = shm.create<ShmTableHeader>();
    ShmTableHeader* h = shm.at<ShmTableHeader>(header_off);
    h->cfg = cfg;
    h->max_procs = max_procs;
    h->num_locks = static_cast<std::uint32_t>(num_locks);
    // Announcement capacity: κ live attempts per lock, plus slack for
    // dead-but-unreaped announcements (a crashed process's slot stays
    // claimed until a survivor reaps it, and that corpse does not count
    // against the liveness contract κ promises).
    h->set_cap = std::min(kMaxSetCap, cfg.kappa + kCrashSlackSlots);

    // Pool sizing: the steady-state demand bounds of the in-process table,
    // plus crash leakage — each crash retires forever at most one in-flight
    // descriptor, one 64-slot descriptor cache, and its pending
    // retirements: while grace periods flow, up to three buckets of
    // EbrDomain::kCollectEvery (3 × 128). The 16384-snapshot floor is over
    // 30 such crashes deep.
    const auto procs = static_cast<std::uint32_t>(max_procs);
    const std::uint32_t desc_cap = std::max<std::uint32_t>(1024, procs * 256);
    // Snapshot demand is retire-rate times reclamation latency, and on an
    // oversubscribed host the latency is scheduling quanta (a preempted
    // guard holder pins the epoch for milliseconds), not instruction
    // counts — size for that, not for the quiescent steady state. The
    // backpressure path below makes undersizing degrade throughput rather
    // than abort, but headroom is what keeps the common case wait-free.
    const std::uint32_t snap_cap =
        std::max<std::uint32_t>(16384, procs * 2048);

    h->desc_pool_off = IndexPool<Desc>::create_in(shm, desc_cap);
    h->snap_pool_off = IndexPool<Snap>::create_in(shm, snap_cap);
    h->ebr_off = EbrDomain::create_in(shm, max_procs);
    h->sessions_off =
        shm.create_array<ShmSessionRec>(static_cast<std::size_t>(max_procs));
    const std::size_t n_slots =
        static_cast<std::size_t>(h->num_locks) * h->set_cap;
    h->sets_off = shm.create_array<Set::Slot>(n_slots);

    // Reserve the one sentinel snapshot every accessor's SetMem shares, and
    // point every slot of every lock at it.
    IndexPool<Snap> snaps(shm, h->snap_pool_off);
    h->empty_snap = Set::Mem::reserve_empty(snaps);
    Set::format(shm.at<Set::Slot>(h->sets_off), n_slots, h->empty_snap);

    auto t = std::unique_ptr<ShmLockTable>(new ShmLockTable(shm, header_off));
    shm.set_root(header_off);
    shm.publish_ready();
    return t;
  }

  // Joins an existing table (same process or another one). The arena must
  // outlive the returned accessor and every Session opened through it.
  static std::unique_ptr<ShmLockTable> attach(ShmArena& shm) {
    WFL_CHECK_MSG(shm.root() != ShmArena::kNullOffset,
                  "ShmLockTable::attach: arena has no table root");
    return std::unique_ptr<ShmLockTable>(new ShmLockTable(shm, shm.root()));
  }

  ShmLockTable(const ShmLockTable&) = delete;
  ShmLockTable& operator=(const ShmLockTable&) = delete;

  const LockConfig& config() const { return h_->cfg; }
  int max_procs() const { return h_->max_procs; }
  std::uint32_t num_locks() const { return h_->num_locks; }

  // --- sessions ------------------------------------------------------------

  std::unique_ptr<Session> open_session() {
    auto s = std::unique_ptr<Session>(
        new Session(ebr_.register_participant(), h_->serial_hwm));
    s->dcache_.bind(&desc_pool_);
    ShmSessionRec& r = rec(s->pid());
    r.os_pid.store(static_cast<int>(::getpid()), std::memory_order_relaxed);
    r.cur_desc.store(0, std::memory_order_relaxed);
    std::uint32_t expect = kSessFree;
    WFL_CHECK_MSG(
        r.state.compare_exchange_strong(expect, kSessLive,
                                        std::memory_order_acq_rel),
        "session slot not fresh: pids are never recycled");
    open_[static_cast<std::size_t>(s->pid())] = s.get();
    return s;
  }

  // Orderly end: spill the private cache back to the shared pool and mark
  // the slot closed. The pid is still not recycled — pool slots are the
  // recyclable resource, pids are the audit trail.
  void close_session(Session& s) {
    WFL_CHECK(s.h_.guard_depth() == 0);
    ebr_.abandon(s.pid());
    s.dcache_.drain();
    rec(s.pid()).state.store(kSessClosed, std::memory_order_release);
    open_[static_cast<std::size_t>(s.pid())] = nullptr;
  }

  // --- the attempt path ----------------------------------------------------

  // One tryLock attempt: the engine's descriptor path (the same body
  // LockTable runs) minus the pieces that do not cross address spaces — no
  // thin-word fast path, no cooperative claims, no theory delays (create_in
  // enforces kOff), single EBR domain.
  bool try_locks(Session& s, std::span<const std::uint32_t> lock_ids,
                 const ShmThunk& thunk) {
    WFL_CHECK(!lock_ids.empty() &&
              lock_ids.size() <= h_->cfg.max_locks);
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      WFL_CHECK(lock_ids[i] < h_->num_locks);
    }
    // Every helper and reaper replays a revealed thunk, so one bad program
    // would crash every process that touches the lock: check its offsets
    // here, once, before it is published.
    WFL_CHECK_MSG(thunk.n_cells <= ShmThunk::kMaxCells,
                  "ShmThunk n_cells exceeds kMaxCells");
    for (std::uint32_t i = 0; i < thunk.n_cells; ++i) {
      WFL_CHECK_MSG(thunk.cells[i].fits(*arena_),
                    "ShmThunk cell offset is null, misaligned or outside "
                    "the arena");
    }
    WFL_CHECK_MSG(thunk.trap_flag.null() || thunk.trap_flag.fits(*arena_),
                  "ShmThunk trap_flag offset is misaligned or outside the "
                  "arena");
    Handle& h = s.h_;
    h.stats().add_attempt();
    const std::uint64_t start_steps = RealPlat::steps();

    const std::uint32_t didx = alloc_desc(s);
    Desc& d = desc_pool_.at(didx);
    h.stats().add_log_slot_resets(d.reinit(h.next_serial()));
    d.lock_count = static_cast<std::uint32_t>(lock_ids.size());
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      d.lock_ids[i] = lock_ids[i];
    }
    d.thunk = thunk;
    // Publish the in-flight handle for a potential reaper BEFORE the first
    // set insert: from here on a crash leaves recoverable state.
    rec(s.pid()).cur_desc.store(didx + 1, std::memory_order_release);

    AttemptCtx cx{this, &s, didx + 1};
    const bool won = Engine::attempt(cx, d, start_steps, nullptr);

    rec(s.pid()).cur_desc.store(0, std::memory_order_release);
    // The slot goes back to the owner's cache after the grace period. A
    // crashed attempt never gets here: its descriptor leaks by design.
    ebr_.retire(s.pid(), &s.dcache_, didx,
                &SlotCache<Desc>::free_to_cache);
    return won;
  }

  // --- survivor-driven recovery --------------------------------------------

  // Probes every live session's OS pid and reaps the dead ones. Returns
  // the number reaped. Any session may call this at any time; the per-
  // victim claim CAS makes concurrent reapers race safely (one wins, the
  // rest skip).
  int reap_dead(Session& s) {
    int reaped = 0;
    for (int pid = 0; pid < h_->max_procs; ++pid) {
      if (pid == s.pid()) continue;
      const ShmSessionRec& r = rec(pid);
      if (r.state.load(std::memory_order_acquire) != kSessLive) continue;
      if (shm_pid_alive(r.os_pid.load(std::memory_order_relaxed))) continue;
      if (reap(s, pid)) ++reaped;
    }
    return reaped;
  }

  // --- diagnostics ---------------------------------------------------------

  std::uint32_t desc_free() const { return desc_pool_.free_count(); }
  std::uint32_t snap_free() const { return snap_pool_.free_count(); }
  std::uint64_t epoch() const { return ebr_.epoch(); }
  std::uint32_t session_state(int pid) const {
    return rec(pid).state.load(std::memory_order_acquire);
  }

  // Quiescent-only wedge probe: true iff some lock's set still announces a
  // descriptor that is active-and-revealed (a holder nobody can finish) or
  // belongs to an unreaped corpse. Mirrors exp_crash's any_held probe.
  bool any_holder(Session& s) {
    bool held = false;
    const auto guard = guard_of(s);
    for (std::uint32_t lock = 0; lock < h_->num_locks && !held; ++lock) {
      Set& set = *locks_[lock];
      for (std::uint32_t j = 0; j < set.capacity() && !held; ++j) {
        const std::uint32_t owner = set.owner(j);
        if (owner == 0) continue;
        Desc& d = desc_pool_.at(owner - 1);
        held = d.status.load() == kStatusActive && d.priority.load() > 0;
      }
    }
    return held;
  }

 private:
  struct AttemptCtx;
  using Engine = AttemptEngine<RealPlat, AttemptCtx>;

  static constexpr std::uint32_t kCrashSlackSlots = 8;

  ShmLockTable(ShmArena& shm, std::uint64_t header_off)
      : arena_(&shm),
        h_(shm.at<ShmTableHeader>(header_off)),
        desc_pool_(shm, h_->desc_pool_off),
        snap_pool_(shm, h_->snap_pool_off),
        ebr_(shm, h_->ebr_off),
        sessions_(shm.at<ShmSessionRec>(h_->sessions_off)),
        set_mem_(snap_pool_, ebr_, h_->empty_snap, &snap_stall, this),
        open_(static_cast<std::size_t>(h_->max_procs), nullptr) {
    auto* slots = shm.at<Set::Slot>(h_->sets_off);
    locks_.reserve(h_->num_locks);
    for (std::uint32_t i = 0; i < h_->num_locks; ++i) {
      locks_.push_back(std::make_unique<Set>(
          h_->set_cap, set_mem_,
          slots + static_cast<std::size_t>(i) * h_->set_cap));
    }
  }

  ShmSessionRec& rec(int pid) const { return sessions_[pid]; }

  // Reaps one victim whose OS pid is dead. abandon() is only legal against
  // a process that takes no further steps, and a false positive here is
  // the ONE way this layer can corrupt itself — hence the dead-pid
  // evidence (DESIGN.md §10).
  bool reap(Session& s, int victim_pid) {
    ShmSessionRec& r = rec(victim_pid);
    std::uint32_t expect = kSessLive;
    if (!r.state.compare_exchange_strong(expect, kSessReaping,
                                         std::memory_order_acq_rel)) {
      return false;  // already reaped (or being reaped) by someone else
    }
    // Drop the victim's guard first: reclamation un-stalls even while the
    // recovery below is still running.
    ebr_.abandon(victim_pid);

    {
      const auto guard = guard_of(s);
      AttemptCtx cx{this, &s};
      const std::uint32_t cd = r.cur_desc.load(std::memory_order_acquire);
      if (cd != 0) {
        Desc& d = desc_pool_.at(cd - 1);
        if (d.priority.load() > 0) {
          // Revealed: finish the victim's competition on its behalf —
          // celebrate-if-won replays its thunk to completion (exactly
          // once, by the agreement log).
          Engine::run(cx, d);
        } else if (d.status.cas(kStatusActive, kStatusLost)) {
          // Announced but never revealed: the flag filter means no getSet
          // surfaced it and nobody can have helped it win; eliminate.
          s.stats().add_elimination();
        }
        d.clear_flag();
        // multiRemove on the victim's behalf. Its slot_of_lock is owner-
        // private state that may have died mid-update; the owner-scan is
        // the crash-safe equivalent (bounded: L · C slots).
        for (std::uint32_t i = 0; i < d.lock_count; ++i) {
          Set& set = *locks_[d.lock_ids[i]];
          for (std::uint32_t j = 0; j < set.capacity(); ++j) {
            if (set.owner(j) == cd) set.remove(static_cast<int>(j), s.pid());
          }
        }
        // The victim's descriptor slot is NOT retired to the pool: its
        // private cache state died with it, so the slot leaks — bounded at
        // one per crash, priced into create_in's sizing.
      }
    }
    r.cur_desc.store(0, std::memory_order_release);
    r.state.store(kSessReaped, std::memory_order_release);
    return true;
  }

  // The session's guard on the table's EBR domain, re-entrant through its
  // handle (the engine's run() nests inside the attempt's guard).
  HandleGuard<Handle, EbrDomain> guard_of(Session& s) { return {s.h_, ebr_}; }

  // A process-local member view of one lock's set: get_set() resolves the
  // current slot-0 snapshot's owner words into descriptor pointers in THIS
  // process's mapping. Shaped so multi_get_set's duck-typing (snap->count /
  // snap->items / flag filter) works unchanged. Caller holds the EBR guard
  // across get_set() and every use of the members, exactly as with
  // ActiveSet; multi_get_set copies the members out before the view is
  // pointed at another set.
  struct SetView {
    struct Members {
      std::uint32_t count = 0;
      Desc* items[kMaxSetCap];
    };
    ShmLockTable* t = nullptr;
    Set* set = nullptr;
    Members buf;

    const Members* get_set() {
      const Snap* snap = set->get_set();
      buf.count = snap->count;
      for (std::uint32_t i = 0; i < snap->count; ++i) {
        buf.items[i] = t->desc_pool_.ptr(snap->items[i] - 1);
      }
      return &buf;
    }
  };

  // The engine context (core/attempt.hpp's duck-typed contract). Set
  // members are owner words; no thin words and no cooperative claims in
  // shm mode: thin_rival is always null, cooperative() false (help()
  // degenerates to run(), the paper's everyone-drives discipline). The
  // reveal hooks are the session's crash-harness traps.
  struct AttemptCtx {
    ShmLockTable* t;
    Session* s;
    std::uint32_t owner = 0;  // the attempt's owner word (handle + 1)
    SetView view{};
    using Desc = ShmLockTable::Desc;

    SetView& set(std::uint32_t lock_id) {
      view.t = t;
      view.set = t->locks_[lock_id].get();
      return view;
    }
    int insert(std::uint32_t lock_id, Desc& d) {
      WFL_DASSERT(t->desc_pool_.ptr(owner - 1) == &d);
      (void)d;
      return t->locks_[lock_id]->insert(owner, s->pid());
    }
    void remove(std::uint32_t lock_id, int slot) {
      t->locks_[lock_id]->remove(slot, s->pid());
    }
    StatsSlab& stats() { return s->h_.stats(); }
    MemberList<Desc*>& help_scratch() { return s->h_.help_scratch(); }
    bool revealed(Desc&) { return true; }
    const MemberList<Desc*>& competitors(Desc& p, std::uint32_t i) {
      multi_get_set<RealPlat>(set(p.lock_ids[i]), s->h_.run_scratch(), &p);
      return s->h_.run_scratch();
    }
    HandleGuard<Handle, EbrDomain> guard() { return t->guard_of(*s); }
    Desc* thin_rival(std::uint32_t) { return nullptr; }
    void run_thunk(Desc& p, IdemCtx<RealPlat>& m) {
      p.thunk.run(*t->arena_, m);
    }
    int pid() { return s->pid(); }
    bool help_phase() { return t->h_->cfg.help_phase; }
    bool cooperative() { return false; }
    std::uint32_t claim_patience() { return ~std::uint32_t{0}; }  // unused
    void before_reveal(Desc&, std::uint64_t) {
      if (s->trap_pre_reveal) s->trap_pre_reveal();
    }
    void after_reveal() {
      if (s->trap_post_reveal) s->trap_post_reveal();
    }
    void after_release(Desc&, std::uint64_t) {}
  };
  friend struct AttemptCtx;

  // --- allocation backpressure ---------------------------------------------
  //
  // The arena pools never grow, so the unbounded-memory assumption behind
  // the paper's wait-freedom does not literally hold here: a process
  // preempted (or killed) inside an EBR guard pins the epoch, and while it
  // is pinned every retirement stays pending and the pools only drain. On an oversubscribed host a single scheduling
  // quantum is enough churn to empty a correctly-sized snapshot pool.
  // The honest response is backpressure, not abort: stop allocating, push
  // reclamation (collect), probe for corpses to reap (a SIGKILLed guard
  // holder pins the epoch forever until abandoned), and let the preempted
  // holder run. Progress during a stall degrades from wait-free to
  // blocking-on-reclamation; the paper's bounds resume as soon as
  // reclamation catches up (DESIGN.md §10).
  //
  // Deadlock-freedom: the waiter fully exits its own guard while waiting
  // (a waiter announced at epoch E otherwise pins global at E+1 and its
  // own current-epoch bucket — holding most of the pool after a long peer
  // stall — could never reach the E+2 drain bar). Callers therefore must
  // not hold any guard-protected pointer across an allocation; ActiveSet's
  // climb() allocates before it reads any handle for exactly this reason.
  static constexpr std::uint32_t kAllocPatienceSpins = 100000;  // ~10 s

  template <typename TryAlloc>
  std::uint32_t alloc_backpressure(Session& s, TryAlloc&& try_alloc) {
    std::uint32_t& depth_ref = s.h_.guard_depth();
    const std::uint32_t depth = depth_ref;
    if (depth > 0) {
      depth_ref = 0;
      ebr_.exit(s.pid());
    }
    std::uint32_t idx = kNullIndex;
    for (std::uint32_t spin = 0; idx == kNullIndex; ++spin) {
      WFL_CHECK_MSG(spin < kAllocPatienceSpins,
                    "shm pool allocation stalled past patience: pool "
                    "undersized, or a live peer wedged inside a guard");
      ebr_.collect(s.pid());
      idx = try_alloc();
      if (idx != kNullIndex) break;
      if ((spin & 63u) == 63u) reap_dead(s);
      ::usleep(100);
    }
    if (depth > 0) {
      ebr_.enter(s.pid());
      depth_ref = depth;
    }
    return idx;
  }

  // SetMem's stall hook: the snapshot pool ran dry under `pid`'s climb.
  static std::uint32_t snap_stall(void* ctx, int pid) {
    auto* t = static_cast<ShmLockTable*>(ctx);
    Session* s = t->open_[static_cast<std::size_t>(pid)];
    WFL_CHECK(s != nullptr);
    return t->alloc_backpressure(*s, [t] { return t->snap_pool_.try_alloc(); });
  }

  std::uint32_t alloc_desc(Session& s) {
    const std::uint32_t idx = s.dcache_.try_alloc();
    if (idx != kNullIndex) return idx;
    return alloc_backpressure(s, [&s] { return s.dcache_.try_alloc(); });
  }

  // Declaration order is construction order: set_mem_ references the pool
  // and domain, and the sets reference set_mem_.
  const ShmArena* arena_;
  ShmTableHeader* h_;
  IndexPool<Desc> desc_pool_;
  IndexPool<Snap> snap_pool_;
  EbrDomain ebr_;
  ShmSessionRec* sessions_;
  Set::Mem set_mem_;
  std::vector<std::unique_ptr<Set>> locks_;
  // Process-local: the Session this process opened under each pid (the
  // snapshot stall hook is keyed by EBR pid).
  std::vector<Session*> open_;
};

}  // namespace wfl
