// Epoch-based reclamation with explicit participant handles.
//
// Helpers may hold references to another attempt's descriptor or to a
// replaced set snapshot long after the owner moved on, so freeing must wait
// for a grace period. Classic 3-epoch EBR; the one twist is that
// participants are explicit handles rather than thread_locals, because a
// "process" here can be either an OS thread (RealPlat) or a simulator fiber
// (SimPlat) — many fibers share one thread.
//
// Safety contract: retire(obj) must be called only after obj is unreachable
// from shared memory. Then any guard that can still hold a reference was
// entered at an epoch <= the epoch observed by retire(); such a guard blocks
// the global epoch below observed+2, so freeing at observed+2 is safe.
//
// Reclamation is not part of the algorithms' step accounting (DESIGN.md
// substitution #2): all internals are raw race::Atomic words, each
// operation naming its ordering contract (check/ordering_contracts.hpp).
//
// Placement (DESIGN.md §4.4, §10). A domain has two parts:
//
//   * the SHARED part — global epoch, participant count and each
//     participant's active/epoch announcement — is what every collector
//     scans. It lives on the heap (in-process tables) or in a ShmArena
//     (create_in, then one attaching accessor per process), where a guard
//     held in one process blocks reclamation in every other;
//   * the RETIRE buckets stay process-local, because a deleter is a
//     function pointer plus a ctx pointer, neither of which survives an
//     address-space boundary. Retire/collect are per-participant and only
//     ever run in the owning process.
//
// The split decides the crash story: a SIGKILLed process's announced guard
// (shared) would pin the epoch forever until a reaper abandon()s it, and
// its pending retirements (local) vanish with its address space — a bounded
// leak, priced into the shm pools' fixed sizing. It also decides teardown:
// only a domain that owns its shared part (the heap case) drains its
// buckets and checks that no guard is held. An attached accessor runs no
// deleter when destroyed, because other processes may still hold guards.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "wfl/check/race.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {

class EbrDomain {
 public:
  using Deleter = void (*)(void* ctx, std::uint32_t handle);

  // Heap placement: this domain owns its shared part.
  explicit EbrDomain(int max_participants)
      : owned_(std::make_unique<Shared>(max_participants)),
        owned_parts_(std::make_unique<Announce[]>(
            static_cast<std::size_t>(max_participants))),
        sh_(owned_.get()),
        parts_(owned_parts_.get()),
        local_(static_cast<std::size_t>(max_participants)) {}

  // Arena placement: formats a shared part in `arena` and returns its
  // offset. Every process, the creator included, then attaches an accessor
  // with EbrDomain(arena, offset).
  static std::uint64_t create_in(ShmArena& arena, int max_participants) {
    const std::uint64_t off = arena.create<Shared>(max_participants);
    arena.at<Shared>(off)->parts_off = arena.create_array<Announce>(
        static_cast<std::size_t>(max_participants));
    return off;
  }

  // Attaches a process-local accessor (retire buckets only) to a shared
  // part placed by create_in. The arena must outlive the accessor.
  EbrDomain(const ShmArena& arena, std::uint64_t off)
      : sh_(arena.at<Shared>(off)),
        parts_(arena.at<Announce>(sh_->parts_off)),
        local_(sh_->max_participants) {}

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  ~EbrDomain() {
    if (owned_ == nullptr) return;  // attached: peers may still hold guards
    // Owned-domain teardown implies quiescence; drain everything.
    for (std::uint32_t pid = 0; pid < sh_->max_participants; ++pid) {
      WFL_CHECK_MSG(!parts_[pid].active.peek(),
                    "EbrDomain destroyed while a participant holds a guard");
      for (Bucket& b : local_[pid]->buckets) drain(b);
    }
  }

  int register_participant() {
    const int id = sh_->next_participant.fetch_add(
        1, std::memory_order_relaxed, race::Site::kEbrParticipantCount);
    WFL_CHECK_MSG(id < static_cast<int>(sh_->max_participants),
                  "EbrDomain participant capacity exceeded");
    return id;
  }

  // Announce-then-verify, restructured for the guard hot path (every
  // attempt enters and exits once):
  //
  //   * the active announcement is a seq_cst store and the verify load of
  //     the global epoch a seq_cst load, so both sit in the single total
  //     order S of seq_cst operations with the advancers' participant scans
  //     and epoch CASes. The either-or this buys: an advancer whose scan
  //     follows the announcement in S observes it; an advancer whose CAS
  //     precedes the verify load in S is observed by it, and the guard
  //     re-announces at the new epoch (again a seq_cst store, again
  //     verified). Either way a guard announced at epoch e is seen by every
  //     advance attempt from e+1 on, so it blocks the global epoch below
  //     e+2 exactly as before.
  //   * the epoch re-announce is SKIPPED when the global epoch still equals
  //     the participant's previous announcement (the common case between
  //     collects): the stored epoch word is already correct, so only the
  //     active store is needed.
  //
  // While the re-announce loop runs, active is already true with a stale
  // epoch — that conservatively blocks advancement, so the loop settles
  // after at most one more epoch move. The argument does not care which
  // process the announcing thread lives in, and it has no fence: TSan and
  // CheckedPlat's ordering audit both see every operation it uses
  // (DESIGN.md §4.4, §7.3).
  void enter(int pid) {
    Announce& p = part(pid);
    WFL_CHECK_MSG(!p.active.peek(),
                  "EBR enter() while already in a critical region");
    p.active.store(true, std::memory_order_seq_cst, race::Site::kEbrAnnounce);
    std::uint64_t e = sh_->global_epoch.load(std::memory_order_seq_cst,
                                             race::Site::kEbrVerifyLoad);
    const std::uint64_t mine =
        p.epoch.load(std::memory_order_relaxed, race::Site::kEbrEpochSelfLoad);
    if (e == mine) return;
    for (;;) {
      p.epoch.store(e, std::memory_order_seq_cst,
                    race::Site::kEbrEpochAnnounce);
      const std::uint64_t e2 = sh_->global_epoch.load(
          std::memory_order_seq_cst, race::Site::kEbrVerifyLoad);
      if (e2 == e) return;
      e = e2;
    }
  }

  void exit(int pid) {
    Announce& p = part(pid);
    WFL_CHECK(p.active.peek());
    // Release: the guard's critical-section reads are sequenced before this
    // store, and a collector's seq_cst scan that observes false acquires
    // it, so retired objects are freed only after our reads completed.
    p.active.store(false, std::memory_order_release, race::Site::kEbrExit);
  }

  // Crash support: drops `pid`'s guard (if held) on its behalf. ONLY legal
  // when the participant provably takes no further steps — a simulator
  // fiber that a CrashSchedule parked forever, a joined thread, or a
  // process the shm reaper saw die. A guard held by a genuinely running
  // process must never be force-released: the process may still
  // dereference retired objects. Crash harnesses call this before tearing
  // the domain down; it also un-stalls reclamation for any post-crash
  // measurement phase.
  void abandon(int pid) {
    part(pid).active.store(false, std::memory_order_seq_cst,
                           race::Site::kEbrAbandon);
  }

  // Defers `deleter(ctx, handle)` until two epoch advances have passed since
  // the epoch observed here. See the safety contract above.
  void retire(int pid, void* ctx, std::uint32_t handle, Deleter deleter) {
    Local& l = local(pid);
    const std::uint64_t e = sh_->global_epoch.load(
        std::memory_order_seq_cst, race::Site::kEbrRetireEpochLoad);
    Bucket& b = l.buckets[e % kBuckets];
    if (!b.items.empty() && b.epoch != e) {
      // Same slot, older epoch: epochs sharing a slot differ by >= kBuckets,
      // so its contents are already past their grace period.
      WFL_CHECK(b.epoch + 2 <= e);
      drain(b);
    }
    b.epoch = e;
    b.items.push_back(Retired{ctx, handle, deleter});
    ++l.counts.retires;
    if (++l.retire_ops >= kCollectEvery) {
      l.retire_ops = 0;
      collect(pid);
    }
  }

  // Attempts an epoch advance, then frees this participant's safe buckets.
  //
  // The advance scan runs only when the epoch has not moved since this
  // participant's previous collect (its own advance counts as not moved).
  // When someone else advanced in between, a scan now would mostly find
  // the participants that have not yet re-announced since that advance,
  // so the collect only frees. Safety is untouched: an advance still needs
  // every active participant at e. Liveness too: a stalled epoch equals
  // the value recorded here, so the next collect scans it.
  void collect(int pid) {
    Local& l = local(pid);
    ++l.counts.collects;
    std::uint64_t e = sh_->global_epoch.load(
        std::memory_order_seq_cst, race::Site::kEbrCollectEpochLoad);
    const bool scan = e == l.seen_epoch;
    l.counts.scans += scan ? 1 : 0;
    if (scan && all_participants_at(e)) {
      std::uint64_t expected = e;  // racing collectors: one advance per value
      if (sh_->global_epoch.compare_exchange_strong(
              expected, e + 1, std::memory_order_seq_cst,
              race::Site::kEbrEpochAdvanceCas)) {
        ++l.counts.advances;
        e += 1;
      } else {
        e = expected;
      }
    }
    l.seen_epoch = e;
    // A bucket is safe once the epoch is two past its retires; e is a
    // value the global epoch held, and it only grows.
    for (Bucket& b : l.buckets) {
      if (!b.items.empty() && b.epoch + 2 <= e) drain(b);
    }
  }

  std::uint64_t epoch() const { return sh_->global_epoch.peek(); }

  // Retires per participant between collects. Each collect pays for a
  // participant scan and an epoch CAS, and every advance costs each other
  // participant a miss on the epoch word and a re-announce store, so the
  // cadence sets how often that bill comes. A caller that caches freed
  // slots sizes its caches from it (core/lock_table.hpp, DESIGN.md §4.3).
  static constexpr std::uint32_t kCollectEvery = 128;

  // Reclamation work done by participants of this domain, in this process.
  // Plain owner-private counters, outside the step model like the rest of
  // the domain.
  struct Counts {
    std::uint64_t retires = 0;
    std::uint64_t collects = 0;
    std::uint64_t scans = 0;     // collects that scanned the participants
    std::uint64_t advances = 0;  // scans whose epoch CAS succeeded
  };

  // The sum over this process's participants. Quiescent-only diagnostic:
  // each participant's counters are written by its owner alone.
  Counts counts() const {
    Counts c;
    for (const CachePadded<Local>& l : local_) {
      c.retires += l->counts.retires;
      c.collects += l->counts.collects;
      c.scans += l->counts.scans;
      c.advances += l->counts.advances;
    }
    return c;
  }

  class Guard {
   public:
    Guard(EbrDomain& d, int pid) : d_(&d), pid_(pid) { d_->enter(pid_); }
    ~Guard() {
      if (d_ != nullptr) d_->exit(pid_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EbrDomain* d_;
    int pid_;
  };

 private:
  static constexpr int kBuckets = 3;

  // One participant's announcement (shared part). Line-aligned, so the
  // array pads neighbours apart in either placement.
  struct alignas(kCacheLine) Announce {
    race::Atomic<bool> active{false};
    race::Atomic<std::uint64_t> epoch{0};
  };

  struct Shared {
    explicit Shared(int max)
        : max_participants(static_cast<std::uint32_t>(max)) {
      WFL_CHECK(max > 0);
    }
    std::uint32_t max_participants;
    std::uint64_t parts_off = 0;  // arena placement: Announce[max]
    // The globally-hammered epoch word gets its own line so advances don't
    // invalidate the registration counter's line (and vice versa).
    alignas(kCacheLine) race::Atomic<std::uint64_t> global_epoch{0};
    alignas(kCacheLine) race::Atomic<int> next_participant{0};
  };

  struct Retired {
    void* ctx;
    std::uint32_t handle;
    Deleter deleter;
  };

  struct Bucket {
    std::uint64_t epoch = 0;
    std::vector<Retired> items;
  };

  struct Local {
    Bucket buckets[kBuckets];
    std::uint32_t retire_ops = 0;
    std::uint64_t seen_epoch = 0;  // the epoch after the previous collect
    Counts counts;
  };

  static void drain(Bucket& b) {
    for (const Retired& r : b.items) r.deleter(r.ctx, r.handle);
    b.items.clear();
  }

  Announce& part(int pid) {
    WFL_DASSERT(pid >= 0 && pid < static_cast<int>(sh_->max_participants));
    return parts_[pid];
  }
  Local& local(int pid) { return *local_[static_cast<std::size_t>(pid)]; }

  bool all_participants_at(std::uint64_t e) const {
    const int n = sh_->next_participant.load(
        std::memory_order_acquire, race::Site::kEbrParticipantCount);
    for (int i = 0; i < n; ++i) {
      const Announce& p = parts_[i];
      if (!p.active.load(std::memory_order_seq_cst,
                         race::Site::kEbrScanActive)) {
        continue;
      }
      if (p.epoch.load(std::memory_order_seq_cst,
                       race::Site::kEbrScanEpoch) != e) {
        return false;
      }
    }
    return true;
  }

  // Heap placement owns the shared part; an attached accessor leaves these
  // null and points into the arena.
  std::unique_ptr<Shared> owned_;
  std::unique_ptr<Announce[]> owned_parts_;
  Shared* sh_;
  Announce* parts_;
  // Process-local retire buckets, one line-padded entry per pid so one
  // pid's push_back never false-shares with another's.
  std::vector<CachePadded<Local>> local_;
};

}  // namespace wfl
