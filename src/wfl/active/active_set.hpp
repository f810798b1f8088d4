// Algorithm 1: linearizable active set with adaptive step complexity.
//
// A C-slot announcement array; each slot holds an owner item and a handle
// of an immutable *snapshot* — the set of owners of this slot and every
// slot above it. insert() claims the first ownerless slot with one CAS and
// climbs; remove() clears its slot and climbs; climb(i) walks from slot i
// down to slot 0, rebuilding `set[j] = set[j+1] + owner[j]` with a CAS.
// One successful CAS settles a level; only a failed CAS earns a second
// try, and two failures settle it too — the usual double-refresh argument
// (DESIGN.md §2.1). getSet() is one load of slot 0's snapshot handle —
// O(1), as Theorem 5.2 requires; insert/remove are O(set size +
// contention).
//
// The pseudocode's corner case (`announcements[C].set` above the top slot)
// is realized as a permanently-empty sentinel snapshot, which is what makes
// removals at the top slot actually drain: the top slot's snapshot is
// rebuilt from {} + its own owner.
//
// Snapshots are immutable once published; replaced snapshots are retired
// through EBR (readers hold a guard across their use of getSet results).
//
// Placement. Slots name snapshots by pool HANDLE, never by pointer, and
// the sentinel is a reserved handle of the set's SetMem, so the same code
// runs with its slots and its IndexPool on the heap (in-process tables) or
// in a ShmArena shared by several processes (the shm table).
#pragma once

#include <cstdint>
#include <vector>

#include "wfl/fuzz/sites.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// Upper bound on members of one snapshot; also bounds the announcement
// array capacity C. 64 covers every experiment in this repo (κ per lock for
// the known-bounds algorithm, P under DelayMode::kUnknownBounds).
inline constexpr std::uint32_t kMaxSetCap = 64;

template <typename T>
struct SetSnap {
  std::uint32_t count = 0;
  T items[kMaxSetCap];

  bool contains(T x) const {
    for (std::uint32_t i = 0; i < count; ++i) {
      if (items[i] == x) return true;
    }
    return false;
  }
};

// Capacity of the per-process slot caches an in-process lock table fronts
// its pools with (its snapshot caches here, its descriptor caches in
// core/lock_table.hpp). One collect hands back up to a bucket of
// EbrDomain::kCollectEvery retirements at once; four times that keeps the
// burst, and the slots still in use, inside the cache (DESIGN.md §4.3).
inline constexpr std::uint32_t kTableCacheSlots = 512;
static_assert(kTableCacheSlots == 4 * EbrDomain::kCollectEvery,
              "the table's slot caches are sized to the EBR collect cadence");

// Shared memory-management context for all active sets of one lock space:
// the snapshot pool, the EBR domain that reclaims it, and the reserved
// all-empty sentinel snapshot.
template <typename T>
struct SetMem {
  using Snap = SetSnap<T>;
  using Pool = IndexPool<Snap>;
  using Cache = SlotCache<Snap, kTableCacheSlots>;
  // Called when an arena pool (which cannot grow) is empty; returns a slot
  // once reclamation has freed one. It may exit and re-enter the caller's
  // EBR guard, which is why climb() allocates before it reads any handle.
  using Stall = std::uint32_t (*)(void* ctx, int pid);

  // Heap placement: reserves the sentinel from `pool`. Optional
  // per-process snapshot-slot caches, indexed by EBR pid and owned by the
  // lock space: when present, climb() allocates and retires snapshot slots
  // through the calling process's cache, so a steady-state attempt touches
  // no shared freelist line (standalone sets — unit tests, benches — run
  // directly against the pool).
  SetMem(Pool& p, EbrDomain& e, CachePadded<Cache>* c = nullptr)
      : pool(p), ebr(e), empty(reserve_empty(p)), caches(c) {}

  // Arena placement: every attached accessor shares the sentinel reserved
  // once by reserve_empty() when the pool was created.
  SetMem(Pool& p, EbrDomain& e, std::uint32_t empty_snap, Stall st,
         void* st_ctx)
      : pool(p), ebr(e), empty(empty_snap), stall(st), stall_ctx(st_ctx) {}

  static std::uint32_t reserve_empty(Pool& p) {
    const std::uint32_t h = p.alloc();
    p.at(h).count = 0;
    return h;
  }

  Cache* cache(int pid) {
    return caches == nullptr ? nullptr : &*caches[pid];
  }

  std::uint32_t alloc(int pid) {
    if (Cache* c = cache(pid)) return c->alloc();
    if (stall == nullptr) return pool.alloc();
    const std::uint32_t idx = pool.try_alloc();
    return idx != kNullIndex ? idx : stall(stall_ctx, pid);
  }

  // A snapshot that was never published: straight back to the caller.
  void free(std::uint32_t idx, int pid) {
    if (Cache* c = cache(pid)) {
      c->free(idx);
    } else {
      pool.free(idx);
    }
  }

  void retire(std::uint32_t idx, int pid) {
    if (idx == empty) return;  // the sentinel is never reclaimed
    // With caches installed the expired slot comes back to the retiring
    // process's own cache (deleters run on the retiring participant — see
    // EbrDomain::retire/collect — or under quiescent domain teardown).
    if (Cache* c = cache(pid)) {
      ebr.retire(pid, c, idx, &Cache::free_to_cache);
    } else {
      ebr.retire(pid, &pool, idx, &free_snap);
    }
  }

  static void free_snap(void* ctx, std::uint32_t handle) {
    static_cast<Pool*>(ctx)->free(handle);
  }

  Pool& pool;
  EbrDomain& ebr;
  std::uint32_t empty;  // reserved all-empty snapshot: the above-top slot
  CachePadded<Cache>* caches = nullptr;
  Stall stall = nullptr;
  void* stall_ctx = nullptr;
};

template <typename Plat, typename T>
class ActiveSet {
 public:
  using Snap = SetSnap<T>;
  using Mem = SetMem<T>;

  struct Slot {
    typename Plat::template Atomic<T> owner;
    typename Plat::template Atomic<std::uint32_t> set;  // snapshot handle
  };

  // Heap placement: the set owns its slots.
  ActiveSet(std::uint32_t capacity, Mem& mem)
      : ActiveSet(capacity, mem, nullptr) {}

  // Arena placement: `slots` is caller-owned storage for `capacity` slots,
  // formatted once by format() and shared by every attached process.
  ActiveSet(std::uint32_t capacity, Mem& mem, Slot* slots)
      : capacity_(capacity),
        mem_(mem),
        owned_(slots == nullptr ? capacity : 0),
        slots_(slots == nullptr ? owned_.data() : slots) {
    WFL_CHECK(capacity > 0 && capacity <= kMaxSetCap);
    if (slots == nullptr) format(slots_, capacity_, mem_.empty);
  }

  ActiveSet(const ActiveSet&) = delete;
  ActiveSet& operator=(const ActiveSet&) = delete;

  static void format(Slot* slots, std::size_t n, std::uint32_t empty_snap) {
    for (std::size_t i = 0; i < n; ++i) {
      slots[i].owner.init(T{});
      slots[i].set.init(empty_snap);
    }
  }

  std::uint32_t capacity() const { return capacity_; }

  // Claims a slot for `item` and propagates. Returns the slot index (the
  // caller passes it back to remove()). Caller must hold an EBR guard for
  // `ebr_pid`. Aborts if the capacity contract (point contention <= C) is
  // violated beyond any transient amount.
  int insert(T item, int ebr_pid) {
    WFL_DASSERT(item != T{});
    // One pass almost always suffices under the contention contract; a CAS
    // can lose to a racing insert whose owner then frees a slot behind our
    // scan position, hence the bounded retry. The bound keeps wait-freedom
    // structural: exceeding it means the κ contract was violated.
    for (int pass = 0; pass < kMaxInsertPasses; ++pass) {
      for (std::uint32_t i = 0; i < capacity_; ++i) {
        if (slots_[i].owner.load() == T{} && slots_[i].owner.cas(T{}, item)) {
          climb(static_cast<int>(i), ebr_pid, &item);
          return static_cast<int>(i);
        }
      }
    }
    WFL_CHECK_MSG(false,
                  "ActiveSet::insert found no free slot: point contention "
                  "exceeds the configured bound (kappa)");
    return -1;
  }

  // Clears the slot claimed by the previous insert and propagates. The
  // climb re-reads the slot's owner: a cleared slot can be claimed again at
  // once, and a climb that carried down the empty word it stored could
  // overwrite the new owner's settled level (DESIGN.md §2.1).
  void remove(int slot, int ebr_pid) {
    WFL_CHECK(slot >= 0 && slot < static_cast<int>(capacity_));
    const T cleared{};
    slots_[slot].owner.store(cleared);
    // Seeded fault: the climb trusts the word it stored.
    climb(slot, ebr_pid,
          fuzz::fault_on(fuzz::Fault::kStaleRemoveOwner) ? &cleared : nullptr);
  }

  // The current owner of one slot (crash recovery scans these to remove a
  // dead owner whose private slot indices died with it).
  T owner(std::uint32_t slot) { return slots_[slot].owner.load(); }

  // O(1): returns the current slot-0 snapshot. Valid while the caller's EBR
  // guard (entered before this call) remains held.
  const Snap* get_set() { return &mem_.pool.at(slots_[0].set.load()); }

 private:
  static constexpr int kMaxInsertPasses = 8;
  static constexpr std::uint32_t kPoolLowWater = 64;

  // Rebuilds snapshots from slot i down to slot 0: at each level, CAS a
  // fresh snapshot in; retry once only if that CAS failed. `own` is the
  // owner word of slot i when the caller knows it for the whole climb
  // (insert's claimed item: only the claimer clears a claimed slot), and
  // null when it must be loaded.
  //
  // One success settles the level. The snapshot it installs was built from
  // reads made after the level above was settled, so it already holds
  // everything our own climb must carry down. A later successful CAS on
  // the same slot expected this snapshot or a newer one, so its reads were
  // later still and it cannot undo ours (EBR keeps a retired handle from
  // reappearing as an ABA). Two failures mean two rival CASes landed
  // inside our window, and the second of them read the level after our
  // first read began — the classic double-refresh argument.
  void climb(int i, int ebr_pid, const T* own) {
    // Backpressure: when the snapshot pool runs low (e.g. a preempted
    // process is pinning the epoch), try to reclaim before allocating.
    if (mem_.pool.free_count() < kPoolLowWater) {
      mem_.ebr.collect(ebr_pid);
    }
    for (int j = i; j >= 0; --j) {
      for (int k = 0; k < 2; ++k) {
        // Allocate BEFORE reading cur/above: an arena pool's stall
        // may bounce the EBR guard, and no handle read under the old guard
        // may be used after re-entry. Allocation is not a step, so the
        // step sequence is the same either way.
        const std::uint32_t fresh = mem_.alloc(ebr_pid);
        const std::uint32_t cur = slots_[j].set.load();
        const std::uint32_t above = (j + 1 == static_cast<int>(capacity_))
                                        ? mem_.empty
                                        : slots_[j + 1].set.load();
        const T member =
            j == i && own != nullptr ? *own : slots_[j].owner.load();
        build(mem_.pool.at(fresh), mem_.pool.at(above), member);
        if (slots_[j].set.cas(cur, fresh)) {
          mem_.retire(cur, ebr_pid);
          break;
        }
        mem_.free(fresh, ebr_pid);
      }
    }
  }

  void build(Snap& out, const Snap& above, T member) {
    WFL_CHECK(above.count <= kMaxSetCap);
    out.count = 0;
    for (std::uint32_t i = 0; i < above.count; ++i) {
      if (above.items[i] != member) out.items[out.count++] = above.items[i];
    }
    if (member != T{}) {
      WFL_CHECK_MSG(out.count < kMaxSetCap, "set snapshot overflow");
      out.items[out.count++] = member;
    }
  }

  std::uint32_t capacity_;
  Mem& mem_;
  std::vector<Slot> owned_;  // heap placement only
  Slot* slots_;
};

}  // namespace wfl
