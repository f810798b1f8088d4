// Fixed-address object pools: one tagged Treiber freelist, two placements.
//
// The lock algorithm allocates descriptors and immutable set snapshots on
// every attempt. The paper's model treats allocation as primitive, so pool
// operations use raw atomics and are *not* counted as algorithm steps
// (DESIGN.md substitution #2); they are also excluded from the wait-freedom
// accounting, exactly as the paper excludes memory management.
//
// Design constraints:
//   * addresses must never move (helpers hold raw pointers across epochs),
//   * reclamation can stall for as long as any process is preempted inside
//     an EBR guard, so demand is unbounded by any static formula — a heap
//     pool must grow.
// Storage is therefore segmented: a fixed directory of segment pointers,
// readers touching only immutable-once-published segments. The freelist
// head packs (index:32, tag:32) into one 64-bit CAS; the tag increments on
// every pop and push, which removes the Treiber-stack ABA case. Every slot
// carries a membership bit, set while it is on the freelist: a double free
// and a pop of a slot that was not on the list (corruption) are loud
// failures, never UB.
//
// Placement (DESIGN.md §4.3, §10.1). The SHARED part — capacity, freelist
// head, occupancy counters — and the segments (slots, next-links,
// membership bits) live either
//   * on the heap: IndexPool(initial, max) owns them, and grows one segment
//     at a time (under a mutex, published with release stores) up to
//     max_capacity, which is a loud failure (leak or runaway workload); or
//   * in a ShmArena: create_in formats them once at full capacity, and
//     every process, the creator included, attaches an accessor whose
//     process-local segment directory points into its own mapping. Such a
//     pool never grows — growth would need every attached process to agree
//     on a new mapping — so try_alloc/try_alloc_batch report exhaustion
//     (kNullIndex / 0) and the caller applies backpressure
//     (core/shm_table.hpp, DESIGN.md §10.3).
// Which case applies follows from whether the pool owns its storage; the
// freelist, at() and the membership checks are the same code for both.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>

#include "wfl/check/race.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {

inline constexpr std::uint32_t kNullIndex = 0xFFFFFFFFu;

template <typename T>
class IndexPool {
 public:
  // Heap placement: pre-sizes to `initial_capacity`, grows on demand.
  explicit IndexPool(std::uint32_t initial_capacity,
                     std::uint32_t max_capacity = 1u << 22)
      : owned_(std::make_unique<Shared>(max_capacity)), sh_(owned_.get()) {
    WFL_CHECK(initial_capacity > 0 && initial_capacity <= sh_->max_capacity);
    make_directory();
    while (capacity() < initial_capacity) {
      grow(/*force=*/true);  // pre-size: grow even though slots are free
    }
  }

  // Arena placement: formats a pool of `capacity` slots (rounded up to
  // whole segments) in `arena`, all free, lowest index first, and returns
  // its offset for the caller to record.
  static std::uint64_t create_in(ShmArena& arena, std::uint32_t capacity) {
    const std::uint64_t off = arena.create<Shared>(capacity);
    Shared* sh = arena.at<Shared>(off);
    const std::uint32_t segs = sh->max_capacity >> kSegBits;
    sh->segs_off = arena.create_array<Segment>(segs);
    sh->links_off = arena.create_array<Links>(segs);
    sh->capacity.store(sh->max_capacity, std::memory_order_relaxed);
    IndexPool pool(arena, off);
    for (std::uint32_t seg = segs; seg > 0; --seg) pool.link_segment(seg - 1);
    return off;
  }

  // Attaches a process-local accessor to a pool placed by create_in. The
  // arena must outlive the accessor.
  IndexPool(const ShmArena& arena, std::uint64_t off)
      : sh_(arena.at<Shared>(off)) {
    make_directory();
    Segment* segs = arena.at<Segment>(sh_->segs_off);
    Links* links = arena.at<Links>(sh_->links_off);
    for (std::size_t i = 0; i < dir_size(); ++i) {
      segments_[i].store(segs + i, std::memory_order_relaxed);
      links_[i].store(links + i, std::memory_order_relaxed);
    }
  }

  IndexPool(const IndexPool&) = delete;
  IndexPool& operator=(const IndexPool&) = delete;

  ~IndexPool() {
    if (owned_ == nullptr) return;  // attached: the arena owns the storage
    for (std::size_t i = 0; i < dir_size(); ++i) {
      delete segments_[i].load(std::memory_order_relaxed);
      delete links_[i].load(std::memory_order_relaxed);
    }
  }

  std::uint32_t capacity() const {
    return sh_->capacity.load(std::memory_order_acquire);
  }

  std::uint32_t free_count() const {
    return sh_->free_count.load(std::memory_order_relaxed);
  }

  // Number of shared-freelist transactions (successful pops/pushes, single
  // or batched) since construction. Diagnostic: the allocation-locality
  // tests assert this stays flat across a steady-state window, and
  // bench_hotpath reports it per attempt.
  std::uint64_t freelist_ops() const {
    return sh_->freelist_ops.load(std::memory_order_relaxed);
  }

  // Pops up to `want` slots with ONE head CAS by walking the freelist chain
  // and swinging the head past it. A successful CAS proves the (index, tag)
  // pair never changed, and every pop or push bumps the tag, so the chain
  // walked is exactly the chain popped; a failed CAS discards the walk
  // (stale next-pointers read during a lost race are valid-or-null
  // indices, never garbage — see free_batch()). Grows a heap pool when the
  // freelist is empty. Returns the number popped: >= 1, or 0 when the pool
  // cannot grow (an arena pool, or a heap pool at max_capacity) — the
  // backpressure signal.
  std::uint32_t try_alloc_batch(std::uint32_t* out, std::uint32_t want) {
    WFL_DASSERT(want > 0);
    do {
      std::uint64_t head = sh_->head.load(std::memory_order_acquire,
                                          race::Site::kPoolHeadLoad);
      while (index_of(head) != kNullIndex) {
        std::uint32_t got = 0;
        std::uint32_t idx = index_of(head);
        while (got < want && idx != kNullIndex) {
          out[got++] = idx;
          idx = next_slot(idx).load(std::memory_order_relaxed,
                                    race::Site::kPoolNextLoad);
        }
        const std::uint64_t desired = pack(idx, tag_of(head) + 1);
        if (sh_->head.compare_exchange_weak(head, desired,
                                            std::memory_order_acq_rel,
                                            race::Site::kPoolHeadCas)) {
          for (std::uint32_t i = 0; i < got; ++i) {
            WFL_CHECK_MSG(
                member(out[i]).exchange(0, std::memory_order_relaxed) == 1,
                "IndexPool popped a slot that was not on the freelist");
          }
          sh_->free_count.fetch_sub(got, std::memory_order_relaxed);
          sh_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
          return got;
        }
      }
    } while (grow());
    return 0;
  }

  std::uint32_t try_alloc() {
    std::uint32_t idx = kNullIndex;
    return try_alloc_batch(&idx, 1) == 1 ? idx : kNullIndex;
  }

  // Must-succeed variants: exhaustion aborts (a leak, not a transient
  // condition, for every caller that cannot apply backpressure).
  std::uint32_t alloc_batch(std::uint32_t* out, std::uint32_t want) {
    const std::uint32_t got = try_alloc_batch(out, want);
    WFL_CHECK_MSG(got > 0,
                  "IndexPool exhausted at max_capacity: leak, runaway "
                  "demand, or crash leakage in an arena pool");
    return got;
  }

  std::uint32_t alloc() {
    std::uint32_t idx = kNullIndex;
    alloc_batch(&idx, 1);
    return idx;
  }

  // Pushes `n` slots with ONE head CAS: links them into a private chain,
  // then splices the chain onto the head.
  void free_batch(const std::uint32_t* idxs, std::uint32_t n) {
    if (n == 0) return;
    for (std::uint32_t i = 0; i < n; ++i) {
      WFL_DASSERT(idxs[i] < capacity());
      WFL_CHECK_MSG(
          member(idxs[i]).exchange(1, std::memory_order_relaxed) == 0,
          "IndexPool double free");
    }
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      next_slot(idxs[i]).store(idxs[i + 1], std::memory_order_relaxed,
                               race::Site::kPoolNextStore);
    }
    std::uint64_t head = sh_->head.load(std::memory_order_acquire,
                                        race::Site::kPoolHeadLoad);
    for (;;) {
      next_slot(idxs[n - 1]).store(index_of(head), std::memory_order_relaxed,
                                   race::Site::kPoolNextStore);
      const std::uint64_t desired = pack(idxs[0], tag_of(head) + 1);
      if (sh_->head.compare_exchange_weak(head, desired,
                                          std::memory_order_acq_rel,
                                          race::Site::kPoolHeadCas)) {
        sh_->free_count.fetch_add(n, std::memory_order_relaxed);
        sh_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  void free(std::uint32_t idx) { free_batch(&idx, 1); }

  T& at(std::uint32_t idx) {
    WFL_DASSERT(idx < capacity());
    Segment* seg = segments_[idx >> kSegBits].load(std::memory_order_acquire);
    WFL_DASSERT(seg != nullptr);
    return seg->items[idx & kSegMask];
  }
  const T& at(std::uint32_t idx) const {
    return const_cast<IndexPool*>(this)->at(idx);
  }

  T* ptr(std::uint32_t idx) { return &at(idx); }

 private:
  static constexpr std::uint32_t kSegBits = 8;
  static constexpr std::uint32_t kSegSize = 1u << kSegBits;
  static constexpr std::uint32_t kSegMask = kSegSize - 1;

  struct Segment {
    T items[kSegSize];
  };
  struct Links {
    race::Atomic<std::uint32_t> next[kSegSize];
    // 1 while the slot is on the freelist. A corruption check only: RMW
    // atomicity alone makes its verdict exact, so it is relaxed and
    // outside the ordering contracts.
    std::atomic<std::uint8_t> member[kSegSize] = {};
  };

  // Read-mostly words (geometry, capacity) share a line; the two words
  // every pool transaction hammers — the CAS'd head and the relaxed
  // occupancy counters — each get a line of their own so head CAS traffic
  // does not invalidate the counters' line and vice versa.
  struct Shared {
    explicit Shared(std::uint32_t max) : max_capacity(round_up(max)) {
      WFL_CHECK(max > 0 && max <= (kNullIndex & ~kSegMask));
    }
    std::uint32_t max_capacity;
    std::uint64_t segs_off = 0;   // arena placement: Segment[max / kSegSize]
    std::uint64_t links_off = 0;  // arena placement: Links[max / kSegSize]
    std::atomic<std::uint32_t> capacity{0};
    alignas(kCacheLine) race::Atomic<std::uint64_t> head{pack(kNullIndex, 0)};
    alignas(kCacheLine) std::atomic<std::uint32_t> free_count{0};
    std::atomic<std::uint64_t> freelist_ops{0};
  };

  static constexpr std::uint32_t round_up(std::uint32_t v) {
    return (v + kSegMask) & ~kSegMask;
  }
  static constexpr std::uint64_t pack(std::uint32_t idx, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | idx;
  }
  static std::uint32_t index_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  }
  static std::uint32_t tag_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }

  std::size_t dir_size() const { return sh_->max_capacity >> kSegBits; }

  void make_directory() {
    segments_ = std::make_unique<std::atomic<Segment*>[]>(dir_size());
    links_ = std::make_unique<std::atomic<Links*>[]>(dir_size());
  }

  Links& links(std::uint32_t idx) {
    return *links_[idx >> kSegBits].load(std::memory_order_acquire);
  }
  race::Atomic<std::uint32_t>& next_slot(std::uint32_t idx) {
    return links(idx).next[idx & kSegMask];
  }
  std::atomic<std::uint8_t>& member(std::uint32_t idx) {
    return links(idx).member[idx & kSegMask];
  }

  // Pushes segment `seg`'s slots onto the freelist top-down, so the lowest
  // index pops first: applications use pool indices as lock ids ("node i
  // is protected by lock i") and size their lock spaces by the indices
  // they expect to see.
  void link_segment(std::uint32_t seg) {
    const std::uint32_t base = seg << kSegBits;
    for (std::uint32_t i = kSegSize; i > 0; --i) free(base + i - 1);
  }

  // Heap slow path: appends one segment and links its slots. Returns false
  // when the pool cannot grow: an arena pool, or a heap pool at
  // max_capacity. `force` skips the refill re-check — used only by the
  // constructor's pre-sizing loop, where free slots must not stop growth.
  bool grow(bool force = false) {
    if (owned_ == nullptr) return false;
    std::lock_guard<std::mutex> lock(grow_mutex_);
    // Re-check under the lock: a concurrent grower may have refilled.
    if (!force && sh_->free_count.load(std::memory_order_relaxed) > 0) {
      return true;
    }
    const std::uint32_t cap = sh_->capacity.load(std::memory_order_relaxed);
    if (cap == sh_->max_capacity) return false;
    const std::uint32_t seg = cap >> kSegBits;
    segments_[seg].store(std::make_unique<Segment>().release(),
                         std::memory_order_release);
    links_[seg].store(std::make_unique<Links>().release(),
                      std::memory_order_release);
    sh_->capacity.store(cap + kSegSize, std::memory_order_release);
    link_segment(seg);
    return true;
  }

  std::unique_ptr<Shared> owned_;  // heap placement only
  Shared* sh_;
  // Process-local segment directory: heap segments, or this process's
  // view of the arena's.
  std::unique_ptr<std::atomic<Segment*>[]> segments_;
  std::unique_ptr<std::atomic<Links*>[]> links_;
  std::mutex grow_mutex_;
};

// An owner-private LIFO of pool slots fronting a shared IndexPool.
// alloc() pops the cache and refills a batch (one head CAS) only when
// empty; free() pushes and spills the *coldest* batch (one head CAS) only
// when full — so a steady-state balanced alloc/free stream touches no
// shared freelist line at all. Frees arrive in bursts of whatever one EBR
// collect drains, so a cache too small for that burst spills it and
// refills it again: LockTable sizes its caches from
// EbrDomain::kCollectEvery (kTableCacheSlots). Single-owner by
// construction: the owning process allocates from it, and EBR deleters
// push into it only when run by that same process (retire/collect are
// per-participant) or during quiescent domain teardown. Like the pool
// itself, caches are outside the step model (DESIGN.md substitution #2).
// The cache always lives in the owner's private memory, whichever
// placement its pool has — only the slot indices it traffics in are
// meaningful across processes.
template <typename T, std::uint32_t Cap = 64>
class SlotCache {
  static_assert(Cap >= 8 && (Cap % 4) == 0);

 public:
  static constexpr std::uint32_t kBatch = Cap / 4;

  void bind(IndexPool<T>* pool) { pool_ = pool; }
  IndexPool<T>& pool() { return *pool_; }

  std::uint32_t alloc() {
    // Single-owner plain region: every access must be ordered against every
    // other (the owner's program order, or EBR's deleter-runs-on-owner).
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    if (n_ == 0) n_ = pool_->alloc_batch(slots_, kBatch);
    return slots_[--n_];
  }

  // Backpressure-aware variant: kNullIndex when the cache is empty and the
  // shared pool has nothing to refill from and cannot grow.
  std::uint32_t try_alloc() {
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    if (n_ == 0) n_ = pool_->try_alloc_batch(slots_, kBatch);
    if (n_ == 0) return kNullIndex;
    return slots_[--n_];
  }

  void free(std::uint32_t idx) {
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    if (n_ == Cap) {
      pool_->free_batch(slots_, kBatch);  // spill the cold (bottom) end
      std::memmove(slots_, slots_ + kBatch,
                   (Cap - kBatch) * sizeof(std::uint32_t));
      n_ -= kBatch;
    }
    slots_[n_++] = idx;
  }

  // Returns every cached slot to the shared pool (session release, crash
  // cleanup — the allocation-locality tests assert nothing is leaked).
  void drain() {
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    pool_->free_batch(slots_, n_);
    n_ = 0;
  }

  std::uint32_t size() const { return n_; }

  // EbrDomain deleter that returns `handle` to the cache's spill side; ctx
  // is the retiring process's own SlotCache.
  static void free_to_cache(void* ctx, std::uint32_t handle) {
    static_cast<SlotCache*>(ctx)->free(handle);
  }

 private:
  IndexPool<T>* pool_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint32_t slots_[Cap];
};

}  // namespace wfl
