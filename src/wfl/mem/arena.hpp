// Growable fixed-address object pools.
//
// The lock algorithm allocates descriptors and immutable set snapshots on
// every attempt. The paper's model treats allocation as primitive, so pool
// operations use raw std::atomic and are *not* counted as algorithm steps
// (DESIGN.md substitution #2); they are also excluded from the wait-freedom
// accounting, exactly as the paper excludes memory management.
//
// Design constraints:
//   * addresses must never move (helpers hold raw pointers across epochs),
//   * reclamation can stall for as long as any process is preempted inside
//     an EBR guard, so demand is unbounded by any static formula — the pool
//     must grow.
// Storage is therefore segmented: a fixed directory of segment pointers,
// segments allocated lazily under a mutex (rare slow path) and published
// with release stores; readers touch only immutable-once-published state.
// The freelist head packs (index:32, tag:32) into one 64-bit CAS; the tag
// increments on every pop, which removes the Treiber-stack ABA case.
// Exceeding max_capacity is a loud failure (leak or runaway workload),
// never UB.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "wfl/check/race.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {

inline constexpr std::uint32_t kNullIndex = 0xFFFFFFFFu;

template <typename T>
class IndexPool {
 public:
  explicit IndexPool(std::uint32_t initial_capacity,
                     std::uint32_t max_capacity = 1u << 22)
      : max_capacity_(round_up(max_capacity)) {
    WFL_CHECK(initial_capacity > 0 && initial_capacity <= max_capacity_);
    const std::size_t dir = max_capacity_ >> kSegBits;
    segments_ = std::make_unique<std::atomic<Segment*>[]>(dir);
    next_dir_ = std::make_unique<std::atomic<NextSeg*>[]>(dir);
    for (std::size_t i = 0; i < dir; ++i) {
      segments_[i].store(nullptr, std::memory_order_relaxed);
      next_dir_[i].store(nullptr, std::memory_order_relaxed);
    }
    head_.store(pack(kNullIndex, 0), std::memory_order_relaxed);
    while (capacity_.load(std::memory_order_relaxed) < initial_capacity) {
      grow(/*force=*/true);  // pre-size: grow even though slots are free
    }
  }

  IndexPool(const IndexPool&) = delete;
  IndexPool& operator=(const IndexPool&) = delete;

  ~IndexPool() {
    const std::size_t dir = max_capacity_ >> kSegBits;
    for (std::size_t i = 0; i < dir; ++i) {
      delete segments_[i].load(std::memory_order_relaxed);
      delete next_dir_[i].load(std::memory_order_relaxed);
    }
  }

  std::uint32_t capacity() const {
    return capacity_.load(std::memory_order_acquire);
  }

  std::uint32_t free_count() const {
    return free_count_.load(std::memory_order_relaxed);
  }

  // Number of shared-freelist transactions (successful pops/pushes, single
  // or batched) since construction. Diagnostic: the allocation-locality
  // tests assert this stays flat across a steady-state window, and
  // bench_hotpath reports it per attempt.
  std::uint64_t freelist_ops() const {
    return freelist_ops_.load(std::memory_order_relaxed);
  }

  // Pops a slot, growing if the freelist is empty. Aborts only at
  // max_capacity (a leak, not a transient condition).
  std::uint32_t alloc() {
    for (;;) {
      std::uint64_t head = head_.load(std::memory_order_acquire);
      WFL_CHK_ATOMIC(&head_, kLoad, acquire, kPoolHeadLoad, head);
      while (index_of(head) != kNullIndex) {
        const std::uint32_t idx = index_of(head);
        const std::uint32_t next =
            next_slot(idx).load(std::memory_order_relaxed);
        WFL_CHK_ATOMIC(&next_slot(idx), kLoad, relaxed, kPoolNextLoad, next);
        const std::uint64_t desired = pack(next, tag_of(head) + 1);
        if (head_.compare_exchange_weak(head, desired,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          WFL_CHK_ATOMIC(&head_, kCasOk, acq_rel, kPoolHeadCas, desired);
          free_count_.fetch_sub(1, std::memory_order_relaxed);
          freelist_ops_.fetch_add(1, std::memory_order_relaxed);
          return idx;
        }
        WFL_CHK_ATOMIC(&head_, kCasFail, acquire, kPoolHeadCas, head);
      }
      grow();
    }
  }

  // Pops up to `want` slots with ONE head CAS by walking the freelist chain
  // and swinging the head past it. A successful CAS proves the (index, tag)
  // pair never changed, and every pop or push bumps the tag, so the chain
  // walked is exactly the chain popped; a failed CAS discards the walk
  // (stale next-pointers read during a lost race are valid-or-null indices,
  // never garbage — see free()). Returns the number popped (>= 1).
  std::uint32_t alloc_batch(std::uint32_t* out, std::uint32_t want) {
    WFL_DASSERT(want > 0);
    for (;;) {
      std::uint64_t head = head_.load(std::memory_order_acquire);
      WFL_CHK_ATOMIC(&head_, kLoad, acquire, kPoolHeadLoad, head);
      while (index_of(head) != kNullIndex) {
        std::uint32_t got = 0;
        std::uint32_t idx = index_of(head);
        while (got < want && idx != kNullIndex) {
          out[got++] = idx;
          const std::uint32_t nxt =
              next_slot(idx).load(std::memory_order_relaxed);
          WFL_CHK_ATOMIC(&next_slot(idx), kLoad, relaxed, kPoolNextLoad, nxt);
          idx = nxt;
        }
        const std::uint64_t desired = pack(idx, tag_of(head) + 1);
        if (head_.compare_exchange_weak(head, desired,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          WFL_CHK_ATOMIC(&head_, kCasOk, acq_rel, kPoolHeadCas, desired);
          free_count_.fetch_sub(got, std::memory_order_relaxed);
          freelist_ops_.fetch_add(1, std::memory_order_relaxed);
          return got;
        }
        WFL_CHK_ATOMIC(&head_, kCasFail, acquire, kPoolHeadCas, head);
      }
      grow();
    }
  }

  void free(std::uint32_t idx) {
    WFL_DASSERT(idx < capacity());
    std::uint64_t head = head_.load(std::memory_order_acquire);
    WFL_CHK_ATOMIC(&head_, kLoad, acquire, kPoolHeadLoad, head);
    for (;;) {
      next_slot(idx).store(index_of(head), std::memory_order_relaxed);
      WFL_CHK_ATOMIC(&next_slot(idx), kStore, relaxed, kPoolNextStore,
                     index_of(head));
      const std::uint64_t desired = pack(idx, tag_of(head) + 1);
      if (head_.compare_exchange_weak(head, desired,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        WFL_CHK_ATOMIC(&head_, kCasOk, acq_rel, kPoolHeadCas, desired);
        free_count_.fetch_add(1, std::memory_order_relaxed);
        freelist_ops_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      WFL_CHK_ATOMIC(&head_, kCasFail, acquire, kPoolHeadCas, head);
    }
  }

  // Pushes `n` slots with ONE head CAS: links them into a private chain,
  // then splices the chain onto the head.
  void free_batch(const std::uint32_t* idxs, std::uint32_t n) {
    if (n == 0) return;
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      WFL_DASSERT(idxs[i] < capacity());
      next_slot(idxs[i]).store(idxs[i + 1], std::memory_order_relaxed);
      WFL_CHK_ATOMIC(&next_slot(idxs[i]), kStore, relaxed, kPoolNextStore,
                     idxs[i + 1]);
    }
    std::uint64_t head = head_.load(std::memory_order_acquire);
    WFL_CHK_ATOMIC(&head_, kLoad, acquire, kPoolHeadLoad, head);
    for (;;) {
      next_slot(idxs[n - 1]).store(index_of(head), std::memory_order_relaxed);
      WFL_CHK_ATOMIC(&next_slot(idxs[n - 1]), kStore, relaxed, kPoolNextStore,
                     index_of(head));
      const std::uint64_t desired = pack(idxs[0], tag_of(head) + 1);
      if (head_.compare_exchange_weak(head, desired,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        WFL_CHK_ATOMIC(&head_, kCasOk, acq_rel, kPoolHeadCas, desired);
        free_count_.fetch_add(n, std::memory_order_relaxed);
        freelist_ops_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      WFL_CHK_ATOMIC(&head_, kCasFail, acquire, kPoolHeadCas, head);
    }
  }

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
  struct NextSeg {
    std::atomic<std::uint32_t> next[kSegSize];
  };

  static std::uint32_t round_up(std::uint32_t v) {
    return (v + kSegMask) & ~kSegMask;
  }
  static std::uint64_t pack(std::uint32_t idx, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | idx;
  }
  static std::uint32_t index_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  }
  static std::uint32_t tag_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }

  std::atomic<std::uint32_t>& next_slot(std::uint32_t idx) {
    NextSeg* seg = next_dir_[idx >> kSegBits].load(std::memory_order_acquire);
    return seg->next[idx & kSegMask];
  }

  // Slow path: appends one segment and pushes its slots onto the freelist.
  // `force` skips the refill re-check — used only by the constructor's
  // pre-sizing loop, where free slots must not stop capacity growth.
  void grow(bool force = false) {
    std::lock_guard<std::mutex> lock(grow_mutex_);
    // Re-check under the lock: a concurrent grower may have refilled.
    if (!force && free_count_.load(std::memory_order_relaxed) > 0) return;
    const std::uint32_t cap = capacity_.load(std::memory_order_relaxed);
    WFL_CHECK_MSG(cap < max_capacity_,
                  "IndexPool reached max_capacity: leak or runaway demand");
    const std::uint32_t seg_idx = cap >> kSegBits;
    auto seg = std::make_unique<Segment>();
    auto nxt = std::make_unique<NextSeg>();
    for (std::uint32_t i = 0; i < kSegSize; ++i) {
      nxt->next[i].store(kNullIndex, std::memory_order_relaxed);
    }
    segments_[seg_idx].store(seg.release(), std::memory_order_release);
    next_dir_[seg_idx].store(nxt.release(), std::memory_order_release);
    capacity_.store(cap + kSegSize, std::memory_order_release);
    // Push top-down so the *lowest* new index pops first: applications use
    // pool indices as lock ids ("node i is protected by lock i") and size
    // their lock spaces by the indices they expect to see.
    for (std::uint32_t i = kSegSize; i > 0; --i) {
      free(cap + i - 1);
    }
  }

  // Read-mostly state (directories, capacity) shares lines; the two words
  // every pool transaction hammers — the CAS'd head and the relaxed
  // occupancy counters — each get a line of their own so head CAS traffic
  // does not invalidate the counters' line and vice versa.
  std::uint32_t max_capacity_;
  std::unique_ptr<std::atomic<Segment*>[]> segments_;
  std::unique_ptr<std::atomic<NextSeg*>[]> next_dir_;
  std::atomic<std::uint32_t> capacity_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::atomic<std::uint32_t> free_count_{0};
  std::atomic<std::uint64_t> freelist_ops_{0};
  std::mutex grow_mutex_;
};

// --- Shared-memory pool (offset-addressed mode) ---------------------------
//
// The cross-process table (core/shm_table.hpp, DESIGN.md §10) needs pools
// whose *state* lives in a ShmArena and whose slots are meaningful in every
// attached address space. IndexPool already trades in indices; what stops
// it crossing a process boundary is the heap-allocated segment directory
// (raw Segment* pointers) and the ability to grow. ShmPool is the
// pointer-free variant: capacity is fixed at create time, storage and
// next-links are flat arrays carved from the arena and referenced by byte
// offset, and each process holds a tiny local accessor with the offsets
// resolved against its own mapping. The freelist discipline — packed
// (index:32, tag:32) head, one CAS per single or batched transaction, tag
// bump on every pop killing the Treiber ABA case — is IndexPool's verbatim.
//
// Exhaustion is a loud failure, not a grow: growth would need cross-process
// agreement on new mappings, and the shm table's demand is bounded by
// (max_procs × pool sizing) plus crash leakage, both sized up front.
struct ShmPoolState {
  std::uint32_t capacity;
  std::uint32_t pad_;
  std::uint64_t next_off;    // std::atomic<uint32>[capacity]
  std::uint64_t items_off;   // T[capacity]
  std::uint64_t inlist_off;  // std::atomic<uint8>[capacity] membership bits
  alignas(kCacheLine) std::atomic<std::uint64_t> head;
  alignas(kCacheLine) std::atomic<std::uint32_t> free_count;
  std::atomic<std::uint64_t> freelist_ops;
};

template <typename T>
class ShmPool {
 public:
  // Creator side: carves state + arrays from the arena, default-constructs
  // every item, links the freelist bottom-up (index 0 pops first). Returns
  // the state's offset for the table header to record.
  static std::uint64_t create_in(ShmArena& a, std::uint32_t capacity) {
    WFL_CHECK(capacity > 0 && capacity < kNullIndex);
    const std::uint64_t state_off = a.create<ShmPoolState>();
    ShmPoolState* st = a.at<ShmPoolState>(state_off);
    st->capacity = capacity;
    st->next_off = a.create_array<std::atomic<std::uint32_t>>(capacity);
    st->items_off = a.alloc_bytes(sizeof(T) * capacity, alignof(T));
    st->inlist_off = a.create_array<std::atomic<std::uint8_t>>(capacity);
    T* items = a.at<T>(st->items_off);
    for (std::uint32_t i = 0; i < capacity; ++i) new (items + i) T();
    auto* next = a.at<std::atomic<std::uint32_t>>(st->next_off);
    auto* inlist = a.at<std::atomic<std::uint8_t>>(st->inlist_off);
    for (std::uint32_t i = 0; i < capacity; ++i) {
      next[i].store(i + 1 < capacity ? i + 1 : kNullIndex,
                    std::memory_order_relaxed);
      inlist[i].store(1, std::memory_order_relaxed);
    }
    st->head.store(pack(0, 0), std::memory_order_relaxed);
    st->free_count.store(capacity, std::memory_order_relaxed);
    st->freelist_ops.store(0, std::memory_order_relaxed);
    return state_off;
  }

  ShmPool() = default;

  // Any process (creator included) resolves the offsets against its own
  // mapping. Attach is idempotent and side-effect free.
  void attach(const ShmArena& a, std::uint64_t state_off) {
    st_ = a.at<ShmPoolState>(state_off);
    next_ = a.at<std::atomic<std::uint32_t>>(st_->next_off);
    items_ = a.at<T>(st_->items_off);
    inlist_ = a.at<std::atomic<std::uint8_t>>(st_->inlist_off);
  }

  bool attached() const { return st_ != nullptr; }
  std::uint32_t capacity() const { return st_->capacity; }
  std::uint32_t free_count() const {
    return st_->free_count.load(std::memory_order_relaxed);
  }
  std::uint64_t freelist_ops() const {
    return st_->freelist_ops.load(std::memory_order_relaxed);
  }

  // Pop one slot, or kNullIndex when the freelist is empty. Callers that
  // can apply backpressure (wait for reclamation to catch up) use this;
  // alloc() below is the must-succeed wrapper.
  std::uint32_t try_alloc() {
    std::uint64_t head = st_->head.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t idx = index_of(head);
      if (idx == kNullIndex) return kNullIndex;
      const std::uint32_t next = next_[idx].load(std::memory_order_relaxed);
      if (st_->head.compare_exchange_weak(head, pack(next, tag_of(head) + 1),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        WFL_CHECK_MSG(
            inlist_[idx].exchange(0, std::memory_order_acq_rel) == 1,
            "ShmPool alloc popped a node not on the freelist (corruption)");
        st_->free_count.fetch_sub(1, std::memory_order_relaxed);
        st_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
        return idx;
      }
    }
  }

  std::uint32_t alloc() {
    const std::uint32_t idx = try_alloc();
    WFL_CHECK_MSG(idx != kNullIndex,
                  "ShmPool exhausted: undersized or crash leakage");
    return idx;
  }

  // Batch pop of up to `want` slots; returns how many were taken (0 when
  // the freelist is empty — the backpressure signal).
  std::uint32_t try_alloc_batch(std::uint32_t* out, std::uint32_t want) {
    WFL_DASSERT(want > 0);
    std::uint64_t head = st_->head.load(std::memory_order_acquire);
    for (;;) {
      if (index_of(head) == kNullIndex) return 0;
      std::uint32_t got = 0;
      std::uint32_t idx = index_of(head);
      while (got < want && idx != kNullIndex) {
        out[got++] = idx;
        idx = next_[idx].load(std::memory_order_relaxed);
      }
      if (st_->head.compare_exchange_weak(head, pack(idx, tag_of(head) + 1),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        for (std::uint32_t i = 0; i < got; ++i) {
          WFL_CHECK_MSG(
              inlist_[out[i]].exchange(0, std::memory_order_acq_rel) == 1,
              "ShmPool alloc popped a node not on the freelist (corruption)");
        }
        st_->free_count.fetch_sub(got, std::memory_order_relaxed);
        st_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
        return got;
      }
    }
  }

  std::uint32_t alloc_batch(std::uint32_t* out, std::uint32_t want) {
    const std::uint32_t got = try_alloc_batch(out, want);
    WFL_CHECK_MSG(got > 0,
                  "ShmPool exhausted: undersized or crash leakage");
    return got;
  }

  void free(std::uint32_t idx) {
    WFL_DASSERT(idx < st_->capacity);
    WFL_CHECK_MSG(inlist_[idx].exchange(1, std::memory_order_acq_rel) == 0,
                  "ShmPool double free");
    std::uint64_t head = st_->head.load(std::memory_order_acquire);
    for (;;) {
      next_[idx].store(index_of(head), std::memory_order_relaxed);
      if (st_->head.compare_exchange_weak(head, pack(idx, tag_of(head) + 1),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        st_->free_count.fetch_add(1, std::memory_order_relaxed);
        st_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  void free_batch(const std::uint32_t* idxs, std::uint32_t n) {
    if (n == 0) return;
    for (std::uint32_t i = 0; i < n; ++i) {
      WFL_DASSERT(idxs[i] < st_->capacity);
      WFL_CHECK_MSG(
          inlist_[idxs[i]].exchange(1, std::memory_order_acq_rel) == 0,
          "ShmPool double free");
    }
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      next_[idxs[i]].store(idxs[i + 1], std::memory_order_relaxed);
    }
    std::uint64_t head = st_->head.load(std::memory_order_acquire);
    for (;;) {
      next_[idxs[n - 1]].store(index_of(head), std::memory_order_relaxed);
      if (st_->head.compare_exchange_weak(head,
                                          pack(idxs[0], tag_of(head) + 1),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        st_->free_count.fetch_add(n, std::memory_order_relaxed);
        st_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  T& at(std::uint32_t idx) {
    WFL_DASSERT(idx < st_->capacity);
    return items_[idx];
  }
  const T& at(std::uint32_t idx) const {
    WFL_DASSERT(idx < st_->capacity);
    return items_[idx];
  }
  T* ptr(std::uint32_t idx) { return &at(idx); }

 private:
  static std::uint64_t pack(std::uint32_t idx, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | idx;
  }
  static std::uint32_t index_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  }
  static std::uint32_t tag_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }

  ShmPoolState* st_ = nullptr;               // shared, in the arena
  std::atomic<std::uint32_t>* next_ = nullptr;  // shared, resolved locally
  T* items_ = nullptr;                       // shared, resolved locally
  std::atomic<std::uint8_t>* inlist_ = nullptr;  // freelist membership bits
};

// A small owner-private LIFO of pool slots fronting a shared IndexPool.
// alloc() pops the cache and refills a batch (one head CAS) only when
// empty; free() pushes and spills the *coldest* batch (one head CAS) only
// when full — so a steady-state balanced alloc/free stream touches no
// shared freelist line at all. Single-owner by construction: the owning
// process allocates from it, and EBR deleters push into it only when run
// by that same process (retire/collect are per-participant) or during
// quiescent domain teardown. Like the pool itself, caches are outside the
// step model (DESIGN.md substitution #2).
//
// PoolT is any pool with IndexPool's alloc_batch/free_batch surface; the
// shm table binds SlotCache<T, Cap, ShmPool<T>> so the batching layer is
// shared between the in-process and cross-process runtimes. The cache
// itself always lives in the owner's private memory — only the slot
// indices it traffics in are meaningful across processes.
template <typename T, std::uint32_t Cap = 64, typename PoolT = IndexPool<T>>
class SlotCache {
  static_assert(Cap >= 8 && (Cap % 4) == 0);

 public:
  static constexpr std::uint32_t kBatch = Cap / 4;

  void bind(PoolT* pool) { pool_ = pool; }
  PoolT& pool() { return *pool_; }

  std::uint32_t alloc() {
    // Single-owner plain region: every access must be ordered against every
    // other (the owner's program order, or EBR's deleter-runs-on-owner).
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    if (n_ == 0) n_ = pool_->alloc_batch(slots_, kBatch);
    return slots_[--n_];
  }

  // Backpressure-aware variant: kNullIndex when the cache is empty and the
  // shared pool has nothing to refill from (instantiated only against pools
  // with a try_alloc_batch, i.e. ShmPool).
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
  PoolT* pool_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint32_t slots_[Cap];
};

}  // namespace wfl
