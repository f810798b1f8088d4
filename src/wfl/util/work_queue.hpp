// Lock-free scheduler plumbing: a Chase–Lev work-stealing deque and an
// MPSC injector stack (the run-queue core of core/async_executor.hpp).
//
// Both structures are executor infrastructure — raw race::Atomic words
// outside the paper's step model, like the rest of the async plumbing
// (DESIGN.md substitution #2) — and every operation names its Site in
// check/ordering_contracts.hpp so CheckedPlat's ordering audit covers them
// (the contracts quote the soundness arguments; the long-form versions
// live in DESIGN.md §8).
//
// ChaseLevDeque<T*> (Chase & Lev 2005, memory orders per Lê et al. 2013,
// "Correct and Efficient Work-Stealing for Weak Memory Models"):
//
//   * ONE owner thread may push()/take() at the bottom; any thread may
//     steal() at the top. The owner's path is CAS-free except when it
//     races a thief for the last element.
//   * The ring is a power-of-two circular buffer indexed by untruncated
//     64-bit top/bottom counters. push() grows the ring when full, so an
//     in-range index can never alias a concurrent wrap; retired rings are
//     kept until destruction (total memory < 2x the final ring) so a
//     thief holding a stale ring pointer still dereferences valid — if
//     superseded — slots, and the top CAS discards its stale read.
//   * take() reserves bottom-1 with a seq_cst store, then reads top
//     seq_cst; steal() reads top seq_cst, then bottom seq_cst. The four
//     operations are a Dekker over the total order S of seq_cst
//     operations: at most one side can miss the other's write, so owner
//     and thief can both believe the deque non-empty only when it holds
//     >= 2 elements — and the single-element race is settled by the
//     seq_cst CAS on top. There is no fence, so TSan sees the protocol.
//
// MpscInjector<T> (intrusive Treiber stack + single-consumer FIFO cache):
//
//   * push() is multi-producer and lock-free: write the node's q_next,
//     CAS the head. ABA-immune because push never dereferences the head
//     it observed — a stale head value just loses the CAS.
//   * pop() is SINGLE-consumer by external discipline (the executor's
//     inline mode guards it with a claim-or-skip latch). It exchanges
//     the whole batch out with exchange(nullptr) and reverses it into a
//     private FIFO cache — the consumer never CASes a head it read, so
//     there is no pop-side ABA window at all (the classic Treiber pop bug
//     this shape deletes).
//   * drain_all() is the MULTI-consumer take: any thread may exchange the
//     shared head out and receives the raw chain, newest first. The
//     executor's workers take external dispatch this way, each reversing
//     its own chain. Concurrent drains, and a drain racing pop()'s batch
//     take, obtain disjoint chains — the exchange is atomic and never
//     dereferences — and pop()'s private cache is untouched.
//   * push's CAS and the pre-sleep empty() probe are seq_cst: each is
//     one access of the executor's sleep Dekker
//     (push-then-check-worker-states vs. set-idle-then-probe-injector).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "wfl/check/race.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

template <typename T>
class ChaseLevDeque {
  static_assert(std::is_pointer_v<T>,
                "ChaseLevDeque stores pointers (slots are atomic words; "
                "a discarded stale read must be harmless)");

 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : ring_(new Ring(round_up_pow2(initial_capacity))) {}

  // Destruction requires quiescence (no concurrent owner or thieves) —
  // the executor joins its workers first.
  ~ChaseLevDeque() {
    Ring* r = ring_.peek();
    while (r != nullptr) {
      Ring* prev = r->prev;
      delete r;
      r = prev;
    }
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  // Owner only. Never fails; grows the ring when full.
  void push(T x) {
    const std::uint64_t b =
        bottom_.load(std::memory_order_relaxed, race::Site::kWqBottomOwnLoad);
    const std::uint64_t t =
        top_.load(std::memory_order_acquire, race::Site::kWqTopLoad);
    Ring* r = ring_.load(std::memory_order_acquire, race::Site::kWqRingLoad);
    if (b - t >= r->cap) r = grow(r, t, b);
    r->at(b).store(x, std::memory_order_relaxed, race::Site::kWqSlot);
    bottom_.store(b + 1, std::memory_order_release,
                  race::Site::kWqBottomPublish);
  }

  // Owner only. LIFO (newest first — cache warmth; the steal side is the
  // FIFO end). Returns nullptr when empty.
  T take() {
    const std::uint64_t b = bottom_.load(std::memory_order_relaxed,
                                         race::Site::kWqBottomOwnLoad) - 1;
    Ring* r = ring_.load(std::memory_order_acquire, race::Site::kWqRingLoad);
    bottom_.store(b, std::memory_order_seq_cst, race::Site::kWqBottomReserve);
    std::uint64_t t =
        top_.load(std::memory_order_seq_cst, race::Site::kWqTopDekkerLoad);
    T x = nullptr;
    if (static_cast<std::int64_t>(t) <= static_cast<std::int64_t>(b)) {
      x = r->at(b).load(std::memory_order_relaxed, race::Site::kWqSlot);
      if (t == b) {
        // Last element: race the thieves for it on top.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          race::Site::kWqTopCas)) {
          x = nullptr;  // a thief won it
        }
        bottom_.store(b + 1, std::memory_order_relaxed,
                      race::Site::kWqBottomRestore);
      }
    } else {
      // Empty: undo the reservation.
      bottom_.store(b + 1, std::memory_order_relaxed,
                    race::Site::kWqBottomRestore);
    }
    return x;
  }

  // Any thread. FIFO (oldest first). Returns nullptr when empty OR when
  // it lost the top CAS to a rival — a lost race means the element went
  // to someone, so callers treat nullptr as "try the next victim".
  T steal() {
    std::uint64_t t =
        top_.load(std::memory_order_seq_cst, race::Site::kWqTopDekkerLoad);
    const std::uint64_t b = bottom_.load(std::memory_order_seq_cst,
                                         race::Site::kWqBottomStealLoad);
    if (static_cast<std::int64_t>(t) >= static_cast<std::int64_t>(b)) {
      return nullptr;  // empty
    }
    Ring* r = ring_.load(std::memory_order_acquire, race::Site::kWqRingLoad);
    T x = r->at(t).load(std::memory_order_relaxed, race::Site::kWqSlot);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      race::Site::kWqTopCas)) {
      return nullptr;  // lost to the owner or another thief
    }
    return x;
  }

  // Owner-side size estimate (exact for the owner between its own ops;
  // a lower bound otherwise — thieves only shrink it).
  std::size_t size_approx() const {
    const std::uint64_t b =
        bottom_.load(std::memory_order_relaxed, race::Site::kWqBottomOwnLoad);
    const std::uint64_t t =
        top_.load(std::memory_order_acquire, race::Site::kWqTopLoad);
    const auto d = static_cast<std::int64_t>(b) - static_cast<std::int64_t>(t);
    return d > 0 ? static_cast<std::size_t>(d) : 0;
  }

  std::size_t capacity() const {
    return static_cast<std::size_t>(
        ring_.load(std::memory_order_acquire, race::Site::kWqRingLoad)->cap);
  }
  std::uint64_t grows() const { return grows_; }

 private:
  struct Ring {
    explicit Ring(std::uint64_t c)
        : cap(c), mask(c - 1), slots(new race::Atomic<T>[c]) {}
    ~Ring() { delete[] slots; }
    race::Atomic<T>& at(std::uint64_t i) { return slots[i & mask]; }

    const std::uint64_t cap;
    const std::uint64_t mask;
    race::Atomic<T>* slots;
    Ring* prev = nullptr;  // retired predecessor, freed at destruction
  };

  static std::uint64_t round_up_pow2(std::size_t n) {
    std::uint64_t c = 2;
    while (c < n) c <<= 1;
    return c;
  }

  // Owner only (from push). Copies the live window [t, b) and publishes
  // the new ring; the old one stays linked for stale thief reads.
  Ring* grow(Ring* r, std::uint64_t t, std::uint64_t b) {
    Ring* nr = new Ring(r->cap * 2);
    for (std::uint64_t i = t; i != b; ++i) {
      nr->at(i).store(
          r->at(i).load(std::memory_order_relaxed, race::Site::kWqSlot),
          std::memory_order_relaxed, race::Site::kWqSlot);
    }
    nr->prev = r;
    ring_.store(nr, std::memory_order_release, race::Site::kWqRingPublish);
    ++grows_;
    return nr;
  }

  race::Atomic<std::uint64_t> top_{0};
  race::Atomic<std::uint64_t> bottom_{0};
  race::Atomic<Ring*> ring_;
  std::uint64_t grows_ = 0;  // owner-only bookkeeping
};

// Intrusive MPSC stack: T must expose `race::Atomic<T*> q_next`.
// Destruction requires quiescence; pending nodes are the caller's to drain
// (the executor's shutdown empties every queue first).
template <typename T>
class MpscInjector {
 public:
  MpscInjector() = default;

  MpscInjector(const MpscInjector&) = delete;
  MpscInjector& operator=(const MpscInjector&) = delete;

  // Any thread. Lock-free; ABA-immune (never dereferences the observed
  // head). seq_cst: the producer half of the executor's sleep Dekker.
  void push(T* n) {
    T* h = head_.load(std::memory_order_seq_cst, race::Site::kInjPushCas);
    do {
      n->q_next.store(h, std::memory_order_relaxed, race::Site::kInjNext);
    } while (!head_.compare_exchange_weak(h, n, std::memory_order_seq_cst,
                                          race::Site::kInjPushCas));
  }

  // SINGLE consumer (external discipline). FIFO per producer: the first
  // empty-cache pop exchanges the whole pushed batch out and reverses it.
  T* pop() {
    if (fifo_ == nullptr) {
      T* batch = drain_all();
      while (batch != nullptr) {
        T* next =
            batch->q_next.load(std::memory_order_relaxed, race::Site::kInjNext);
        batch->q_next.store(fifo_, std::memory_order_relaxed,
                            race::Site::kInjNext);
        fifo_ = batch;
        batch = next;
      }
    }
    T* n = fifo_;
    if (n != nullptr) {
      fifo_ = n->q_next.load(std::memory_order_relaxed, race::Site::kInjNext);
      n->q_next.store(nullptr, std::memory_order_relaxed,
                      race::Site::kInjNext);
    }
    return n;
  }

  // ANY thread: take the whole shared stack in one exchange, leaving
  // pop()'s private cache alone. Returns the raw intrusive chain in push
  // (newest-first) order via q_next, or nullptr; the taker reverses it
  // itself. Same ABA-immunity as pop()'s batch take — the exchange never
  // dereferences what it read, and rival drains get disjoint chains.
  T* drain_all() {
    return head_.exchange(nullptr, std::memory_order_acq_rel,
                          race::Site::kInjTakeAll);
  }

  // The pre-sleep probe. It reads pop()'s private cache, so it belongs to
  // pop()'s consumer, or to drain_all() takers of a queue that no one
  // pops. seq_cst head load — the worker half of the sleep Dekker
  // (ordered after the set-idle store).
  bool empty() const {
    if (fifo_ != nullptr) return false;
    return head_.load(std::memory_order_seq_cst, race::Site::kInjPeek) ==
           nullptr;
  }

 private:
  race::Atomic<T*> head_{nullptr};
  T* fifo_ = nullptr;  // consumer-private reversed batch
};

}  // namespace wfl
