// RealPlat: execute on OS threads with std::atomic.
//
// Every concurrent algorithm in this library is a template over a Platform
// policy. The policy supplies atomics with a *step hook* (each shared-memory
// operation is one "step" in the paper's model), a per-process step counter
// (delays are "until N of my own steps"), idle_steps(n) to take such a
// delay (n own steps that touch no shared memory), and a per-process PRNG.
//
// RealPlat counts steps in a thread_local and uses sequentially consistent
// atomics throughout. The algorithms' proofs are stated against an
// interleaving model; we deliberately do not weaken orderings (Core
// Guidelines CP.100/101: no cleverness in lock-free code without a proof for
// the weaker order).
#pragma once

#include <atomic>
#include <cstdint>

#include "wfl/util/rng.hpp"

namespace wfl {

struct RealPlat {
  // Safe to drive from arbitrary OS threads (cf. SimPlat::kSimulated).
  static constexpr bool kSimulated = false;

  static std::uint64_t& steps_ref() {
    thread_local std::uint64_t steps = 0;
    return steps;
  }

  static Xoshiro256& rng_ref() {
    thread_local Xoshiro256 rng{0x9E3779B97F4A7C15ULL};
    return rng;
  }

  // One explicit local step: used by the delay loops of Algorithm 3 and
  // counted exactly like a shared-memory operation.
  static void step() { ++steps_ref(); }

  // n own steps that touch no shared memory: Algorithm 3's T0/T1 delays,
  // §6.2 padding, a simulated process thinking. One step() each.
  static void idle_steps(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) step();
  }

  static std::uint64_t steps() { return steps_ref(); }

  static std::uint64_t rand_u64() { return rng_ref().next(); }

  // Reseed the calling thread's PRNG (tests want reproducibility).
  static void seed_rng(std::uint64_t seed) { rng_ref().reseed(seed); }

  // WakeHandle: the platform's thread-blocking primitive, used by runtimes
  // (async executor workers, ticket waiters) to sleep until posted instead
  // of spinning. Futex-backed: std::atomic<uint32_t>::wait lowers to
  // FUTEX_WAIT on Linux. The sequence counter makes it race-free in the
  // standard prepare/check/wait shape:
  //
  //   const auto seen = wake.prepare();
  //   if (!work_available()) wake.wait(seen);
  //
  // A post() between prepare() and wait() advances the sequence, so the
  // wait returns immediately — no lost wakeups. NOT part of the paper's
  // step model (like reclamation and registration, DESIGN.md #2): nothing
  // on an attempt path ever blocks on one.
  class Wake {
   public:
    std::uint32_t prepare() const {
      return seq_.load(std::memory_order_acquire);
    }
    void wait(std::uint32_t seen) const { seq_.wait(seen); }
    void post() {
      seq_.fetch_add(1, std::memory_order_release);
      seq_.notify_one();
    }
    void post_all() {
      seq_.fetch_add(1, std::memory_order_release);
      seq_.notify_all();
    }

   private:
    mutable std::atomic<std::uint32_t> seq_{0};
  };

  template <typename T>
  class Atomic {
   public:
    Atomic() : v_{} {}
    explicit Atomic(T v) : v_(v) {}

    Atomic(const Atomic&) = delete;
    Atomic& operator=(const Atomic&) = delete;

    T load() const {
      step();
      return v_.load(std::memory_order_seq_cst);
    }

    void store(T v) {
      step();
      v_.store(v, std::memory_order_seq_cst);
    }

    // Single-shot CAS (the paper's CAS instruction). Returns true on success;
    // does not loop.
    bool cas(T expected, T desired) {
      step();
      return v_.compare_exchange_strong(expected, desired,
                                        std::memory_order_seq_cst);
    }

    // The same single CAS, reporting the word it found (the model's CAS
    // returns it): `expected` when it succeeded, the current word when it
    // failed. One step, like cas(); a caller that needs the outcome makes
    // no second load.
    T cas_value(T expected, T desired) {
      step();
      v_.compare_exchange_strong(expected, desired, std::memory_order_seq_cst);
      return expected;
    }

    T exchange(T v) {
      step();
      return v_.exchange(v, std::memory_order_seq_cst);
    }

    T fetch_add(T v) {
      step();
      return v_.fetch_add(v, std::memory_order_seq_cst);
    }

    // Initialization-time access: not a step, not concurrency-safe. Only for
    // construction/reset paths that happen-before any sharing.
    void init(T v) { v_.store(v, std::memory_order_relaxed); }
    // Quiescent debug read: not a step. Relaxed, matching the documented
    // contract — callers (post-run assertions, stats snapshots, the thin
    // table debug peek) must already be ordered after every writer; nothing
    // load-bearing consumes a peek. Audited dynamically by CheckedPlat's
    // kQuiescentRead check (check/ordering_contracts.hpp).
    T peek() const { return v_.load(std::memory_order_relaxed); }

   private:
    std::atomic<T> v_;
  };
};

}  // namespace wfl
