// CheckedPlat: SimPlat plus happens-before instrumentation.
//
// The third platform (after RealPlat and SimPlat). It satisfies the same
// policy concept — Atomic<T>, Wake, step()/idle_steps()/steps()/rand_u64(),
// kSimulated — by delegating scheduling to SimPlat, and additionally
// reports every shared-memory operation (address, op kind, declared
// memory_order, value) to the analysis engine in check/race.hpp. An idle
// span touches no shared memory, so it reports nothing. Instantiating any
// algorithm template with CheckedPlat instead of SimPlat re-runs it,
// bit-for-bit on the same schedule (the hooks consume no steps and no
// randomness), under the vector-clock race and ordering-contract checker.
//
// Values are carried into the engine as 64-bit images (memcpy-encoded) so
// the shadow-value check can detect un-instrumented writes; wider or
// non-trivial T degrade to 0 and skip shadow checking.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "wfl/check/race.hpp"
#include "wfl/platform/sim.hpp"

namespace wfl {

struct CheckedPlat {
  static constexpr bool kSimulated = true;  // same driving rules as SimPlat

  static void step() { SimPlat::step(); }
  static void idle_steps(std::uint64_t n) { SimPlat::idle_steps(n); }
  static std::uint64_t steps() { return SimPlat::steps(); }
  static std::uint64_t rand_u64() { return SimPlat::rand_u64(); }

  template <typename T>
  static std::uint64_t enc(T v) {
    if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= 8) {
      std::uint64_t x = 0;
      std::memcpy(&x, &v, sizeof(T));
      return x;
    } else {
      return 0;
    }
  }

  class Wake {
   public:
    // Lifetime hooks: Wakes live inside heap records (AsyncOp) whose
    // addresses get reused; retire the word so a successor at the same
    // address starts from fresh shadow state.
    Wake() { race::created(&seq_, 0); }
    ~Wake() { race::destroyed(&seq_); }

    std::uint32_t prepare() const {
      const std::uint32_t s = seq_.load(std::memory_order_acquire);
      WFL_CHK_ATOMIC(&seq_, kLoad, acquire, kWakeSeq, s);
      return s;
    }
    void wait(std::uint32_t seen) const {
      for (;;) {
        const std::uint32_t s = seq_.load(std::memory_order_acquire);
        WFL_CHK_ATOMIC(&seq_, kLoad, acquire, kWakeSeq, s);
        if (s != seen) return;
        CheckedPlat::step();
      }
    }
    void post() {
      const std::uint32_t prev = seq_.fetch_add(1, std::memory_order_release);
      WFL_CHK_ATOMIC(&seq_, kFetchAdd, release, kWakeSeq, prev + 1);
    }
    void post_all() { post(); }

   private:
    mutable std::atomic<std::uint32_t> seq_{0};
  };

  template <typename T>
  class Atomic {
   public:
    Atomic() : v_{} { race::created(&v_, enc(T{})); }
    explicit Atomic(T v) : v_(v) { race::created(&v_, enc(v)); }
    ~Atomic() { race::destroyed(&v_); }

    Atomic(const Atomic&) = delete;
    Atomic& operator=(const Atomic&) = delete;

    T load() const {
      step();
      const T v = v_.load(std::memory_order_seq_cst);
      WFL_CHK_ATOMIC(&v_, kLoad, seq_cst, kUnknown, enc(v));
      return v;
    }

    void store(T v) {
      step();
      v_.store(v, std::memory_order_seq_cst);
      WFL_CHK_ATOMIC(&v_, kStore, seq_cst, kUnknown, enc(v));
    }

    bool cas(T expected, T desired) {
      step();
      T observed = expected;
      const bool ok = v_.compare_exchange_strong(observed, desired,
                                                 std::memory_order_seq_cst);
      if (ok) {
        WFL_CHK_ATOMIC(&v_, kCasOk, seq_cst, kUnknown, enc(desired));
      } else {
        WFL_CHK_ATOMIC(&v_, kCasFail, seq_cst, kUnknown, enc(observed));
      }
      return ok;
    }

    T exchange(T v) {
      step();
      const T prev = v_.exchange(v, std::memory_order_seq_cst);
      WFL_CHK_ATOMIC(&v_, kExchange, seq_cst, kUnknown, enc(v));
      return prev;
    }

    T fetch_add(T v) {
      step();
      const T prev = v_.fetch_add(v, std::memory_order_seq_cst);
      WFL_CHK_ATOMIC(&v_, kFetchAdd, seq_cst, kUnknown,
                     enc(static_cast<T>(prev + v)));
      return prev;
    }

    // Audited forms of the quiescent accessors (contracts kInitOnly /
    // kQuiescentRead): the engine checks the location really is quiescent.
    void init(T v) {
      v_.store(v, std::memory_order_relaxed);
      WFL_CHK_ATOMIC(&v_, kInit, relaxed, kAtomicInit, enc(v));
    }
    T peek() const {
      const T v = v_.load(std::memory_order_relaxed);
      WFL_CHK_ATOMIC(&v_, kPeek, relaxed, kAtomicPeek, enc(v));
      return v;
    }

   private:
    std::atomic<T> v_;
  };
};

}  // namespace wfl
