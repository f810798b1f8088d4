// CheckedPlat: SimPlat plus happens-before instrumentation.
//
// The third platform (after RealPlat and SimPlat). It satisfies the same
// policy concept — Atomic<T>, Wake, step()/idle_steps()/steps()/rand_u64(),
// kSimulated — by delegating scheduling to SimPlat, and additionally
// reports every shared-memory operation (address, op kind, memory_order,
// value) to the analysis engine in check/race.hpp. An idle
// span touches no shared memory, so it reports nothing. Instantiating any
// algorithm template with CheckedPlat instead of SimPlat re-runs it,
// bit-for-bit on the same schedule (the hooks consume no steps and no
// randomness), under the vector-clock race and ordering-contract checker.
//
// The storage of Atomic and Wake is race::Atomic, which reports each
// operation it executes; values travel as 64-bit images (race::enc) so the
// shadow-value check can detect un-instrumented writes.
#pragma once

#include <atomic>
#include <cstdint>

#include "wfl/check/race.hpp"
#include "wfl/platform/sim.hpp"

namespace wfl {

struct CheckedPlat {
  static constexpr bool kSimulated = true;  // same driving rules as SimPlat

  static void step() { SimPlat::step(); }
  static void idle_steps(std::uint64_t n) { SimPlat::idle_steps(n); }
  static std::uint64_t steps() { return SimPlat::steps(); }
  static std::uint64_t rand_u64() { return SimPlat::rand_u64(); }

  class Wake {
   public:
    std::uint32_t prepare() const {
      return seq_.load(std::memory_order_acquire, race::Site::kWakeSeq);
    }
    void wait(std::uint32_t seen) const {
      while (seq_.load(std::memory_order_acquire, race::Site::kWakeSeq) ==
             seen) {
        CheckedPlat::step();
      }
    }
    void post() {
      seq_.fetch_add(1, std::memory_order_release, race::Site::kWakeSeq);
    }
    void post_all() { post(); }

   private:
    race::Atomic<std::uint32_t> seq_;
  };

  template <typename T>
  class Atomic {
   public:
    Atomic() = default;
    explicit Atomic(T v) : v_(v) {}

    Atomic(const Atomic&) = delete;
    Atomic& operator=(const Atomic&) = delete;

    T load() const {
      step();
      return v_.load(kOrder, race::Site::kUnknown);
    }
    void store(T v) {
      step();
      v_.store(v, kOrder, race::Site::kUnknown);
    }
    bool cas(T expected, T desired) {
      step();
      return v_.compare_exchange_strong(expected, desired, kOrder,
                                        race::Site::kUnknown);
    }
    // Value-reporting CAS: a failure reports the word it found to the
    // engine (Op::kCasFail) and hands that same word back.
    T cas_value(T expected, T desired) {
      step();
      v_.compare_exchange_strong(expected, desired, kOrder,
                                 race::Site::kUnknown);
      return expected;
    }
    T exchange(T v) {
      step();
      return v_.exchange(v, kOrder, race::Site::kUnknown);
    }
    T fetch_add(T v) {
      step();
      return v_.fetch_add(v, kOrder, race::Site::kUnknown);
    }

    // Audited forms of the quiescent accessors (contracts kInitOnly /
    // kQuiescentRead): the engine checks the location really is quiescent.
    void init(T v) { v_.init(v); }
    T peek() const { return v_.peek(); }

   private:
    static constexpr std::memory_order kOrder = std::memory_order_seq_cst;
    race::Atomic<T> v_;
  };
};

}  // namespace wfl
