// SimPlat: execute under the deterministic simulator.
//
// Identical interface to RealPlat, so every algorithm template can be
// instantiated for either. Under SimPlat each shared-memory operation first
// counts one step for the running logical process and yields to the
// scheduler — making the operation occur exactly at its granted time slot,
// which is the paper's execution model. Delays are "until N of my own
// steps": idle_steps(n) takes them as one idle span of the simulator, which
// grants the same n slots as n step() calls but switches fibers once.
//
// Outside an active simulation (setup/teardown on the main context) the
// hooks degrade to no-ops so fixtures can initialize shared structures.
#pragma once

#include <atomic>
#include <cstdint>

#include "wfl/sim/sim.hpp"
#include "wfl/util/rng.hpp"

namespace wfl {

struct SimPlat {
  // Runtimes must not drive this platform from worker OS threads: step()
  // yields into the fiber scheduler, which is only valid on a simulator
  // fiber (AsyncExecutor checks this at construction).
  static constexpr bool kSimulated = true;

  static void step() {
    Simulator* sim = Simulator::current();
    if (sim != nullptr && sim->current_pid() >= 0) {
      sim->count_step_and_yield();
    }
  }

  // n own steps that touch no shared memory (see the header comment). Only
  // on a simulator process's own fiber: Simulator::count_steps_and_yield
  // checks that.
  static void idle_steps(std::uint64_t n) {
    Simulator* sim = Simulator::current();
    if (sim != nullptr && sim->current_pid() >= 0) {
      sim->count_steps_and_yield(n);
    }
  }

  static std::uint64_t steps() {
    Simulator* sim = Simulator::current();
    if (sim != nullptr && sim->current_pid() >= 0) {
      return sim->current_steps();
    }
    return 0;
  }

  static std::uint64_t rand_u64() {
    Simulator* sim = Simulator::current();
    if (sim != nullptr && sim->current_pid() >= 0) {
      return sim->rand_u64();
    }
    // Setup-context fallback; deterministic but shared.
    static Xoshiro256 fallback{0xC0FFEEULL};
    return fallback.next();
  }

  // WakeHandle, deterministic flavour: same prepare/wait/post shape as
  // RealPlat::Wake, but wait() burns simulator-scheduled steps instead of
  // blocking the OS thread — each step yields to the simulator, so the
  // poster (another sim fiber) gets scheduled and the wait's duration is a
  // pure function of the schedule. This is what lets the simulator drive
  // the async executor's park/wake paths bit-for-bit reproducibly.
  class Wake {
   public:
    std::uint32_t prepare() const {
      return seq_.load(std::memory_order_acquire);
    }
    void wait(std::uint32_t seen) const {
      while (seq_.load(std::memory_order_acquire) == seen) SimPlat::step();
    }
    void post() { seq_.fetch_add(1, std::memory_order_release); }
    void post_all() { post(); }

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

    // All fibers share one OS thread, so plain operations would already be
    // data-race-free; we keep std::atomic so the same template also behaves
    // if a test drives SimPlat structures from the main thread.
    T load() const {
      step();
      return v_.load(std::memory_order_seq_cst);
    }

    void store(T v) {
      step();
      v_.store(v, std::memory_order_seq_cst);
    }

    bool cas(T expected, T desired) {
      step();
      return v_.compare_exchange_strong(expected, desired,
                                        std::memory_order_seq_cst);
    }

    // Value-reporting CAS; same contract as RealPlat's.
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

    void init(T v) { v_.store(v, std::memory_order_relaxed); }
    // Relaxed quiescent debug read; same contract as RealPlat::peek().
    T peek() const { return v_.load(std::memory_order_relaxed); }

   private:
    std::atomic<T> v_;
  };
};

}  // namespace wfl
