// Deterministic execution simulator for the paper's model (§4).
//
// A logical process is a fiber; a *step* is one shared-memory operation (or
// one explicit delay step). The scheduler grants steps one at a time
// according to a Schedule that is computed purely from a seed — i.e., the
// schedule is fixed before the execution observes anything, which is exactly
// the paper's *oblivious scheduler adversary*. Weighted and stall-burst
// schedules express "a process can be delayed arbitrarily".
//
// The *adaptive player adversary* is expressed in experiment code: process
// bodies may inspect any shared state (including revealed priorities) when
// deciding when to start an attempt — the model allows this and our fairness
// experiments exploit it (see bench/exp_ablation.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wfl/util/fiber.hpp"
#include "wfl/util/rng.hpp"

namespace wfl {

// A schedule maps successive time slots to process ids. Implementations must
// derive every decision from construction-time data (seed, weights) only —
// never from execution state — to remain oblivious.
class Schedule {
 public:
  virtual ~Schedule() = default;
  virtual int next() = 0;
};

class RoundRobinSchedule final : public Schedule {
 public:
  explicit RoundRobinSchedule(int n) : n_(n) {}
  int next() override { return pos_ = (pos_ + 1) % n_; }

 private:
  int n_;
  int pos_ = -1;
};

class UniformSchedule final : public Schedule {
 public:
  UniformSchedule(int n, std::uint64_t seed) : n_(n), rng_(seed) {}
  int next() override { return static_cast<int>(rng_.next_below(n_)); }

 private:
  int n_;
  Xoshiro256 rng_;
};

// Processes are picked with the given weights; a near-zero weight models a
// process the adversary delays for a very long time.
class WeightedSchedule final : public Schedule {
 public:
  WeightedSchedule(std::vector<double> weights, std::uint64_t seed);
  int next() override;

 private:
  std::vector<double> cumulative_;
  Xoshiro256 rng_;
};

// Uniform schedule, except that periodically one process (chosen by seed) is
// completely starved for a burst of slots — an oblivious pattern that still
// produces highly skewed interleavings.
class StallBurstSchedule final : public Schedule {
 public:
  StallBurstSchedule(int n, std::uint64_t seed, std::uint64_t burst_len)
      : n_(n), burst_len_(burst_len), rng_(seed) {}
  int next() override;

 private:
  int n_;
  std::uint64_t burst_len_;
  Xoshiro256 rng_;
  int victim_ = -1;
  std::uint64_t remaining_ = 0;
};

// Wraps an inner schedule and crash-fails chosen processes: after a victim's
// crash slot has passed, slots the inner schedule would grant to it are
// re-drawn uniformly among the other processes. A crashed process simply
// never runs again — the model's "arbitrarily delayed" taken to the limit,
// which is exactly the failure mode wait-freedom must tolerate. All
// decisions derive from construction-time data (victims, slots, seed) plus
// the slot index, so the composite schedule remains oblivious.
class CrashSchedule final : public Schedule {
 public:
  struct Crash {
    int pid;
    std::uint64_t slot;  // first slot at which the process no longer runs
  };

  CrashSchedule(Schedule& inner, int n, std::vector<Crash> crashes,
                std::uint64_t seed);
  int next() override;

 private:
  bool crashed_at(int pid, std::uint64_t slot) const;

  Schedule* inner_;
  int n_;
  std::vector<Crash> crashes_;
  Xoshiro256 rng_;
  std::uint64_t slot_ = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Registers a logical process. All processes must be added before run().
  // The body is a Fiber::Body (inline-storage FixedFunction): capture packs
  // beyond its capacity belong in a struct the lambda references.
  int add_process(Fiber::Body body);

  // Grants steps per `sched` until every process body returned or max_slots
  // slots were consumed. Returns true iff all processes finished. Slots
  // granted to finished processes are wasted (the oblivious scheduler does
  // not know who is done).
  //
  // `required_finishers` supports crash experiments: when >= 0, run()
  // returns true as soon as that many processes have finished (a crashed
  // process never finishes, so waiting for all of them would spin until
  // max_slots).
  bool run(Schedule& sched, std::uint64_t max_slots,
           int required_finishers = -1);

  // Wedge watchdog. Harness loops around run() (exp_crash, the fuzz
  // campaign, any run-until-survivors retry loop) traditionally pass a
  // huge max_slots and rely on forward progress; a wedge then hangs ctest
  // with no diagnostics. enable_watchdog() arms a CUMULATIVE bound on
  // slots_used(): crossing it inside run() captures a dump — per-process
  // step counts and done flags, the most recent slot grants, and a
  // `[reproducer: seed=S slot=N]` line — then either aborts via the
  // assertion machinery (fail_hard, the default: the test fails loudly
  // instead of spinning) or ends the run() early with watchdog_fired()
  // set so a driver (the fuzzer) can treat the overrun as a finding.
  //
  // Every Simulator also arms a fail-hard watchdog from the
  // WFL_SIM_WATCHDOG_SLOTS env var when set, so existing suites inherit
  // hang protection with no code changes.
  void enable_watchdog(std::uint64_t max_total_slots, bool fail_hard = true);
  bool watchdog_fired() const { return watchdog_fired_; }
  const std::string& watchdog_dump() const { return watchdog_dump_; }

  int process_count() const { return static_cast<int>(procs_.size()); }
  int finished_count() const { return finished_; }
  bool is_finished(int pid) const;
  std::uint64_t steps_of(int pid) const;
  std::uint64_t slots_used() const { return slots_used_; }
  std::uint64_t seed() const { return seed_; }

  // --- hooks used by SimPlat (valid only while run() is active) ---
  static Simulator* current();
  // Counts one step for the running process, then yields to the scheduler.
  void count_step_and_yield();
  std::uint64_t rand_u64();          // running process's deterministic PRNG
  std::uint64_t current_steps() const;  // running process's step count
  int current_pid() const;

 private:
  struct Proc {
    std::unique_ptr<Fiber> fiber;
    std::uint64_t steps = 0;
    Xoshiro256 rng{0};
    bool done = false;
  };

  std::string build_watchdog_dump() const;

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Proc>> procs_;
  int running_pid_ = -1;
  int finished_ = 0;
  std::uint64_t slots_used_ = 0;
  bool in_run_ = false;

  // Watchdog state (see enable_watchdog).
  static constexpr int kTraceRing = 64;
  std::uint64_t watchdog_slots_ = 0;  // 0 = disarmed
  bool watchdog_fail_hard_ = true;
  bool watchdog_fired_ = false;
  std::string watchdog_dump_;
  int trace_ring_[kTraceRing] = {};  // recent grants, indexed by slot
};

}  // namespace wfl
