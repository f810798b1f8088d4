// Unit tests for the deterministic simulator: fibers, schedules, step
// accounting, replay determinism, and the oblivious-scheduler semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wfl/fuzz/trace.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/fiber.hpp"
#include "wfl/sim/sim.hpp"

namespace wfl {
namespace {

TEST(Fiber, RunsYieldsAndResumes) {
  std::string trace;
  Fiber f([&] {
    trace += "a";
    Fiber::yield();
    trace += "b";
    Fiber::yield();
    trace += "c";
  });
  f.resume();
  trace += "1";
  f.resume();
  trace += "2";
  f.resume();
  EXPECT_EQ(trace, "a1b2c");
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, NestedFibersKeepCurrentStraight) {
  std::vector<const Fiber*> seen;
  Fiber inner([&] { seen.push_back(Fiber::current()); });
  Fiber outer([&] {
    seen.push_back(Fiber::current());
    inner.resume();  // resume another fiber from inside a fiber
    seen.push_back(Fiber::current());
  });
  outer.resume();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], seen[2]);  // outer restored as current
  EXPECT_NE(seen[0], seen[1]);
}

TEST(Fiber, FloatingPointControlIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int inside_before = -1;
  int inside_after = -1;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    inside_before = std::fegetround();
    Fiber::yield();
    inside_after = std::fegetround();
    std::fesetround(FE_TONEAREST);
  });
  f.resume();
  EXPECT_EQ(inside_before, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // the resumer kept its own
  f.resume();
  EXPECT_EQ(inside_after, FE_UPWARD);  // and so did the fiber
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// A callee that cannot be folded into its caller, so its aligned local
// lives in a frame of its own below the fiber's first frame.
[[gnu::noinline]] bool local_is_16_byte_aligned() {
  alignas(16) volatile unsigned char local[16] = {};
  local[0] = 1;
  return reinterpret_cast<std::uintptr_t>(&local[0]) % 16 == 0;
}

TEST(Fiber, BodyRunsOnAnAbiAlignedStack) {
  // A misaligned first frame shows as a crash in SSE spills (printf of a
  // double saves xmm registers with aligned moves) or a misplaced local.
  struct Seen {
    std::string printed;
    bool aligned = false;
  } seen;
  auto body = [&seen] {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%f", 1.5);
    seen.printed = buf;
    seen.aligned = local_is_16_byte_aligned();
  };
  Fiber f(body);
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(seen.printed, "1.500000");
  EXPECT_TRUE(seen.aligned);

  seen = Seen{};
  f.reset(body);
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(seen.printed, "1.500000");
  EXPECT_TRUE(seen.aligned);
}

TEST(Fiber, ResetCyclesReuseOneStack) {
  constexpr int kCycles = 10000;
  int runs = 0;
  Fiber f([] {});
  f.resume();
  for (int i = 0; i < kCycles; ++i) {
    ASSERT_TRUE(f.finished());
    f.reset([&runs] {
      ++runs;
      Fiber::yield();
      ++runs;
    });
    f.resume();
    ASSERT_FALSE(f.finished());
    f.resume();
  }
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(runs, 2 * kCycles);
}

TEST(Schedule, RoundRobinCycles) {
  RoundRobinSchedule s(3);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) order.push_back(s.next());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Schedule, UniformIsSeedDeterministic) {
  UniformSchedule a(4, 9), b(4, 9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Schedule, WeightedRespectsWeights) {
  WeightedSchedule s({9.0, 1.0}, 3);
  int c0 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (s.next() == 0) ++c0;
  }
  EXPECT_NEAR(static_cast<double>(c0) / n, 0.9, 0.02);
}

TEST(Schedule, StallBurstExcludesVictimWithinBurst) {
  const int procs = 4;
  StallBurstSchedule s(procs, 5, 50);
  // Within any window of 50 draws starting at a burst boundary, exactly one
  // pid must be absent. We verify the weaker invariant that every pid is
  // still scheduled overall (no permanent starvation by construction).
  std::vector<int> counts(procs, 0);
  for (int i = 0; i < 5000; ++i) ++counts[s.next()];
  for (int p = 0; p < procs; ++p) EXPECT_GT(counts[p], 0);
}

TEST(Simulator, CountsStepsPerProcess) {
  Simulator sim(1);
  SimPlat::Atomic<int> x{0};
  sim.add_process([&] {
    for (int i = 0; i < 3; ++i) x.store(i);
  });
  sim.add_process([&] {
    for (int i = 0; i < 5; ++i) (void)x.load();
  });
  RoundRobinSchedule rr(2);
  ASSERT_TRUE(sim.run(rr, 1000));
  EXPECT_EQ(sim.steps_of(0), 3u);
  EXPECT_EQ(sim.steps_of(1), 5u);
}

TEST(Simulator, ObliviousSlotsWastedOnFinishedProcesses) {
  Simulator sim(1);
  SimPlat::Atomic<int> x{0};
  sim.add_process([&] { x.store(1); });                       // 1 step
  sim.add_process([&] { for (int i = 0; i < 9; ++i) x.store(i); });
  RoundRobinSchedule rr(2);
  ASSERT_TRUE(sim.run(rr, 1000));
  // Process 0 finished early; round-robin keeps granting it slots that are
  // wasted, so total slots > total steps.
  EXPECT_GT(sim.slots_used(), sim.steps_of(0) + sim.steps_of(1));
}

TEST(Simulator, MaxSlotsStopsRunaway) {
  Simulator sim(1);
  SimPlat::Atomic<int> x{0};
  sim.add_process([&] {
    for (;;) x.store(1);  // never terminates
  });
  RoundRobinSchedule rr(1);
  EXPECT_FALSE(sim.run(rr, 5000));
  EXPECT_EQ(sim.slots_used(), 5000u);
}

TEST(Simulator, InterleavingFollowsSchedule) {
  // Two processes append their id at every step; the observed interleaving
  // must match the schedule exactly (restricted to live processes).
  Simulator sim(1);
  std::string log;
  SimPlat::Atomic<int> dummy{0};
  for (int p = 0; p < 2; ++p) {
    sim.add_process([&, p] {
      for (int i = 0; i < 4; ++i) {
        dummy.store(0);  // yields before the store executes
        log += static_cast<char>('A' + p);
      }
    });
  }
  RoundRobinSchedule rr(2);
  ASSERT_TRUE(sim.run(rr, 1000));
  EXPECT_EQ(log, "ABABABAB");
}

TEST(Simulator, PerProcessRngIsSeedStable) {
  auto draw = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> vals;
    sim.add_process([&] { vals.push_back(SimPlat::rand_u64()); });
    sim.add_process([&] { vals.push_back(SimPlat::rand_u64()); });
    RoundRobinSchedule rr(2);
    EXPECT_TRUE(sim.run(rr, 100));
    return vals;
  };
  const auto a = draw(5);
  const auto b = draw(5);
  const auto c = draw(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a[0], a[1]);  // distinct processes draw distinct streams
}

TEST(Simulator, StepsApiVisibleInsideProcess) {
  Simulator sim(2);
  std::vector<std::uint64_t> observed;
  SimPlat::Atomic<int> x{0};
  sim.add_process([&] {
    observed.push_back(SimPlat::steps());
    x.store(1);
    x.store(2);
    observed.push_back(SimPlat::steps());
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 100));
  EXPECT_EQ(observed[0], 0u);
  EXPECT_EQ(observed[1], 2u);
}

TEST(Simulator, ExplicitStepConsumesSlot) {
  Simulator sim(3);
  sim.add_process([&] {
    for (int i = 0; i < 10; ++i) SimPlat::step();  // pure delay steps
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 100));
  EXPECT_EQ(sim.steps_of(0), 10u);
}

// --- Batched draws (Schedule::next_n) --------------------------------------
//
// next_n(k) must be exactly k calls to next(): the same picks, and the
// schedule left where they leave it, so next() and next_n() calls can
// alternate in any order.

// Batch sizes: 0, 1, and sizes on either side of the burst lengths below
// (1, 25, 4096), so batches start and end inside and across bursts.
constexpr std::size_t kChunks[] = {0,    1,    5, 24, 25,   26,   0,  3,
                                   4095, 4096, 1, 0,  4097, 8191, 2,  50};

// Draws every chunk from `s`, alternating next_n(chunk) with chunk calls
// of next().
std::vector<int> mixed_draws(Schedule& s) {
  std::vector<int> picks;
  for (std::size_t i = 0; i < std::size(kChunks); ++i) {
    const std::size_t k = kChunks[i];
    if (i % 2 == 0) {
      std::vector<int> batch(k + 1, -1);
      s.next_n(batch.data(), k);
      EXPECT_EQ(batch[k], -1) << "next_n wrote past its n";
      picks.insert(picks.end(), batch.begin(), batch.end() - 1);
    } else {
      for (std::size_t j = 0; j < k; ++j) picks.push_back(s.next());
    }
  }
  return picks;
}

std::vector<int> single_draws(Schedule& s, std::size_t n) {
  std::vector<int> picks;
  for (std::size_t i = 0; i < n; ++i) picks.push_back(s.next());
  return picks;
}

// Builds two identical schedules with `make` and compares the mixed draws
// of one with the single draws of the other.
template <typename Make>
void expect_next_n_matches_next(const char* what, Make make) {
  SCOPED_TRACE(what);
  auto mixed = make();
  auto single = make();
  const std::vector<int> got = mixed_draws(*mixed);
  EXPECT_EQ(got, single_draws(*single, got.size()));
  EXPECT_EQ(mixed->next(), single->next());  // nothing was drawn ahead
}

TEST(Schedule, NextNMatchesNext) {
  expect_next_n_matches_next(
      "round robin", [] { return std::make_unique<RoundRobinSchedule>(3); });
  expect_next_n_matches_next(
      "uniform", [] { return std::make_unique<UniformSchedule>(4, 9); });
  expect_next_n_matches_next("weighted", [] {
    return std::make_unique<WeightedSchedule>(
        std::vector<double>{1.0, 2.0, 0.001, 3.0}, 5);
  });
  for (const std::uint64_t burst : {1, 25, 4096}) {
    SCOPED_TRACE(burst);
    expect_next_n_matches_next("stall bursts", [burst] {
      return std::make_unique<StallBurstSchedule>(4, 17, burst);
    });
    expect_next_n_matches_next("stall bursts, one process", [burst] {
      return std::make_unique<StallBurstSchedule>(1, 17, burst);
    });
  }
}

TEST(Schedule, CrashScheduleNextNMatchesNext) {
  struct Crashing : Schedule {
    StallBurstSchedule inner{4, 3, 25};
    CrashSchedule outer{inner, 4, {{1, 40}, {3, 5000}}, 11};
    int next() override { return outer.next(); }
    void next_n(int* out, std::size_t n) override { outer.next_n(out, n); }
  };
  expect_next_n_matches_next("crash over stall bursts",
                             [] { return std::make_unique<Crashing>(); });
}

TEST(Schedule, TraceScheduleAndRecorderNextNMatchNext) {
  fuzz::Trace t;
  t.procs = 4;
  t.tail_seed = 21;
  t.crashes.push_back({2, 300});
  for (int i = 0; i < 500; ++i) {
    t.grants.push_back(static_cast<std::uint16_t>((i * 7) % 4));
  }
  expect_next_n_matches_next(
      "trace replay", [&t] { return std::make_unique<fuzz::TraceSchedule>(t); });

  // The recorder records each grant once, in the order handed out.
  struct Recording : Schedule {
    explicit Recording(const fuzz::Trace& t) : replay(t) {}
    fuzz::TraceSchedule replay;
    fuzz::TraceRecorder rec{replay};
    int next() override { return rec.next(); }
    void next_n(int* out, std::size_t n) override { rec.next_n(out, n); }
  };
  Recording mixed(t);
  Recording single(t);
  const std::vector<int> got = mixed_draws(mixed);
  EXPECT_EQ(got, single_draws(single, got.size()));
  ASSERT_EQ(mixed.rec.grants().size(), got.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), mixed.rec.grants().begin()));
  EXPECT_EQ(mixed.rec.grants(), single.rec.grants());
}

// --- Idle spans (Plat::idle_steps) -----------------------------------------
//
// An idle span must be indistinguishable from the same number of step()
// calls: only the fiber switches go. Each scenario runs one seed and one
// schedule twice, once with the subject (pid 1) idling through
// idle_steps(n) and once through n step() calls, and compares everything
// the run exposes. A witness (pid 0) records (slots_used, steps_of(1)) at
// each of its own steps, so a step counted one slot early or late, or a
// resume at a different slot, shows as a differing entry.
//
// In the scenarios with `witness_idle`, the witness also idles, in the same
// form, and the bystander finishes early: every live process then idles
// at once, so run() draws those slots in batches, and the step-loop run
// shows where each batched slot must land.

enum class IdleForm { kIdleSteps, kStepLoop };

struct IdleScenario {
  std::uint64_t idle_len = 0;  // n
  int witness_steps = 0;
  std::uint64_t max_slots = 1'000'000;
  int required_finishers = -1;
  std::uint64_t watchdog_slots = 0;  // 0: no watchdog; else report mode
  bool crash_subject = false;        // CrashSchedule kills pid 1 at ...
  std::uint64_t crash_slot = 0;      // ... this slot
  std::uint64_t witness_idle = 0;    // the witness's span after kBefore
  int bystander_steps = 40;
};

struct IdleRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> witness;
  std::uint64_t resumed_at = 0;  // slots_used when the subject resumed
  bool resumed = false;
  bool all_finished = false;
  std::uint64_t slots = 0;
  std::vector<std::uint64_t> steps;
  std::vector<bool> done;
  bool watchdog_fired = false;
  std::string watchdog_dump;

  bool operator==(const IdleRun&) const = default;
};

// The subject takes kBefore shared steps, its idle span, then kAfter more.
constexpr std::uint64_t kBefore = 5;
constexpr std::uint64_t kAfter = 5;

IdleRun run_idle_scenario(const IdleScenario& sc, IdleForm form) {
  Simulator sim(77);
  SimPlat::Atomic<int> x{0};
  IdleRun out;
  const auto idle = [form](std::uint64_t n) {
    if (form == IdleForm::kIdleSteps) {
      SimPlat::idle_steps(n);
    } else {
      for (std::uint64_t i = 0; i < n; ++i) SimPlat::step();
    }
  };
  sim.add_process([&] {  // witness
    for (int i = 0; i < sc.witness_steps; ++i) {
      if (i == static_cast<int>(kBefore)) idle(sc.witness_idle);
      out.witness.emplace_back(sim.slots_used(), sim.steps_of(1));
      x.store(i);
    }
  });
  sim.add_process([&] {  // subject
    for (std::uint64_t i = 0; i < kBefore; ++i) (void)x.load();
    idle(sc.idle_len);
    out.resumed_at = sim.slots_used();
    out.resumed = true;
    for (std::uint64_t i = 0; i < kAfter; ++i) x.fetch_add(1);
  });
  sim.add_process([&] {  // bystander: keeps the schedule busy
    for (int i = 0; i < sc.bystander_steps; ++i) (void)x.load();
  });
  if (sc.watchdog_slots > 0) {
    sim.enable_watchdog(sc.watchdog_slots, /*fail_hard=*/false);
  }
  StallBurstSchedule bursts(3, 9, 25);
  CrashSchedule crashes(bursts, 3, {{1, sc.crash_slot}}, 11);
  Schedule& sched = sc.crash_subject ? static_cast<Schedule&>(crashes)
                                     : static_cast<Schedule&>(bursts);
  out.all_finished = sim.run(sched, sc.max_slots, sc.required_finishers);
  out.slots = sim.slots_used();
  for (int p = 0; p < sim.process_count(); ++p) {
    out.steps.push_back(sim.steps_of(p));
    out.done.push_back(sim.is_finished(p));
  }
  out.watchdog_fired = sim.watchdog_fired();
  out.watchdog_dump = sim.watchdog_dump();
  return out;
}

// True iff the subject stopped strictly inside its idle span: the scenario
// really ended or crashed it mid-idle, as its name claims.
bool stopped_mid_idle(const IdleRun& r, std::uint64_t idle_len) {
  return r.steps[1] > kBefore && r.steps[1] < kBefore + idle_len;
}

TEST(Simulator, IdleStepsMatchStepLoop) {
  struct Case {
    const char* name;
    IdleScenario sc;
    bool mid_idle;  // the subject must stop inside its span
  };
  const std::uint64_t n = 300;
  const Case cases[] = {
      {"stall bursts, run to completion", {n, 200}, false},
      {"crash slot inside the idle span",
       {n, 200, 1'000'000, 2, 0, true, 120}, true},
      {"max_slots ends run() mid-idle", {n, 200, 150}, true},
      {"required_finishers ends run() mid-idle", {n, 30, 1'000'000, 1},
       true},
      {"report-mode watchdog fires mid-idle", {n, 200, 1'000'000, -1, 140},
       true},
      {"idle_steps(0)", {0, 60}, false},
      // Every live process idles at once (batched draws).
      {"all idle, run to completion",
       {n, 30, 1'000'000, -1, 0, false, 0, 400, 3}, false},
      {"all idle, max_slots ends run() inside a batch",
       {n, 30, 407, -1, 0, false, 0, 400, 3}, true},
      {"all idle, report-mode watchdog fires inside a batch",
       {n, 30, 1'000'000, -1, 360, false, 0, 400, 3}, true},
      {"all idle, required_finishers ends run() after a batch",
       {n, 8, 1'000'000, 2, 0, false, 0, 100, 3}, true},
      {"all idle, crash slot inside a batch",
       {n, 30, 1'000'000, 2, 0, true, 120, 400, 3}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const IdleRun idle = run_idle_scenario(c.sc, IdleForm::kIdleSteps);
    const IdleRun loop = run_idle_scenario(c.sc, IdleForm::kStepLoop);
    EXPECT_EQ(idle.witness, loop.witness);
    EXPECT_EQ(idle.watchdog_dump, loop.watchdog_dump);
    EXPECT_TRUE(idle == loop);
    EXPECT_EQ(stopped_mid_idle(idle, c.sc.idle_len), c.mid_idle)
        << "subject steps " << idle.steps[1];
    EXPECT_EQ(idle.resumed, !c.mid_idle);
    EXPECT_EQ(idle.watchdog_fired, c.sc.watchdog_slots > 0);
  }
}

TEST(Simulator, IdleStepsResumeAcrossRunCalls) {
  // A run() that ends mid-idle leaves the rest of the span to the next
  // run(), exactly where the step loop would have stopped and resumed.
  const auto twice = [](IdleForm form) {
    Simulator sim(5);
    std::vector<std::uint64_t> seen;
    sim.add_process([&] {
      SimPlat::idle_steps(0);  // takes no step and no slot
      seen.push_back(sim.slots_used());
      if (form == IdleForm::kIdleSteps) {
        SimPlat::idle_steps(50);
      } else {
        for (int i = 0; i < 50; ++i) SimPlat::step();
      }
      seen.push_back(sim.slots_used());
    });
    RoundRobinSchedule rr(1);
    EXPECT_FALSE(sim.run(rr, 20));
    seen.push_back(sim.steps_of(0));
    EXPECT_TRUE(sim.run(rr, 100));
    seen.push_back(sim.steps_of(0));
    seen.push_back(sim.slots_used());
    return seen;
  };
  const auto idle = twice(IdleForm::kIdleSteps);
  EXPECT_EQ(idle, twice(IdleForm::kStepLoop));
  // Started in slot 1, which also took the span's first step; 20 steps
  // when the first run() stopped; resumed after the span in slot 51.
  EXPECT_EQ(idle, (std::vector<std::uint64_t>{1, 20, 51, 50, 51}));
}

TEST(SimulatorDeathTest, IdleStepsOnNestedFiberDies) {
  // A fiber nested inside a process yields to its resumer, not to the
  // scheduler, so run() could not count its idle span.
  EXPECT_DEATH(
      {
        Simulator sim(1);
        sim.add_process([] {
          Fiber inner([] { SimPlat::idle_steps(3); });
          inner.resume();
        });
        RoundRobinSchedule rr(1);
        (void)sim.run(rr, 100);
      },
      "nested inside a process");
}

TEST(ScheduleDeathTest, SchedulesRejectNoProcesses) {
  // n < 1 names no pid: round robin would divide by zero, a uniform
  // draw below 0 hands pid 0 every slot, and a stall burst would draw
  // below 2^64 - 1.
  EXPECT_DEATH({ RoundRobinSchedule rr(0); }, "n >= 1");
  EXPECT_DEATH({ UniformSchedule u(0, 1); }, "n >= 1");
  EXPECT_DEATH({ StallBurstSchedule s(0, 1, 16); }, "n >= 1");
}

}  // namespace
}  // namespace wfl
