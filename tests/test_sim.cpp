// Unit tests for the deterministic simulator: fibers, schedules, step
// accounting, replay determinism, and the oblivious-scheduler semantics.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace wfl
