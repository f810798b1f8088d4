// Crash-failure injection: the defining test of wait-freedom.
//
// A "crash" is the oblivious scheduler delaying a process forever
// (CrashSchedule) — the limit case of the model's "any process can be
// arbitrarily delayed". Wait-free locks must let every survivor finish every
// attempt in bounded own-steps no matter where the victim stopped: mid help
// phase, mid insert, pinned in a delay, or after winning with its thunk half
// run (helpers must finish that thunk for mutual exclusion to mean anything).
//
// Accounting across a crash: the victim records each *returned* attempt
// before its next shared-memory step (local code between steps is atomic
// under the simulator), so at most one attempt — the in-flight one — is
// unaccounted. Per-resource counters must match known wins up to that single
// in-flight attempt, and critical-section flags must never collide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "wfl/wfl.hpp"

#include "test_plat.hpp"

namespace wfl {

using test::TestPlat;
namespace {

using Space = LockTable<TestPlat>;

// Runs the simulation until every non-victim process finished (or the slot
// budget is exhausted). A plain `required_finishers = procs - victims` is
// not enough: a victim that happens to finish *before* its crash slot
// counts as a finisher and would let run() return while a live survivor is
// still working.
bool run_until_survivors_done(Simulator& sim, Schedule& sched,
                              std::uint64_t max_slots,
                              std::span<const int> victims) {
  for (;;) {
    bool survivors_done = true;
    for (int p = 0; p < sim.process_count(); ++p) {
      const bool is_victim =
          std::find(victims.begin(), victims.end(), p) != victims.end();
      if (!is_victim && !sim.is_finished(p)) survivors_done = false;
    }
    if (survivors_done) return true;
    if (!sim.run(sched, max_slots, sim.finished_count() + 1)) return false;
  }
}

LockConfig crash_cfg(std::uint32_t kappa, std::uint32_t max_locks) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = 8;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return cfg;
}

struct CrashRunResult {
  std::uint64_t survivor_wins = 0;
  std::uint64_t victim_recorded_wins = 0;
  std::uint64_t counted = 0;          // sum of per-resource counters
  std::uint64_t flag_violations = 0;
  bool survivors_finished = false;
};

// `procs` processes contend on a clique of `locks` locks (each attempt takes
// lock r and (r+1)%locks); the last process is crashed at `crash_slot`.
CrashRunResult run_with_crash(int procs, int locks, int attempts,
                              std::uint64_t crash_slot, std::uint64_t seed) {
  LockConfig cfg = crash_cfg(static_cast<std::uint32_t>(procs), 2);
  auto space = std::make_unique<Space>(cfg, procs, locks);
  std::vector<std::unique_ptr<Cell<TestPlat>>> busy;
  std::vector<std::unique_ptr<Cell<TestPlat>>> count;
  for (int i = 0; i < locks; ++i) {
    busy.push_back(std::make_unique<Cell<TestPlat>>(0u));
    count.push_back(std::make_unique<Cell<TestPlat>>(0u));
  }

  const int victim = procs - 1;
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(procs), 0);
  std::vector<std::uint64_t> violations(static_cast<std::size_t>(locks), 0);
  typename Space::Process victim_proc{};  // ebr_pid = -1 until registered

  Simulator sim(seed);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> session(*space);
      if (p == victim) victim_proc = session.process();
      Xoshiro256 rng(seed * 7919 + static_cast<std::uint64_t>(p));
      for (int a = 0; a < attempts; ++a) {
        const std::uint32_t r =
            static_cast<std::uint32_t>(rng.next_below(locks));
        const StaticLockSet<2> ids(
            {r, (r + 1) % static_cast<std::uint32_t>(locks)});
        Cell<TestPlat>& flag = *busy[r];
        Cell<TestPlat>& cnt = *count[r];
        std::uint64_t* viol = &violations[r];
        const bool won =
            submit(session, ids, [&flag, &cnt, viol](IdemCtx<TestPlat>& m) {
              if (m.load(flag) != 0) ++*viol;
              m.store(flag, 1);
              const std::uint32_t v = m.load(cnt);
              m.store(cnt, v + 1);
              m.store(flag, 0);
            }).won;
        // Local bookkeeping: runs atomically with submit's return (no
        // shared-memory step in between), so a crash cannot split them.
        if (won) ++wins[static_cast<std::size_t>(p)];
      }
    });
  }

  UniformSchedule inner(procs, seed);
  CrashSchedule sched(inner, procs, {{victim, crash_slot}}, seed ^ 0xDEAD);
  const int victims[] = {victim};
  const bool ok = run_until_survivors_done(sim, sched, 600'000'000, victims);
  // The victim may be parked inside an EBR guard forever; release it on its
  // behalf so domain teardown (and any post-crash reclamation) can proceed.
  if (victim_proc.ebr_pid >= 0 && !sim.is_finished(victim)) {
    space->abandon_process(victim_proc);
    // Its Session never unwinds, so abandoning is the only thing that can
    // return the victim's cached slots to the pools.
    EXPECT_EQ(space->cached_slots(victim_proc), 0u);
  }

  CrashRunResult res;
  res.survivors_finished = ok;
  for (int p = 0; p < procs; ++p) {
    if (p == victim) {
      res.victim_recorded_wins = wins[static_cast<std::size_t>(p)];
    } else {
      res.survivor_wins += wins[static_cast<std::size_t>(p)];
      EXPECT_TRUE(sim.is_finished(p)) << "survivor " << p << " did not finish";
    }
  }
  for (int r = 0; r < locks; ++r) {
    res.counted += count[static_cast<std::size_t>(r)]->peek();
    res.flag_violations += violations[static_cast<std::size_t>(r)];
  }
  return res;
}

// Crash slots chosen to land in qualitatively different phases of an
// attempt: almost immediately, during early helping/insertion, around the
// first reveals, and deep into steady-state competition.
class CrashSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(CrashSweep, SurvivorsFinishAndStayMutuallyExcluded) {
  const std::uint64_t crash_slot = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  const CrashRunResult r =
      run_with_crash(/*procs=*/4, /*locks=*/3, /*attempts=*/12, crash_slot,
                     static_cast<std::uint64_t>(seed));
  EXPECT_TRUE(r.survivors_finished) << "wait-freedom violated by a crash";
  EXPECT_EQ(r.flag_violations, 0u) << "overlapping critical sections";
  // Exactly-once accounting with one in-flight attempt of slack: every
  // counted critical section corresponds to a known win, except possibly
  // the victim's un-returned attempt (which helpers may have completed).
  const std::uint64_t known = r.survivor_wins + r.victim_recorded_wins;
  EXPECT_GE(r.counted, known);
  EXPECT_LE(r.counted, known + 1);
  EXPECT_GT(r.survivor_wins, 0u) << "survivors made no progress";
}

INSTANTIATE_TEST_SUITE_P(
    PhaseAndSeed, CrashSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 50, 500, 5'000,
                                                        50'000, 500'000),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<CrashSweep::ParamType>& info) {
      return "slot" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Two victims crashing at different times; the remaining processes must
// still finish everything and keep safety.
TEST(Crash, TwoSimultaneousCrashesTolerated) {
  const int procs = 6;
  LockConfig cfg = crash_cfg(6, 2);
  Space space(cfg, procs, 2);
  Cell<TestPlat> cnt(0u);
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(procs), 0);
  std::vector<typename Space::Process> procs_of(
      static_cast<std::size_t>(procs));

  Simulator sim(11);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> session(space);
      procs_of[static_cast<std::size_t>(p)] = session.process();
      const StaticLockSet<2> ids({0, 1});
      for (int a = 0; a < 10; ++a) {
        const bool won = submit(session, ids, [&cnt](IdemCtx<TestPlat>& m) {
                           const std::uint32_t v = m.load(cnt);
                           m.store(cnt, v + 1);
                         }).won;
        if (won) ++wins[static_cast<std::size_t>(p)];
      }
    });
  }
  UniformSchedule inner(procs, 11);
  CrashSchedule sched(inner, procs, {{4, 2'000}, {5, 40'000}}, 13);
  const int victims[] = {4, 5};
  ASSERT_TRUE(run_until_survivors_done(sim, sched, 600'000'000, victims));
  for (const int v : victims) {
    if (procs_of[static_cast<std::size_t>(v)].ebr_pid >= 0 &&
        !sim.is_finished(v)) {
      space.abandon_process(procs_of[static_cast<std::size_t>(v)]);
    }
  }

  std::uint64_t known = 0;
  for (int p = 0; p < procs; ++p) {
    if (p < procs - 2) {
      EXPECT_TRUE(sim.is_finished(p));
    }
    known += wins[static_cast<std::size_t>(p)];
  }
  EXPECT_GE(cnt.peek(), known);
  EXPECT_LE(cnt.peek(), known + 2);  // one in-flight attempt per victim
}

// The dining-philosophers headline: a crashed philosopher's neighbors are
// not starved. Every surviving philosopher completes all its attempts and
// eats at least once, even though the victim sits "hungry" forever between
// them. A blocking protocol cannot pass this test if the victim crashes
// while holding a chopstick; see exp_crash for that comparison.
TEST(Crash, PhilosopherNeighborsOfCrashedStillEat) {
  const int n = 6;
  LockConfig cfg = crash_cfg(2, 2);  // ring: kappa = 2 per chopstick
  Space space(cfg, n, n);
  std::vector<std::unique_ptr<Cell<TestPlat>>> meals;
  for (int i = 0; i < n; ++i) {
    meals.push_back(std::make_unique<Cell<TestPlat>>(0u));
  }
  std::vector<std::uint64_t> eaten(static_cast<std::size_t>(n), 0);
  std::vector<typename Space::Process> procs_of(static_cast<std::size_t>(n));

  Simulator sim(23);
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> session(space);
      procs_of[static_cast<std::size_t>(p)] = session.process();
      const auto left = static_cast<std::uint32_t>(p);
      const auto right = static_cast<std::uint32_t>((p + 1) % n);
      const StaticLockSet<2> ids({left, right});
      Cell<TestPlat>& my_meals = *meals[static_cast<std::size_t>(p)];
      for (int a = 0; a < 40; ++a) {
        const bool won =
            submit(session, ids, [&my_meals](IdemCtx<TestPlat>& m) {
              const std::uint32_t v = m.load(my_meals);
              m.store(my_meals, v + 1);
            }).won;
        if (won) ++eaten[static_cast<std::size_t>(p)];
      }
    });
  }
  const int victim = 2;
  UniformSchedule inner(n, 23);
  CrashSchedule sched(inner, n, {{victim, 30'000}}, 29);
  const int victims[] = {victim};
  ASSERT_TRUE(run_until_survivors_done(sim, sched, 900'000'000, victims));
  if (procs_of[victim].ebr_pid >= 0 && !sim.is_finished(victim)) {
    space.abandon_process(procs_of[victim]);
  }

  for (int p = 0; p < n; ++p) {
    if (p == victim) continue;
    EXPECT_TRUE(sim.is_finished(p)) << "philosopher " << p;
    EXPECT_GT(eaten[static_cast<std::size_t>(p)], 0u)
        << "philosopher " << p << " starved by the crash";
  }
}

// A crash inside a delay segment must be as harmless as one inside a work
// segment: the victim holds no EBR guard there, so reclamation keeps
// flowing and survivors' pools do not balloon. (The work-segment crash case
// is exercised by the sweep above; this pins the guard-release design
// decision documented in lock_table.hpp.)
TEST(Crash, CrashInsideDelayDoesNotStallReclamation) {
  const int procs = 4;
  LockConfig cfg = crash_cfg(4, 2);
  Space space(cfg, procs, 2);
  Cell<TestPlat> cnt(0u);

  std::vector<typename Space::Process> procs_of(
      static_cast<std::size_t>(procs));
  Simulator sim(31);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> session(space);
      procs_of[static_cast<std::size_t>(p)] = session.process();
      const StaticLockSet<2> ids({0, 1});
      const int rounds = p == procs - 1 ? 4 : 60;
      for (int a = 0; a < rounds; ++a) {
        submit(session, ids, [&cnt](IdemCtx<TestPlat>& m) {
          const std::uint32_t v = m.load(cnt);
          m.store(cnt, v + 1);
        });
      }
    });
  }
  // T0 for this config is 8·16·4·8 = 4096 own-steps, so by global slot
  // 6000 the victim (scheduled ~1/4 of slots) is almost surely inside its
  // first or second delay segment. The exact phase does not matter for the
  // assertion; the sweep test covers the other phases.
  UniformSchedule inner(procs, 31);
  CrashSchedule sched(inner, procs, {{procs - 1, 6'000}}, 37);
  const int victims[] = {procs - 1};
  ASSERT_TRUE(run_until_survivors_done(sim, sched, 600'000'000, victims));
  if (procs_of[procs - 1].ebr_pid >= 0 && !sim.is_finished(procs - 1)) {
    space.abandon_process(procs_of[procs - 1]);
  }
  for (int p = 0; p < procs - 1; ++p) {
    EXPECT_TRUE(sim.is_finished(p));
  }
  EXPECT_GT(cnt.peek(), 0u);
}

// CrashSchedule itself must be oblivious and well-formed: decisions are a
// pure function of construction data and the slot index.
TEST(CrashSchedule, NeverSchedulesCrashedProcessAfterItsSlot) {
  UniformSchedule inner(5, 41);
  CrashSchedule sched(inner, 5, {{1, 100}, {3, 200}}, 43);
  for (std::uint64_t slot = 0; slot < 5'000; ++slot) {
    const int pick = sched.next();
    ASSERT_GE(pick, 0);
    ASSERT_LT(pick, 5);
    if (slot >= 100) ASSERT_NE(pick, 1) << "slot " << slot;
    if (slot >= 200) ASSERT_NE(pick, 3) << "slot " << slot;
  }
}

TEST(CrashSchedule, DeterministicReplay) {
  auto draw = [] {
    UniformSchedule inner(4, 7);
    CrashSchedule sched(inner, 4, {{0, 50}}, 9);
    std::vector<int> picks;
    for (int i = 0; i < 1'000; ++i) picks.push_back(sched.next());
    return picks;
  };
  EXPECT_EQ(draw(), draw());
}

}  // namespace
}  // namespace wfl
