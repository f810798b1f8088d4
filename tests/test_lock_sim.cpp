// Algorithm 3 under the deterministic simulator: safety (mutual exclusion
// with idempotence), step accounting (no delay overruns), determinism, and
// progress under starving (but oblivious) schedules.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "wfl/wfl.hpp"

#include "test_plat.hpp"

namespace wfl {

using test::TestPlat;
namespace {

using Space = LockTable<TestPlat>;

struct SimWorkload {
  // Each process repeatedly tryLocks a lock set chosen by `pick` and runs a
  // thunk that (a) checks a per-resource in-critical-section flag and
  // (b) increments a per-resource counter with a read-modify-write. Both
  // detect mutual-exclusion violations: (a) directly, (b) via lost updates.
  LockConfig cfg;
  int procs = 4;
  int locks = 4;
  int attempts_per_proc = 50;
  std::uint64_t seed = 1;

  // Results
  std::uint64_t total_wins = 0;
  std::vector<std::uint64_t> wins_per_resource;
  std::vector<std::uint64_t> flag_violations;

  // pick(pid, round, rng) -> lock ids
  template <typename Pick, typename Sched>
  LockStats run(Pick pick, Sched& sched, std::uint64_t max_slots) {
    auto space = std::make_unique<Space>(cfg, procs, locks);
    std::vector<std::unique_ptr<Cell<TestPlat>>> busy;   // in-CS flags
    std::vector<std::unique_ptr<Cell<TestPlat>>> count;  // per-resource counts
    for (int i = 0; i < locks; ++i) {
      busy.push_back(std::make_unique<Cell<TestPlat>>(0u));
      count.push_back(std::make_unique<Cell<TestPlat>>(0u));
    }
    wins_per_resource.assign(static_cast<std::size_t>(locks), 0);
    flag_violations.assign(static_cast<std::size_t>(locks), 0);
    std::vector<std::uint64_t> violations(static_cast<std::size_t>(locks), 0);

    Simulator sim(seed);
    std::vector<std::vector<std::uint64_t>> local_wins(
        static_cast<std::size_t>(procs),
        std::vector<std::uint64_t>(static_cast<std::size_t>(locks), 0));
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        Session<TestPlat> session(*space);
        Xoshiro256 rng(seed * 1000003 + static_cast<std::uint64_t>(p));
        for (int a = 0; a < attempts_per_proc; ++a) {
          const StaticLockSet<> ids(pick(p, a, rng), cfg);
          // The first lock id doubles as the "resource" the thunk touches.
          const std::uint32_t r = ids[0];
          Cell<TestPlat>& flag = *busy[r];
          Cell<TestPlat>& cnt = *count[r];
          std::uint64_t* viol = &violations[r];
          const Outcome o = submit(
              session, ids, [&flag, &cnt, viol](IdemCtx<TestPlat>& m) {
                if (m.load(flag) != 0) ++*viol;  // someone else inside
                m.store(flag, 1);
                const std::uint32_t v = m.load(cnt);
                m.store(cnt, v + 1);
                m.store(flag, 0);
              });
          if (o.won) ++local_wins[static_cast<std::size_t>(p)][r];
        }
      });
    }
    const bool all_done = sim.run(sched, max_slots);
    EXPECT_TRUE(all_done) << "slots exhausted: " << sim.slots_used();

    total_wins = 0;
    for (int p = 0; p < procs; ++p) {
      for (int r = 0; r < locks; ++r) {
        wins_per_resource[static_cast<std::size_t>(r)] +=
            local_wins[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)];
        total_wins +=
            local_wins[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)];
      }
    }
    for (int r = 0; r < locks; ++r) {
      flag_violations[static_cast<std::size_t>(r)] =
          violations[static_cast<std::size_t>(r)];
      // Lost-update check: the counter must equal the number of wins that
      // touched this resource — each won thunk logically runs exactly once.
      EXPECT_EQ(count[static_cast<std::size_t>(r)]->peek(),
                wins_per_resource[static_cast<std::size_t>(r)])
          << "resource " << r << ": lost or duplicated critical sections";
      EXPECT_EQ(flag_violations[static_cast<std::size_t>(r)], 0u)
          << "resource " << r << ": overlapping critical sections observed";
    }
    return space->stats();
  }
};

LockConfig small_cfg() {
  LockConfig cfg;
  cfg.kappa = 4;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return cfg;
}

// All processes fight over the same pair of locks.
std::vector<std::uint32_t> pick_clique(int, int, Xoshiro256&) {
  return {0, 1};
}

TEST(LockSim, MutualExclusionRoundRobin) {
  SimWorkload w;
  w.cfg = small_cfg();
  w.procs = 4;
  w.locks = 2;
  w.attempts_per_proc = 30;
  RoundRobinSchedule sched(w.procs);
  const LockStats s = w.run(pick_clique, sched, 50'000'000);
  EXPECT_EQ(s.t0_overruns, 0u);
  EXPECT_EQ(s.t1_overruns, 0u);
  EXPECT_GT(w.total_wins, 0u);
}

TEST(LockSim, MutualExclusionUniformRandom) {
  SimWorkload w;
  w.cfg = small_cfg();
  w.procs = 4;
  w.locks = 2;
  w.attempts_per_proc = 30;
  UniformSchedule sched(w.procs, 77);
  const LockStats s = w.run(pick_clique, sched, 50'000'000);
  EXPECT_EQ(s.t0_overruns, 0u);
  EXPECT_EQ(s.t1_overruns, 0u);
  EXPECT_GT(w.total_wins, 0u);
}

TEST(LockSim, MutualExclusionHeavilySkewedSchedule) {
  SimWorkload w;
  w.cfg = small_cfg();
  w.procs = 4;
  w.locks = 2;
  w.attempts_per_proc = 10;
  // One process gets 1000x fewer steps: it must still finish (wait-freedom
  // cannot depend on the schedule), and safety must hold throughout.
  WeightedSchedule sched({1.0, 1.0, 1.0, 0.001}, 5);
  const LockStats s = w.run(pick_clique, sched, 400'000'000);
  EXPECT_EQ(s.t0_overruns, 0u);
  EXPECT_GT(w.total_wins, 0u);
}

TEST(LockSim, MutualExclusionStallBursts) {
  SimWorkload w;
  w.cfg = small_cfg();
  w.procs = 6;
  w.cfg.kappa = 6;
  w.locks = 3;
  w.attempts_per_proc = 15;
  StallBurstSchedule sched(w.procs, 99, 2000);
  auto pick = [](int p, int a, Xoshiro256&) -> std::vector<std::uint32_t> {
    // Random-ish overlapping pairs on a 3-cycle of locks.
    const std::uint32_t first = static_cast<std::uint32_t>((p + a) % 3);
    return {first, (first + 1) % 3};
  };
  const LockStats s = w.run(pick, sched, 400'000'000);
  EXPECT_EQ(s.t0_overruns, 0u);
  EXPECT_GT(w.total_wins, 0u);
}

TEST(LockSim, RandomSingleLockWorkload) {
  SimWorkload w;
  w.cfg = small_cfg();
  w.cfg.max_locks = 1;
  w.procs = 5;
  w.cfg.kappa = 5;
  w.locks = 4;
  w.attempts_per_proc = 40;
  UniformSchedule sched(w.procs, 31);
  auto pick = [](int, int, Xoshiro256& rng) -> std::vector<std::uint32_t> {
    return {static_cast<std::uint32_t>(rng.next_below(4))};
  };
  w.run(pick, sched, 100'000'000);
  EXPECT_GT(w.total_wins, 0u);
}

// Two identical simulations must produce bit-identical outcomes: the whole
// point of the simulator is replayable schedules.
TEST(LockSim, DeterministicReplay) {
  auto once = [] {
    SimWorkload w;
    w.cfg = small_cfg();
    w.procs = 4;
    w.locks = 2;
    w.attempts_per_proc = 20;
    w.seed = 123;
    UniformSchedule sched(w.procs, 123);
    w.run(pick_clique, sched, 50'000'000);
    return std::make_pair(w.total_wins, w.wins_per_resource);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Delay accounting: under kTheory every attempt's own-step length between
// start and reveal is exactly T0 (+1 for the reveal store); overruns are
// zero with the default constants.
TEST(LockSim, PreRevealWorkFitsUnderT0) {
  LockConfig cfg = small_cfg();
  Space space(cfg, 4, 2);
  Simulator sim(7);
  std::vector<std::vector<Outcome>> per_proc(4);
  for (int p = 0; p < 4; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> session(space);
      const StaticLockSet<2> ids({0, 1}, cfg);
      for (int a = 0; a < 20; ++a) {
        per_proc[static_cast<std::size_t>(p)].push_back(
            submit(session, ids, [](IdemCtx<TestPlat>&) {}));
      }
    });
  }
  UniformSchedule sched(4, 7);
  ASSERT_TRUE(sim.run(sched, 100'000'000));
  for (auto& v : per_proc) {
    for (const Outcome& i : v) {
      EXPECT_LE(i.pre_reveal_work, cfg.t0_steps());
      EXPECT_LE(i.post_reveal_work, cfg.t1_steps());
      // Total own-steps is the fixed T0 + T1 plus the reveal store and a
      // few boundary steps — the step bound of Theorem 6.1 in the flesh.
      EXPECT_LE(i.total_steps, cfg.t0_steps() + cfg.t1_steps() + 4);
    }
  }
  EXPECT_EQ(space.stats().t0_overruns, 0u);
  EXPECT_EQ(space.stats().t1_overruns, 0u);
}

// The benchmark's sim_clique shape, pinned exactly: Algorithm 3 (kTheory),
// kappa = 4 processes, L = 2, T = 8, c0 = c1 = 8, each moving one unit
// between the same two accounts under stall bursts of 4096 slots. Every
// count below is a pure function of the seed, so any change to the
// simulator, the schedules, the PRNG or the algorithm's step sequence
// shows here as a differing number.
TEST(LockSim, SimCliqueCountsArePinned) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t attempts, wins, steps, slots;
  };
  const Pin pins[] = {
      {1, 41, 40, 188969, 195245},
      {2, 41, 40, 188969, 216027},
      {3, 40, 40, 184360, 196328},
  };
  constexpr int kProcs = 4;
  constexpr int kOps = 10;  // per process
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.seed);
    LockConfig cfg = small_cfg();
    cfg.delay_mode = DelayMode::kTheory;
    Space space(cfg, kProcs, 2);
    Cell<TestPlat> a{1000};
    Cell<TestPlat> b{1000};
    std::uint64_t steps = 0;
    Simulator sim(pin.seed);
    for (int p = 0; p < kProcs; ++p) {
      sim.add_process([&, p] {
        Session<TestPlat> session(space);
        for (int k = 0; k < kOps; ++k) {
          const bool fwd = ((p + k) & 1) == 0;
          Cell<TestPlat>* src = fwd ? &a : &b;
          Cell<TestPlat>* dst = fwd ? &b : &a;
          const Outcome o = submit(
              session, StaticLockSet<2>{0, 1},
              [src, dst](IdemCtx<TestPlat>& m) {
                const std::uint32_t s = m.load(*src);
                if (s >= 1) {
                  m.store(*src, s - 1);
                  m.store(*dst, m.load(*dst) + 1);
                }
              },
              Policy::retry());
          steps += o.total_steps;
        }
      });
    }
    StallBurstSchedule sched(kProcs, pin.seed ^ 0xBEEF, 4096);
    ASSERT_TRUE(sim.run(sched, 100'000'000));
    const LockStats s = space.stats();
    EXPECT_EQ(s.t0_overruns + s.t1_overruns, 0u);
    EXPECT_EQ(std::uint64_t{a.peek()} + b.peek(), 2000u);
    EXPECT_EQ(s.attempts, pin.attempts);
    EXPECT_EQ(s.wins, pin.wins);
    EXPECT_EQ(steps, pin.steps);
    EXPECT_EQ(sim.slots_used(), pin.slots);
  }
}

}  // namespace
}  // namespace wfl
