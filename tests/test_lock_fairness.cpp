// Fairness (Theorem 6.9): every attempt succeeds with probability at least
// 1/C_p, C_p = Σ_{ℓ in lock set} κ_ℓ, against an oblivious scheduler.
// These tests check loose empirical versions (Wilson 99% bounds with slack)
// so they are not flaky; bench/exp_fairness.cpp reports the precise values.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using Space = LockTable<SimPlat>;

// The attempts here measure lock acquisition alone: an empty critical
// section.
constexpr auto kNoop = [](IdemCtx<SimPlat>&) {};

struct FairnessResult {
  SuccessRate overall;
  std::vector<SuccessRate> per_proc;
  LockStats stats;
};

// All `procs` processes repeatedly attempt the same `L` locks.
FairnessResult run_clique(int procs, int locks_per_attempt, int attempts,
                          std::uint64_t seed) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs);
  cfg.max_locks = static_cast<std::uint32_t>(locks_per_attempt);
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  auto space =
      std::make_unique<Space>(cfg, procs, locks_per_attempt);

  FairnessResult res;
  res.per_proc.resize(static_cast<std::size_t>(procs));
  Simulator sim(seed);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      StaticLockSet<> ids;
      for (int l = 0; l < locks_per_attempt; ++l) {
        ids.insert(static_cast<std::uint32_t>(l));
      }
      for (int a = 0; a < attempts; ++a) {
        const bool won = submit(session, ids, kNoop).won;
        res.per_proc[static_cast<std::size_t>(p)].add(won);
      }
    });
  }
  UniformSchedule sched(procs, seed ^ 0xF00D);
  EXPECT_TRUE(sim.run(sched, 2'000'000'000ull));
  for (const auto& pr : res.per_proc) res.overall.merge(pr);
  res.stats = space->stats();
  return res;
}

TEST(Fairness, CliqueFourProcsTwoLocks) {
  // C_p = L * κ = 2 * 4 = 8; theorem floor is 1/8. The clique's true rate
  // is ~1/P since the competitor *sets* coincide; we assert the theorem
  // floor with slack against sampling noise.
  const auto res = run_clique(4, 2, 150, 11);
  const double floor = 1.0 / 8.0;
  EXPECT_GE(res.overall.wilson_upper(), floor);
  EXPECT_GE(res.overall.rate(), floor * 0.85)
      << "rate " << res.overall.rate() << " below theorem floor " << floor;
  EXPECT_EQ(res.stats.t0_overruns, 0u);
}

TEST(Fairness, CliqueEightProcsSingleLock) {
  const auto res = run_clique(8, 1, 80, 17);
  const double floor = 1.0 / 8.0;  // C_p = 1 * 8
  EXPECT_GE(res.overall.rate(), floor * 0.85);
}

TEST(Fairness, PerProcessRatesAreBalanced) {
  const auto res = run_clique(4, 2, 150, 23);
  double lo = 1.0, hi = 0.0;
  for (const auto& pr : res.per_proc) {
    lo = std::min(lo, pr.rate());
    hi = std::max(hi, pr.rate());
  }
  // Everybody competes under identical conditions; rates should cluster.
  EXPECT_GT(lo, 0.0) << "a process never succeeded: starvation";
  EXPECT_LT(hi / lo, 4.0) << "success rates wildly unbalanced: " << lo
                          << " vs " << hi;
}

// The dining philosophers special case (§1): κ = L = 2, so each attempt to
// eat succeeds with probability >= 1/4, independent of the ring size.
TEST(Fairness, DiningPhilosophersQuarterBound) {
  const int n = 6;
  const int meals_attempts = 60;
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  auto space = std::make_unique<Space>(cfg, n, n);

  SuccessRate overall;
  std::vector<SuccessRate> per(static_cast<std::size_t>(n));
  Simulator sim(29);
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      Xoshiro256 rng(1000 + static_cast<std::uint64_t>(p));
      const std::uint32_t left = static_cast<std::uint32_t>(p);
      const std::uint32_t right = static_cast<std::uint32_t>((p + 1) % n);
      const StaticLockSet<2> ids({left, right}, cfg);
      for (int a = 0; a < meals_attempts; ++a) {
        const bool ate = submit(session, ids, kNoop).won;
        per[static_cast<std::size_t>(p)].add(ate);
        // Think for a random while (own steps), as the problem statement
        // demands — thinking is what keeps contention at the κ=2 bound.
        const std::uint64_t think = rng.next_below(64);
        for (std::uint64_t s = 0; s < think; ++s) SimPlat::step();
      }
    });
  }
  UniformSchedule sched(n, 31337);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  for (const auto& pr : per) overall.merge(pr);
  EXPECT_GE(overall.rate(), 0.25 * 0.9)
      << "philosopher eat rate " << overall.rate() << " below 1/4";
  for (int p = 0; p < n; ++p) {
    EXPECT_GT(per[static_cast<std::size_t>(p)].successes(), 0u)
        << "philosopher " << p << " starved";
  }
  EXPECT_EQ(space->stats().t0_overruns, 0u);
}

// Independence across retries (the corollary to Theorem 1.1): retrying
// until success needs ~ C_p attempts in expectation; no process should need
// wildly more than the geometric expectation.
TEST(Fairness, RetryUntilSuccessTerminatesFast) {
  const int procs = 4;
  LockConfig cfg;
  cfg.kappa = 4;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  auto space = std::make_unique<Space>(cfg, procs, 2);
  std::vector<std::uint64_t> attempts_needed(procs, 0);
  Simulator sim(43);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      const StaticLockSet<2> ids({0, 1}, cfg);
      for (int wins = 0; wins < 10; ++wins) {
        // Wait-freedom bound: P = 4 competitors, success >= 1/8 each try;
        // 400 consecutive failures has probability ~1e-23.
        const Outcome o = submit(session, ids, kNoop, Policy::attempts(399));
        ASSERT_TRUE(o.won);
        attempts_needed[static_cast<std::size_t>(p)] += o.attempts;
      }
    });
  }
  UniformSchedule sched(procs, 99);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  for (int p = 0; p < procs; ++p) {
    // 10 wins each; mean tries/win should be around C_p=8, certainly < 40.
    EXPECT_LT(attempts_needed[static_cast<std::size_t>(p)], 400u);
  }
}

}  // namespace
}  // namespace wfl
