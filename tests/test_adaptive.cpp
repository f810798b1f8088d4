// The §6.2 unknown-bounds variant (DelayMode::kUnknownBounds): safety
// under the same adversarial workloads as the known-bounds algorithm, plus
// its specific mechanisms (participation reveal, snapshot competition,
// power-of-two padding). Written against test::TestPlat, so the checked
// twin re-runs every workload under the race & ordering audit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_plat.hpp"
#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using test::TestPlat;

using ASpace = LockTable<TestPlat>;

// A table that knows no κ/L/T bound: max_procs sizes its sets, and only
// the default max_locks (2, the submit-side L budget) is read.
LockConfig unknown_bounds() {
  LockConfig cfg;
  cfg.delay_mode = DelayMode::kUnknownBounds;
  return cfg;
}

struct AdaptiveWorkload {
  int procs = 4;
  int locks = 2;
  int attempts_per_proc = 40;
  std::uint64_t seed = 1;
  std::uint64_t total_wins = 0;

  template <typename Sched>
  void run(Sched& sched, std::uint64_t max_slots) {
    auto space = std::make_unique<ASpace>(unknown_bounds(), procs, locks);
    std::vector<std::unique_ptr<Cell<TestPlat>>> busy, count;
    for (int i = 0; i < locks; ++i) {
      busy.push_back(std::make_unique<Cell<TestPlat>>(0u));
      count.push_back(std::make_unique<Cell<TestPlat>>(0u));
    }
    std::vector<std::uint64_t> violations(static_cast<std::size_t>(locks), 0);
    std::vector<std::uint64_t> wins_on(static_cast<std::size_t>(locks), 0);

    Simulator sim(seed);
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        Session<TestPlat> session(*space);
        Xoshiro256 rng(seed + static_cast<std::uint64_t>(p) * 17);
        for (int a = 0; a < attempts_per_proc; ++a) {
          const std::uint32_t r =
              static_cast<std::uint32_t>(rng.next_below(locks));
          const std::uint32_t r2 =
              static_cast<std::uint32_t>((r + 1) % locks);
          const std::uint32_t ids_arr[2] = {r, r2};
          const std::uint32_t n = (locks >= 2) ? 2u : 1u;
          const StaticLockSet<2> ids(std::span(ids_arr, n));
          Cell<TestPlat>& flag = *busy[r];
          Cell<TestPlat>& cnt = *count[r];
          std::uint64_t* viol = &violations[r];
          const Outcome o = submit(
              session, ids, [&flag, &cnt, viol](IdemCtx<TestPlat>& m) {
                if (m.load(flag) != 0) ++*viol;
                m.store(flag, 1);
                m.store(cnt, m.load(cnt) + 1);
                m.store(flag, 0);
              });
          if (o.won) {
            ++wins_on[r];
            ++total_wins;
          }
        }
      });
    }
    ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
    for (int r = 0; r < locks; ++r) {
      EXPECT_EQ(violations[static_cast<std::size_t>(r)], 0u)
          << "overlapping critical sections on resource " << r;
      EXPECT_EQ(count[static_cast<std::size_t>(r)]->peek(),
                wins_on[static_cast<std::size_t>(r)])
          << "lost updates on resource " << r;
    }
  }
};

TEST(Adaptive, MutualExclusionUniform) {
  AdaptiveWorkload w;
  UniformSchedule sched(w.procs, 5);
  w.run(sched, 2'000'000'000ull);
  EXPECT_GT(w.total_wins, 0u);
}

TEST(Adaptive, MutualExclusionSkewed) {
  AdaptiveWorkload w;
  w.attempts_per_proc = 15;
  WeightedSchedule sched({1.0, 1.0, 0.01, 1.0}, 7);
  w.run(sched, 2'000'000'000ull);
  EXPECT_GT(w.total_wins, 0u);
}

TEST(Adaptive, MutualExclusionStallBursts) {
  AdaptiveWorkload w;
  w.procs = 6;
  w.locks = 3;
  w.attempts_per_proc = 20;
  StallBurstSchedule sched(w.procs, 11, 512);
  w.run(sched, 2'000'000'000ull);
  EXPECT_GT(w.total_wins, 0u);
}

TEST(Adaptive, SucceedsAloneQuickly) {
  ASpace space(unknown_bounds(), 2, 2);
  Cell<TestPlat> c{0};
  Simulator sim(3);
  bool won = false;
  sim.add_process([&] {
    Session<TestPlat> session(space);
    won = submit(session, StaticLockSet<2>({0, 1}),
                 [&c](IdemCtx<TestPlat>& m) { m.store(c, 1); })
              .won;
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 1'000'000));
  EXPECT_TRUE(won);
  EXPECT_EQ(c.peek(), 1u);
  // Uncontended attempt: pre-participation work is small, so the padded
  // total must stay small too (the whole point of adaptivity: cost scales
  // with true contention, not with declared worst cases).
  EXPECT_LT(sim.steps_of(0), 4096u);
}

TEST(Adaptive, FairnessStaysWithinLogFactorOfKnownBounds) {
  // Clique of 4 on 2 locks: known-bounds floor is 1/8; the adaptive variant
  // is allowed a log(κLT) haircut. Assert it keeps at least 1/(8·log2(16)).
  const int procs = 4, locks = 2, attempts = 120;
  auto space = std::make_unique<ASpace>(unknown_bounds(), procs, locks);
  SuccessRate rate;
  std::vector<SuccessRate> per(static_cast<std::size_t>(procs));
  Simulator sim(21);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> session(*space);
      const StaticLockSet<2> ids({0, 1});
      for (int a = 0; a < attempts; ++a) {
        per[static_cast<std::size_t>(p)].add(
            submit(session, ids, [](IdemCtx<TestPlat>&) {}).won);
      }
    });
  }
  UniformSchedule sched(procs, 1212);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  for (auto& pr : per) rate.merge(pr);
  const double floor = 1.0 / (8.0 * 4.0);  // log2(κLT=16)=4
  EXPECT_GE(rate.rate(), floor)
      << "adaptive success rate " << rate.rate()
      << " fell below the Theorem 6.10 band";
  for (const auto& pr : per) {
    EXPECT_GT(pr.successes(), 0u) << "a process starved";
  }
}

TEST(Adaptive, RetryUntilSuccessBounded) {
  ASpace space(unknown_bounds(), 3, 2);
  Simulator sim(31);
  for (int p = 0; p < 3; ++p) {
    sim.add_process([&] {
      Session<TestPlat> session(space);
      const StaticLockSet<2> ids({0, 1});
      for (int wins = 0; wins < 8; ++wins) {
        ASSERT_TRUE(submit(session, ids, [](IdemCtx<TestPlat>&) {},
                           Policy::attempts(500))
                        .won);
      }
    });
  }
  UniformSchedule sched(3, 77);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
}

}  // namespace
}  // namespace wfl
