// Algorithm 3 on real OS threads (RealPlat): the same templates that were
// proven out under the simulator, now racing for real. Mutual exclusion is
// checked through lost-update detection and in-CS flags.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using Space = LockTable<RealPlat>;

struct RealStress {
  int threads = 4;
  int locks = 4;
  int attempts = 300;
  DelayMode delay_mode = DelayMode::kOff;

  void run() {
    LockConfig cfg;
    cfg.kappa = static_cast<std::uint32_t>(threads);
    cfg.max_locks = 2;
    cfg.max_thunk_steps = 8;
    cfg.delay_mode = delay_mode;
    cfg.c0 = 4.0;
    cfg.c1 = 4.0;
    auto space = std::make_unique<Space>(cfg, threads, locks);

    std::vector<std::unique_ptr<Cell<RealPlat>>> busy;
    std::vector<std::unique_ptr<Cell<RealPlat>>> count;
    for (int i = 0; i < locks; ++i) {
      busy.push_back(std::make_unique<Cell<RealPlat>>(0u));
      count.push_back(std::make_unique<Cell<RealPlat>>(0u));
    }
    std::vector<std::atomic<std::uint64_t>> wins_on(
        static_cast<std::size_t>(locks));
    for (auto& w : wins_on) w.store(0);
    std::atomic<std::uint64_t> violations{0};

    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        RealPlat::seed_rng(0xBEEF + static_cast<std::uint64_t>(t));
        Session<RealPlat> session(*space);
        Xoshiro256 rng(123 + static_cast<std::uint64_t>(t));
        for (int a = 0; a < attempts; ++a) {
          const std::uint32_t r =
              static_cast<std::uint32_t>(rng.next_below(locks));
          const std::uint32_t r2 =
              static_cast<std::uint32_t>((r + 1) % locks);
          const StaticLockSet<2> ids({r, r2});
          Cell<RealPlat>& flag = *busy[r];
          Cell<RealPlat>& cnt = *count[r];
          const Outcome o = submit(
              session, ids, [&flag, &cnt, &violations](IdemCtx<RealPlat>& m) {
                if (m.load(flag) != 0) {
                  violations.fetch_add(1, std::memory_order_relaxed);
                }
                m.store(flag, 1);
                m.store(cnt, m.load(cnt) + 1);
                m.store(flag, 0);
              });
          if (o.won) {
            wins_on[r].fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : ts) th.join();

    EXPECT_EQ(violations.load(), 0u) << "overlapping critical sections";
    for (int r = 0; r < locks; ++r) {
      EXPECT_EQ(count[static_cast<std::size_t>(r)]->peek(),
                wins_on[static_cast<std::size_t>(r)].load())
          << "resource " << r << " lost updates";
    }
    const LockStats s = space->stats();
    EXPECT_EQ(s.attempts,
              static_cast<std::uint64_t>(threads) * attempts);
    EXPECT_GT(s.wins, 0u);
  }
};

TEST(LockReal, StressFourThreadsDelaysOff) {
  RealStress s;
  s.threads = 4;
  s.attempts = 400;
  s.delay_mode = DelayMode::kOff;
  s.run();
}

TEST(LockReal, StressEightThreadsDelaysOff) {
  RealStress s;
  s.threads = 8;
  s.attempts = 150;
  s.delay_mode = DelayMode::kOff;
  s.run();
}

TEST(LockReal, StressWithTheoryDelays) {
  RealStress s;
  s.threads = 4;
  s.attempts = 60;
  s.delay_mode = DelayMode::kTheory;
  s.run();
}

// Wait-freedom smoke on real threads: retry-until-success with a paranoid
// upper bound on retries.
TEST(LockReal, RetryUntilSuccessAllThreadsComplete) {
  LockConfig cfg;
  cfg.kappa = 4;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 4;
  cfg.delay_mode = DelayMode::kOff;
  auto space = std::make_unique<Space>(cfg, 4, 2);
  Cell<RealPlat> total{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(0xABC + static_cast<std::uint64_t>(t));
      Session<RealPlat> session(*space);
      const StaticLockSet<2> ids({0, 1}, cfg);
      for (int wins = 0; wins < 50; ++wins) {
        const Outcome o = submit(
            session, ids,
            [&](IdemCtx<RealPlat>& m) { m.store(total, m.load(total) + 1); },
            Policy::attempts(100000));
        ASSERT_TRUE(o.won);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(total.peek(), 200u);  // 4 threads x 50 wins, exactly once each
}

}  // namespace
}  // namespace wfl
