// Baseline comparators: correctness of Spin2PL, Mutex2PL, Turek-style
// lock-free locks, and the Lehmann–Rabin philosophers protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "wfl/baseline/lehmann_rabin.hpp"
#include "wfl/baseline/mutex2pl.hpp"
#include "wfl/baseline/spin2pl.hpp"
#include "wfl/baseline/turek_backend.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"

namespace wfl {
namespace {

// The Turek baseline is driven through its LockBackend adapter — the same
// Session + submit shape as every other lock discipline.
template <typename Plat>
std::unique_ptr<typename TurekBackend<Plat>::Space> turek_space(
    int max_procs, int num_locks) {
  BackendConfig cfg;
  cfg.lock.kappa = static_cast<std::uint32_t>(max_procs);
  cfg.lock.delay_mode = DelayMode::kOff;
  cfg.max_procs = max_procs;
  cfg.num_locks = num_locks;
  return TurekBackend<Plat>::make_space(cfg);
}

TEST(Spin2PL, LockedRunsExclusively) {
  Spin2PL<RealPlat> locks(4);
  std::uint64_t counter = 0;  // plain: protected by the locks
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      const std::uint32_t ids[] = {1, 3};
      for (int i = 0; i < 5000; ++i) {
        locks.locked(ids, [&] { ++counter; });
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter, 20000u);
}

TEST(Spin2PL, TryLockedBacksOff) {
  Spin2PL<RealPlat> locks(2);
  const std::uint32_t ids[] = {0, 1};
  // Hold lock 1 on this thread through the raw interface: try must fail.
  const std::uint32_t hold[] = {1};
  bool inner_ran = false;
  locks.locked(hold, [&] {
    EXPECT_FALSE(locks.try_locked(ids, [&] { inner_ran = true; }));
  });
  EXPECT_FALSE(inner_ran);
  EXPECT_TRUE(locks.try_locked(ids, [&] { inner_ran = true; }));
  EXPECT_TRUE(inner_ran);
}

TEST(Mutex2PL, LockedRunsExclusively) {
  Mutex2PL locks(4);
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      const std::uint32_t ids[] = {0, 2};
      for (int i = 0; i < 5000; ++i) {
        locks.locked(ids, [&] { ++counter; });
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter, 20000u);
}

TEST(Turek, AppliesExactlyOnceSingleThread) {
  auto space = turek_space<RealPlat>(2, 4);
  TurekBackend<RealPlat>::Session session(*space);
  Cell<RealPlat> c{0};
  const Outcome o = TurekBackend<RealPlat>::submit(
      session, StaticLockSet<2>({0, 3}),
      [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); });
  EXPECT_TRUE(o.won);
  EXPECT_EQ(c.peek(), 1u);
}

TEST(Turek, ConcurrentTransfersConserveTotal) {
  auto space = turek_space<RealPlat>(4, 8);
  std::vector<std::unique_ptr<Cell<RealPlat>>> accounts;
  for (int i = 0; i < 8; ++i) {
    accounts.push_back(std::make_unique<Cell<RealPlat>>(100u));
  }
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      TurekBackend<RealPlat>::Session session(*space);
      Xoshiro256 rng(55 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        const std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(8));
        const std::uint32_t b = static_cast<std::uint32_t>((a + 1 +
            rng.next_below(7)) % 8);
        Cell<RealPlat>& src = *accounts[a];
        Cell<RealPlat>& dst = *accounts[b];
        TurekBackend<RealPlat>::submit(
            session, StaticLockSet<2>({a, b}),
            [&src, &dst](IdemCtx<RealPlat>& m) {
              const std::uint32_t s = m.load(src);
              if (s >= 1) {
                m.store(src, s - 1);
                m.store(dst, m.load(dst) + 1);
              }
            });
      }
    });
  }
  for (auto& th : ts) th.join();
  std::uint64_t total = 0;
  for (const auto& a : accounts) total += a->peek();
  EXPECT_EQ(total, 800u);
}

TEST(Turek, HelpingHappensUnderSimStarvation) {
  // Process 0 grabs locks and is then starved; process 1 must finish *its
  // own* operation anyway by helping process 0 through — the property that
  // distinguishes lock-free locks from blocking 2PL.
  auto space = turek_space<SimPlat>(2, 2);
  Cell<SimPlat> c{0};
  Simulator sim(17);
  int completed = 0;
  for (int p = 0; p < 2; ++p) {
    sim.add_process([&, p] {
      TurekBackend<SimPlat>::Session session(*space);
      const StaticLockSet<2> ids({0, 1});
      for (int i = 0; i < 5; ++i) {
        TurekBackend<SimPlat>::submit(session, ids, [&c](IdemCtx<SimPlat>& m) {
          m.store(c, m.load(c) + 1);
        });
      }
      (void)p;
      ++completed;
    });
  }
  // Process 0 gets very few slots: its operations complete via helping.
  WeightedSchedule sched({0.02, 1.0}, 23);
  ASSERT_TRUE(sim.run(sched, 500'000'000));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(c.peek(), 10u);
}

TEST(LehmannRabin, EveryPhilosopherEventuallyEats) {
  const int n = 5;
  LehmannRabinTable<SimPlat> table(n);
  std::vector<std::uint64_t> rounds(static_cast<std::size_t>(n), 0);
  Simulator sim(41);
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      for (int meal = 0; meal < 10; ++meal) {
        rounds[static_cast<std::size_t>(p)] +=
            table.dine(p, /*max_rounds=*/1'000'000);
      }
    });
  }
  UniformSchedule sched(n, 4242);
  ASSERT_TRUE(sim.run(sched, 500'000'000));
  for (int p = 0; p < n; ++p) {
    EXPECT_GE(rounds[static_cast<std::size_t>(p)], 10u);  // >=1 round/meal
  }
}

TEST(LehmannRabin, RealThreadsSmoke) {
  const int n = 4;
  LehmannRabinTable<RealPlat> table(n);
  std::vector<std::thread> ts;
  std::atomic<std::uint64_t> meals{0};
  for (int p = 0; p < n; ++p) {
    ts.emplace_back([&, p] {
      RealPlat::seed_rng(900 + static_cast<std::uint64_t>(p));
      for (int meal = 0; meal < 200; ++meal) {
        table.dine(p);
        meals.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(meals.load(), static_cast<std::uint64_t>(n) * 200);
}

}  // namespace
}  // namespace wfl
