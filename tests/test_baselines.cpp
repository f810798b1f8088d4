// Baseline comparators: correctness of the spin2pl, mutex2pl and Turek-style
// lock-free backends, and of the Lehmann–Rabin philosophers protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "wfl/baseline/lehmann_rabin.hpp"
#include "wfl/baseline/mutex2pl.hpp"
#include "wfl/baseline/spin2pl.hpp"
#include "wfl/baseline/turek.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"

namespace wfl {
namespace {

// Every baseline is driven through its LockBackend — the same Session +
// submit shape as every other lock discipline.
template <typename B>
std::unique_ptr<typename B::Space> backend_space(int max_procs,
                                                 int num_locks) {
  BackendConfig cfg;
  cfg.lock.kappa = static_cast<std::uint32_t>(max_procs);
  cfg.lock.delay_mode = DelayMode::kOff;
  cfg.max_procs = max_procs;
  cfg.num_locks = num_locks;
  return B::make_space(cfg);
}

// Four threads retrying two-lock submissions: the plain counter only adds
// up if the critical sections never overlap.
template <typename B>
void expect_retry_runs_exclusively() {
  auto space = backend_space<B>(4, 4);
  std::uint64_t counter = 0;  // plain: protected by the locks
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      typename B::Session session(*space);
      const StaticLockSet<2> ids({1, 3});
      for (int i = 0; i < 5000; ++i) {
        const Outcome o = B::submit(
            session, ids, [&](IdemCtx<RealPlat>&) { ++counter; },
            Policy::retry());
        EXPECT_TRUE(o.won);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter, 20000u);
}

// While a peer session's thunk sits on lock 1, a one-shot submission on
// {0, 1} loses without running its thunk; once the peer is out, it wins.
template <typename B>
void expect_one_shot_loses_while_peer_holds() {
  auto space = backend_space<B>(2, 2);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread peer([&] {
    typename B::Session session(*space);
    B::submit(
        session, StaticLockSet<1>({1}),
        [&](IdemCtx<RealPlat>&) {
          holding.store(true);
          while (!release.load()) std::this_thread::yield();
        },
        Policy::retry());
  });
  while (!holding.load()) std::this_thread::yield();

  typename B::Session session(*space);
  const StaticLockSet<2> ids({0, 1});
  bool ran = false;
  const Outcome lost =
      B::submit(session, ids, [&](IdemCtx<RealPlat>&) { ran = true; },
                Policy::one_shot());
  EXPECT_FALSE(lost.won);
  EXPECT_EQ(lost.attempts, 1u);
  EXPECT_FALSE(ran);

  release.store(true);
  peer.join();
  const Outcome won =
      B::submit(session, ids, [&](IdemCtx<RealPlat>&) { ran = true; },
                Policy::one_shot());
  EXPECT_TRUE(won.won);
  EXPECT_TRUE(ran);
}

TEST(Spin2pl, RetryRunsExclusively) {
  expect_retry_runs_exclusively<Spin2plBackend<RealPlat>>();
}

TEST(Spin2pl, OneShotLosesWhilePeerHoldsALock) {
  expect_one_shot_loses_while_peer_holds<Spin2plBackend<RealPlat>>();
}

TEST(Mutex2pl, RetryRunsExclusively) {
  expect_retry_runs_exclusively<Mutex2plBackend>();
}

TEST(Mutex2pl, OneShotLosesWhilePeerHoldsALock) {
  expect_one_shot_loses_while_peer_holds<Mutex2plBackend>();
}

TEST(Turek, AppliesExactlyOnceSingleThread) {
  auto space = backend_space<TurekBackend<RealPlat>>(2, 4);
  TurekBackend<RealPlat>::Session session(*space);
  Cell<RealPlat> c{0};
  const Outcome o = TurekBackend<RealPlat>::submit(
      session, StaticLockSet<2>({0, 3}),
      [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); });
  EXPECT_TRUE(o.won);
  EXPECT_EQ(c.peek(), 1u);
}

TEST(Turek, ConcurrentTransfersConserveTotal) {
  auto space = backend_space<TurekBackend<RealPlat>>(4, 8);
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
  auto space = backend_space<TurekBackend<SimPlat>>(2, 2);
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
  EXPECT_GT(space->helps(), 0u);
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
