// Cross-module integration: multiple application substrates sharing one
// lock space, mixed sim workloads, and end-to-end scenario sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

// Bank accounts and a locked list sharing ONE lock space: lock ids
// [0, accounts) guard balances, [accounts, accounts+list_cap) guard list
// nodes. Operations that touch both (an "audit trail" insert per transfer)
// exercise disjoint lock-set attempts interleaving in the same space.
TEST(Integration, BankAndListShareALockSpace) {
  using Plat = RealPlat;
  const int threads = 3;
  // Up to 3*200 audit entries and no node recycling: size the list
  // pool (= its lock count) for the whole workload.
  const std::uint32_t accounts = 4, list_cap = 1024;
  LockConfig cfg;
  cfg.kappa = threads + 1;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = DelayMode::kOff;
  LockTable<Plat> space(cfg, threads, static_cast<int>(accounts + list_cap));

  Bank<Plat> bank(space, accounts, 100);

  // The list gets its own space (its lock ids are node indices); sharing
  // ids with the bank would alias locks.
  LockTable<Plat> list_space(cfg, threads, static_cast<int>(list_cap));
  LockedList<Plat> list(list_space, list_cap);

  std::vector<std::thread> ts;
  std::atomic<std::uint32_t> audit_key{1};
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Plat::seed_rng(600 + static_cast<std::uint64_t>(t));
      BasicSession bproc(space);
      BasicSession lproc(list_space);
      Xoshiro256 rng(t * 5 + 1);
      for (int i = 0; i < 200; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(accounts));
        auto b = static_cast<std::uint32_t>(rng.next_below(accounts));
        if (b == a) b = (b + 1) % accounts;
        if (bank.try_transfer(bproc, a, b, 1)) {
          // Record an audit entry with a globally unique key.
          const std::uint32_t key = audit_key.fetch_add(1);
          ASSERT_TRUE(list.insert(lproc, key));
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
  // Audit log: exactly one entry per successful transfer, all distinct.
  const auto keys = list.keys();
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(audit_key.load() - 1));
}

// The known-bounds and unknown-bounds (§6.2) tables produce identical
// application-level results on the same deterministic workload (different
// fairness, same safety). Both run through the one generic session/submit
// path — the executor's whole point.
TEST(Integration, KnownAndAdaptiveAgreeOnOutcomeInvariants) {
  auto run_with = [](auto& space) {
    Cell<SimPlat> counter{0};
    Simulator sim(55);
    std::uint64_t wins = 0;
    for (int p = 0; p < 3; ++p) {
      sim.add_process([&, p] {
        BasicSession session(space);
        (void)p;
        const StaticLockSet<2> locks{0, 1};
        for (int a = 0; a < 30; ++a) {
          if (submit(session, locks, [&counter](IdemCtx<SimPlat>& m) {
                m.store(counter, m.load(counter) + 1);
              }).won) {
            ++wins;
          }
        }
      });
    }
    UniformSchedule sched(3, 555);
    EXPECT_TRUE(sim.run(sched, 4'000'000'000ull));
    return std::make_pair(wins, counter.peek());
  };

  LockConfig cfg;
  cfg.kappa = 3;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 4;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  LockTable<SimPlat> known(cfg, 3, 2);
  auto [kw, kc] = run_with(known);
  EXPECT_EQ(kw, kc);  // every win incremented exactly once

  LockConfig unknown;
  unknown.delay_mode = DelayMode::kUnknownBounds;
  LockTable<SimPlat> adaptive(unknown, 3, 2);
  auto [aw, ac] = run_with(adaptive);
  EXPECT_EQ(aw, ac);
}

// Philosophers harness over three different lock providers, same topology,
// in one binary — the experiment code path end to end, tiny sizes.
TEST(Integration, PhilosopherHarnessAcrossProviders) {
  const int n = 4, meals = 5;

  {  // wflock
    LockConfig cfg;
    cfg.kappa = 2;
    cfg.max_locks = 2;
    cfg.max_thunk_steps = 2;
    cfg.c0 = 8.0;
    cfg.c1 = 8.0;
    auto space = std::make_unique<LockTable<SimPlat>>(cfg, n, n);
    std::vector<PhilosopherReport> reports(n);
    Simulator sim(66);
    for (int p = 0; p < n; ++p) {
      sim.add_process([&, p] {
        BasicSession session(*space);
        const auto [l, r] = forks_of(p, n);
        const StaticLockSet<2> forks{l, r};
        run_philosopher_episodes<SimPlat>(
            p, meals, 16, 800 + p,
            [&](int) {
              return submit(session, forks, [](IdemCtx<SimPlat>&) {}).won;
            },
            reports[static_cast<std::size_t>(p)]);
      });
    }
    UniformSchedule sched(n, 7);
    ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
    for (const auto& r : reports) EXPECT_EQ(r.meals, meals);
  }
  {  // blocking spin 2PL (in sim; schedule is fair so no livelock)
    using Spin = Spin2plBackend<SimPlat>;
    BackendConfig bc;
    bc.max_procs = n;
    bc.num_locks = n;
    auto space = Spin::make_space(bc);
    std::vector<PhilosopherReport> reports(n);
    Simulator sim(67);
    for (int p = 0; p < n; ++p) {
      sim.add_process([&, p] {
        Spin::Session session(*space);
        const auto [l, r] = forks_of(p, n);
        const StaticLockSet<2> forks{l, r};
        run_philosopher_episodes<SimPlat>(
            p, meals, 16, 900 + p,
            [&](int) {
              return Spin::submit(session, forks, [](IdemCtx<SimPlat>&) {})
                  .won;
            },
            reports[static_cast<std::size_t>(p)]);
      });
    }
    UniformSchedule sched(n, 8);
    ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
    for (const auto& r : reports) EXPECT_EQ(r.meals, meals);
  }
  {  // Lehmann–Rabin
    LehmannRabinTable<SimPlat> table(n);
    std::vector<PhilosopherReport> reports(n);
    Simulator sim(68);
    for (int p = 0; p < n; ++p) {
      sim.add_process([&, p] {
        run_philosopher_episodes<SimPlat>(
            p, meals, 16, 1000 + p,
            [&](int pid) {
              table.dine(pid, 1'000'000);
              return true;  // blocking: an attempt is a meal
            },
            reports[static_cast<std::size_t>(p)]);
      });
    }
    UniformSchedule sched(n, 9);
    ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
    for (const auto& r : reports) EXPECT_EQ(r.meals, meals);
  }
}

// Stress the whole stack with the simulator's nastiest schedule shape:
// repeated long stall bursts while three substrates churn.
TEST(Integration, StallBurstTortureEndToEnd) {
  const int procs = 4;
  LockConfig cfg;
  cfg.kappa = procs;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  LockTable<SimPlat> space(cfg, procs, 8);
  Bank<SimPlat> bank(space, 8, 250);
  Simulator sim(77);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      Xoshiro256 rng(p * 11 + 3);
      for (int i = 0; i < 20; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(8));
        auto b = static_cast<std::uint32_t>(rng.next_below(8));
        if (b == a) b = (b + 1) % 8;
        bank.try_transfer(proc, a, b,
                          static_cast<std::uint32_t>(rng.next_below(5)));
      }
    });
  }
  StallBurstSchedule sched(procs, 31, 8192);
  ASSERT_TRUE(sim.run(sched, 4'000'000'000ull));
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
  EXPECT_EQ(space.stats().t0_overruns, 0u);
}

}  // namespace
}  // namespace wfl
