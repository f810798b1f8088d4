// Application substrates: the bank and the fine-grained locked list, on
// both platforms, with their global invariants audited after the dust
// settles.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig bank_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs);
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(Bank, SingleTransferMovesMoney) {
  LockTable<RealPlat> space(bank_cfg(1), 1, 4);
  Bank<RealPlat> bank(space, 4, 100);
  BasicSession proc(space);
  bool denied = false;
  EXPECT_TRUE(bank.try_transfer(proc, 0, 1, 30, &denied));
  EXPECT_FALSE(denied);
  EXPECT_EQ(bank.balance(0), 70u);
  EXPECT_EQ(bank.balance(1), 130u);
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
}

TEST(Bank, InsufficientFundsDeniedNotLost) {
  LockTable<RealPlat> space(bank_cfg(1), 1, 2);
  Bank<RealPlat> bank(space, 2, 10);
  BasicSession proc(space);
  bool denied = false;
  EXPECT_TRUE(bank.try_transfer(proc, 0, 1, 50, &denied));
  EXPECT_TRUE(denied);
  EXPECT_EQ(bank.balance(0), 10u);
  EXPECT_EQ(bank.total_balance(), 20u);
}

TEST(Bank, ConcurrentChurnConservesTotal) {
  const int threads = 4, accounts = 8;
  LockTable<RealPlat> space(bank_cfg(threads), threads, accounts);
  Bank<RealPlat> bank(space, accounts, 1000);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(77 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < 1500; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(accounts));
        auto b = static_cast<std::uint32_t>(rng.next_below(accounts));
        if (b == a) b = (b + 1) % accounts;
        bank.try_transfer(proc, a, b,
                          static_cast<std::uint32_t>(rng.next_below(20)));
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
}

TEST(Bank, SimConservesTotalUnderSkew) {
  const int procs = 4, accounts = 4;
  LockConfig cfg = bank_cfg(procs);
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  LockTable<SimPlat> space(cfg, procs, accounts);
  Bank<SimPlat> bank(space, accounts, 500);
  Simulator sim(3);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      Xoshiro256 rng(p * 3 + 1);
      for (int i = 0; i < 25; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(accounts));
        auto b = static_cast<std::uint32_t>(rng.next_below(accounts));
        if (b == a) b = (b + 1) % accounts;
        bank.try_transfer(proc, a, b, 5);
      }
    });
  }
  WeightedSchedule sched({1.0, 0.05, 1.0, 0.3}, 19);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
}

LockConfig list_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs) + 1;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(LockedList, SequentialSetSemantics) {
  LockTable<RealPlat> space(list_cfg(1), 1, 64);
  LockedList<RealPlat> list(space, 64);
  BasicSession proc(space);
  EXPECT_TRUE(list.insert(proc, 5));
  EXPECT_TRUE(list.insert(proc, 3));
  EXPECT_TRUE(list.insert(proc, 9));
  EXPECT_FALSE(list.insert(proc, 5));  // duplicate
  EXPECT_TRUE(list.contains(3));
  EXPECT_FALSE(list.contains(4));
  EXPECT_EQ(list.keys(), (std::vector<std::uint32_t>{3, 5, 9}));
  EXPECT_TRUE(list.erase(proc, 5));
  EXPECT_FALSE(list.erase(proc, 5));
  EXPECT_EQ(list.keys(), (std::vector<std::uint32_t>{3, 9}));
}

TEST(LockedList, InsertEraseInterleavedSequential) {
  LockTable<RealPlat> space(list_cfg(1), 1, 128);
  LockedList<RealPlat> list(space, 128);
  BasicSession proc(space);
  std::set<std::uint32_t> model;
  Xoshiro256 rng(8);
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(1 + rng.next_below(40));
    if (rng.next_below(2) == 0) {
      EXPECT_EQ(list.insert(proc, key), model.insert(key).second);
    } else {
      EXPECT_EQ(list.erase(proc, key), model.erase(key) > 0);
    }
  }
  std::vector<std::uint32_t> expect(model.begin(), model.end());
  EXPECT_EQ(list.keys(), expect);
}

// quiescent_recycle makes the list usable indefinitely on a bounded pool:
// far more insert/erase cycles than the pool holds, with periodic
// recycling at quiescent points, and exact set semantics throughout.
TEST(LockedList, QuiescentRecycleSupportsUnboundedChurn) {
  constexpr std::uint32_t kCapacity = 32;
  LockTable<RealPlat> space(list_cfg(1), 1, kCapacity);
  LockedList<RealPlat> list(space, kCapacity);
  BasicSession proc(space);
  std::set<std::uint32_t> model;
  Xoshiro256 rng(99);
  std::uint64_t recycled = 0;
  for (int i = 0; i < 1'000; ++i) {  // ~30x the pool capacity in churn
    const std::uint32_t key =
        static_cast<std::uint32_t>(1 + rng.next_below(12));
    if (rng.next_below(2) == 0) {
      EXPECT_EQ(list.insert(proc, key), model.insert(key).second);
    } else {
      EXPECT_EQ(list.erase(proc, key), model.erase(key) > 0);
    }
    if (i % 8 == 0) recycled += list.quiescent_recycle();
  }
  recycled += list.quiescent_recycle();
  EXPECT_GT(recycled, static_cast<std::uint64_t>(kCapacity))
      << "recycling never exceeded the pool: churn was not unbounded";
  std::vector<std::uint32_t> expect(model.begin(), model.end());
  EXPECT_EQ(list.keys(), expect);
}

// Recycling with nothing retired is a no-op.
TEST(LockedList, RecycleOnEmptyRetireListIsNoop) {
  LockTable<RealPlat> space(list_cfg(1), 1, 16);
  LockedList<RealPlat> list(space, 16);
  BasicSession proc(space);
  EXPECT_EQ(list.quiescent_recycle(), 0u);
  EXPECT_TRUE(list.insert(proc, 7));
  EXPECT_EQ(list.quiescent_recycle(), 0u);  // inserts retire nothing
  EXPECT_TRUE(list.erase(proc, 7));
  EXPECT_EQ(list.quiescent_recycle(), 1u);
}

TEST(LockedList, ConcurrentDisjointKeyRanges) {
  // Each thread owns a key range; all ranges interleave positionally in the
  // list, so neighbors' lock sets collide constantly.
  const int threads = 4;
  LockTable<RealPlat> space(list_cfg(threads), threads, 512);
  LockedList<RealPlat> list(space, 512);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(31 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      for (int k = 0; k < 60; ++k) {
        ASSERT_TRUE(list.insert(
            proc, static_cast<std::uint32_t>(1 + k * threads + t)));
      }
      for (int k = 0; k < 60; k += 2) {
        ASSERT_TRUE(list.erase(
            proc, static_cast<std::uint32_t>(1 + k * threads + t)));
      }
    });
  }
  for (auto& th : ts) th.join();
  const auto keys = list.keys();
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(threads) * 30);
}

TEST(LockedList, ConcurrentSameKeysLastWriterConsistent) {
  const int threads = 4;
  // ~800 successful inserts and no node recycling (documented trade-off):
  // the pool must cover every allocation the workload ever makes.
  LockTable<RealPlat> space(list_cfg(threads), threads, 2048);
  LockedList<RealPlat> list(space, 2048);
  std::atomic<int> net[40] = {};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(71 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      Xoshiro256 rng(t * 9 + 2);
      for (int i = 0; i < 400; ++i) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(1 + rng.next_below(40));
        if (rng.next_below(2) == 0) {
          if (list.insert(proc, key)) net[key - 1].fetch_add(1);
        } else {
          if (list.erase(proc, key)) net[key - 1].fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // Net insertions per key must equal final membership (0 or 1).
  const auto keys = list.keys();
  for (std::uint32_t k = 1; k <= 40; ++k) {
    const bool present =
        std::find(keys.begin(), keys.end(), k) != keys.end();
    EXPECT_EQ(net[k - 1].load(), present ? 1 : 0) << "key " << k;
  }
}

TEST(LockedList, SimWorkloadUnderAdversarialSchedule) {
  const int procs = 3;
  LockConfig cfg = list_cfg(procs);
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  LockTable<SimPlat> space(cfg, procs, 128);
  LockedList<SimPlat> list(space, 128);
  Simulator sim(4);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      for (int k = 0; k < 12; ++k) {
        list.insert(proc,
                    static_cast<std::uint32_t>(1 + k * procs + p));
      }
      for (int k = 0; k < 12; k += 2) {
        list.erase(proc, static_cast<std::uint32_t>(1 + k * procs + p));
      }
    });
  }
  StallBurstSchedule sched(procs, 13, 1024);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  EXPECT_EQ(list.keys().size(), static_cast<std::size_t>(procs) * 6);
}

}  // namespace
}  // namespace wfl
