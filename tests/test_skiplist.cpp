// LockedSkipList: sequential semantics against std::set, structural tower
// invariants, concurrent linearization under sim schedules, and a real-
// thread stress run. The skip list is the repo's only substrate whose lock
// sets grow past two and overlap partially — the stress case for multi-lock
// attempts.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "wfl/apps/skiplist.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"
#include "wfl/util/rng.hpp"
#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig skip_cfg(std::uint32_t kappa) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = kSkipMaxLevel + 1;
  cfg.max_thunk_steps = 16;  // erase worst case: 3+3·2+3+1 = 13 ops
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return cfg;
}

// --- sequential semantics (single process under sim) ---

TEST(SkipList, SequentialInsertEraseContains) {
  using Space = LockTable<SimPlat>;
  Space space(skip_cfg(1), 1, 64);
  LockedSkipList<SimPlat> sl(space, 64);
  Simulator sim(3);
  sim.add_process([&] {
    BasicSession proc(space);
    EXPECT_TRUE(sl.insert(proc, 10, 1));
    EXPECT_TRUE(sl.insert(proc, 5, 2));
    EXPECT_TRUE(sl.insert(proc, 20, 3));
    EXPECT_FALSE(sl.insert(proc, 10, 1)) << "duplicate accepted";
    EXPECT_TRUE(sl.contains(10));
    EXPECT_TRUE(sl.contains(5));
    EXPECT_FALSE(sl.contains(7));
    EXPECT_TRUE(sl.erase(proc, 10));
    EXPECT_FALSE(sl.erase(proc, 10)) << "double erase succeeded";
    EXPECT_FALSE(sl.contains(10));
    EXPECT_TRUE(sl.insert(proc, 10, 2)) << "re-insert after erase failed";
  });
  RoundRobinSchedule sched(1);
  ASSERT_TRUE(sim.run(sched, 100'000'000));
  EXPECT_EQ(sl.keys(), (std::vector<std::uint32_t>{5, 10, 20}));
}

class SkipListRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SkipListRandomized, MatchesStdSetSequentially) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  using Space = LockTable<SimPlat>;
  Space space(skip_cfg(1), 1, 256);
  LockedSkipList<SimPlat> sl(space, 256);
  Simulator sim(seed);
  sim.add_process([&] {
    BasicSession proc(space);
    Xoshiro256 rng(seed * 77);
    std::set<std::uint32_t> ref;
    for (int i = 0; i < 200; ++i) {
      const auto key = static_cast<std::uint32_t>(1 + rng.next_below(40));
      if (rng.next_below(3) != 0) {
        const std::uint32_t lvl = LockedSkipList<SimPlat>::draw_level(rng);
        EXPECT_EQ(sl.insert(proc, key, lvl), ref.insert(key).second);
      } else {
        EXPECT_EQ(sl.erase(proc, key), ref.erase(key) == 1);
      }
      if (i % 50 == 0) {
        for (std::uint32_t k = 1; k <= 40; ++k) {
          EXPECT_EQ(sl.contains(k), ref.count(k) == 1) << "key " << k;
        }
      }
    }
    std::vector<std::uint32_t> expect(ref.begin(), ref.end());
    EXPECT_EQ(sl.keys(), expect);  // keys() also checks tower invariants
  });
  RoundRobinSchedule sched(1);
  ASSERT_TRUE(sim.run(sched, 1'000'000'000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipListRandomized, ::testing::Range(1, 7));

// --- concurrent: net-membership accounting under adversarial schedules ---
//
// Each process performs random inserts/erases; per key, the successful
// operations must alternate insert/erase (the locks linearize them), so
// net(key) = inserts - erases ∈ {0, 1} and final membership == net.
class SkipListConcurrent : public ::testing::TestWithParam<int> {};

TEST_P(SkipListConcurrent, NetMembershipConsistent) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  constexpr int kProcs = 4;
  constexpr int kKeys = 12;
  using Space = LockTable<SimPlat>;
  Space space(skip_cfg(kProcs), kProcs, 256);
  LockedSkipList<SimPlat> sl(space, 256);

  std::vector<std::vector<std::int64_t>> net(
      kProcs, std::vector<std::int64_t>(kKeys + 1, 0));

  Simulator sim(seed);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      Xoshiro256 rng(seed * 1009 + static_cast<std::uint64_t>(p));
      for (int i = 0; i < 25; ++i) {
        const auto key = static_cast<std::uint32_t>(1 + rng.next_below(kKeys));
        if (rng.next_below(2) == 0) {
          const std::uint32_t lvl = LockedSkipList<SimPlat>::draw_level(rng);
          if (sl.insert(proc, key, lvl)) {
            ++net[static_cast<std::size_t>(p)][key];
          }
        } else {
          if (sl.erase(proc, key)) --net[static_cast<std::size_t>(p)][key];
        }
      }
    });
  }
  StallBurstSchedule sched(kProcs, seed ^ 0x51, 1'000);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000));

  const std::vector<std::uint32_t> final_keys = sl.keys();
  for (std::uint32_t k = 1; k <= kKeys; ++k) {
    std::int64_t total = 0;
    for (int p = 0; p < kProcs; ++p) {
      total += net[static_cast<std::size_t>(p)][k];
    }
    EXPECT_GE(total, 0) << "key " << k << ": erase succeeded while absent";
    EXPECT_LE(total, 1) << "key " << k << ": double insert";
    const bool present =
        std::find(final_keys.begin(), final_keys.end(), k) != final_keys.end();
    EXPECT_EQ(present, total == 1) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipListConcurrent, ::testing::Range(1, 6));

// --- real threads: the same accounting, plus structural validation ---

TEST(SkipList, RealThreadStress) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  constexpr int kOpsPerThread = 400;
  using Space = LockTable<RealPlat>;
  LockConfig cfg = skip_cfg(kThreads);
  cfg.delay_mode = DelayMode::kOff;  // throughput mode; safety unaffected
  Space space(cfg, kThreads, 1024);
  LockedSkipList<RealPlat> sl(space, 1024);

  std::vector<std::vector<std::int64_t>> net(
      kThreads, std::vector<std::int64_t>(kKeys + 1, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BasicSession proc(space);
      Xoshiro256 rng(0xABCD + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto key = static_cast<std::uint32_t>(1 + rng.next_below(kKeys));
        if (rng.next_below(2) == 0) {
          const std::uint32_t lvl = LockedSkipList<RealPlat>::draw_level(rng);
          if (sl.insert(proc, key, lvl)) {
            ++net[static_cast<std::size_t>(t)][key];
          }
        } else {
          if (sl.erase(proc, key)) --net[static_cast<std::size_t>(t)][key];
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<std::uint32_t> final_keys = sl.keys();
  for (std::uint32_t k = 1; k <= kKeys; ++k) {
    std::int64_t total = 0;
    for (int t = 0; t < kThreads; ++t) {
      total += net[static_cast<std::size_t>(t)][k];
    }
    ASSERT_GE(total, 0) << "key " << k;
    ASSERT_LE(total, 1) << "key " << k;
    const bool present =
        std::find(final_keys.begin(), final_keys.end(), k) != final_keys.end();
    EXPECT_EQ(present, total == 1) << "key " << k;
  }
}

}  // namespace
}  // namespace wfl
