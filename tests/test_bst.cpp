// LockedBst: external search tree over wait-free tryLocks — sequential
// set semantics against a reference model, structural audits, concurrent
// churn on real threads, and deterministic adversarial interleavings under
// the simulator (including the insert-vs-erase interposition race the
// erase thunk's p_child validation exists for).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig bst_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs) + 1;
  cfg.max_locks = 3;
  cfg.max_thunk_steps = 16;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(Bst, EmptyTreeBasics) {
  LockTable<RealPlat> space(bst_cfg(1), 1, 64);
  LockedBst<RealPlat> bst(space, 64);
  BasicSession proc(space);
  EXPECT_FALSE(bst.contains(7));
  EXPECT_FALSE(bst.erase(proc, 7));
  EXPECT_TRUE(bst.keys().empty());
  bst.check_structure();
}

TEST(Bst, InsertThenFind) {
  LockTable<RealPlat> space(bst_cfg(1), 1, 64);
  LockedBst<RealPlat> bst(space, 64);
  BasicSession proc(space);
  EXPECT_TRUE(bst.insert(proc, 10));
  EXPECT_TRUE(bst.insert(proc, 5));
  EXPECT_TRUE(bst.insert(proc, 20));
  EXPECT_FALSE(bst.insert(proc, 10));  // duplicate
  EXPECT_TRUE(bst.contains(5));
  EXPECT_TRUE(bst.contains(10));
  EXPECT_TRUE(bst.contains(20));
  EXPECT_FALSE(bst.contains(6));
  EXPECT_EQ(bst.keys(), (std::vector<std::uint32_t>{5, 10, 20}));
  bst.check_structure();
}

TEST(Bst, EraseLeafAndReinsert) {
  LockTable<RealPlat> space(bst_cfg(1), 1, 64);
  LockedBst<RealPlat> bst(space, 64);
  BasicSession proc(space);
  EXPECT_TRUE(bst.insert(proc, 8));
  EXPECT_TRUE(bst.insert(proc, 4));
  EXPECT_TRUE(bst.insert(proc, 12));
  EXPECT_TRUE(bst.erase(proc, 4));
  EXPECT_FALSE(bst.erase(proc, 4));
  EXPECT_FALSE(bst.contains(4));
  EXPECT_EQ(bst.keys(), (std::vector<std::uint32_t>{8, 12}));
  EXPECT_TRUE(bst.insert(proc, 4));
  EXPECT_EQ(bst.keys(), (std::vector<std::uint32_t>{4, 8, 12}));
  bst.check_structure();
}

TEST(Bst, EraseSoleKeyLeavesEmptyTree) {
  LockTable<RealPlat> space(bst_cfg(1), 1, 32);
  LockedBst<RealPlat> bst(space, 32);
  BasicSession proc(space);
  EXPECT_TRUE(bst.insert(proc, 42));
  EXPECT_TRUE(bst.erase(proc, 42));
  EXPECT_TRUE(bst.keys().empty());
  bst.check_structure();
  EXPECT_TRUE(bst.insert(proc, 42));
  EXPECT_EQ(bst.keys(), (std::vector<std::uint32_t>{42}));
}

TEST(Bst, AscendingAndDescendingInsertionsStaySorted) {
  LockTable<RealPlat> space(bst_cfg(1), 1, 256);
  LockedBst<RealPlat> bst(space, 256);
  BasicSession proc(space);
  for (std::uint32_t k = 1; k <= 30; ++k) EXPECT_TRUE(bst.insert(proc, k));
  for (std::uint32_t k = 100; k >= 71; --k) EXPECT_TRUE(bst.insert(proc, k));
  const auto keys = bst.keys();
  ASSERT_EQ(keys.size(), 60u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  bst.check_structure();
}

TEST(Bst, RandomizedAgainstReferenceModel) {
  LockTable<RealPlat> space(bst_cfg(1), 1, 1024);
  LockedBst<RealPlat> bst(space, 1024);
  BasicSession proc(space);
  std::set<std::uint32_t> model;
  Xoshiro256 rng(1234);
  for (int i = 0; i < 600; ++i) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(1 + rng.next_below(50));
    switch (rng.next_below(3)) {
      case 0:
        EXPECT_EQ(bst.insert(proc, key), model.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(bst.erase(proc, key), model.erase(key) > 0);
        break;
      default:
        EXPECT_EQ(bst.contains(key), model.count(key) > 0);
    }
  }
  std::vector<std::uint32_t> expect(model.begin(), model.end());
  EXPECT_EQ(bst.keys(), expect);
  bst.check_structure();
}

TEST(Bst, ConcurrentInsertsDisjointRanges) {
  const int threads = 4;
  LockTable<RealPlat> space(bst_cfg(threads), threads, 2048);
  LockedBst<RealPlat> bst(space, 2048);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(91 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      for (std::uint32_t i = 1; i <= 60; ++i) {
        EXPECT_TRUE(bst.insert(proc, static_cast<std::uint32_t>(t) * 100 + i));
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bst.keys().size(), 4u * 60u);
  bst.check_structure();
}

TEST(Bst, ConcurrentChurnMatchesPerKeyAccounting) {
  // Each thread owns a disjoint key range and performs a deterministic
  // insert/erase sequence; the final membership per range must match the
  // thread's own accounting even though neighbourhood locks overlap at the
  // range boundaries through shared routers.
  const int threads = 4;
  LockTable<RealPlat> space(bst_cfg(threads), threads, 4096);
  LockedBst<RealPlat> bst(space, 4096);
  std::vector<std::set<std::uint32_t>> finals(threads);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(7 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      Xoshiro256 rng(t * 17 + 3);
      std::set<std::uint32_t>& model = finals[static_cast<std::size_t>(t)];
      for (int i = 0; i < 400; ++i) {
        const std::uint32_t key = static_cast<std::uint32_t>(
            t * 1000 + 1 + static_cast<int>(rng.next_below(30)));
        if (rng.next_below(2) == 0) {
          EXPECT_EQ(bst.insert(proc, key), model.insert(key).second);
        } else {
          EXPECT_EQ(bst.erase(proc, key), model.erase(key) > 0);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  std::vector<std::uint32_t> expect;
  for (auto& m : finals) expect.insert(expect.end(), m.begin(), m.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(bst.keys(), expect);
  bst.check_structure();
}

TEST(Bst, ConcurrentSharedKeysNoLostStructure) {
  // All threads hammer the same small key set: maximum neighbourhood
  // contention. The final set must be *some* subset of the key universe
  // with intact structure (exact membership depends on interleaving).
  const int threads = 4;
  LockTable<RealPlat> space(bst_cfg(threads), threads, 4096);
  LockedBst<RealPlat> bst(space, 4096);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(55 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      Xoshiro256 rng(t * 31 + 5);
      for (int i = 0; i < 300; ++i) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(1 + rng.next_below(8));
        if (rng.next_below(2) == 0) {
          bst.insert(proc, key);
        } else {
          bst.erase(proc, key);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  const auto keys = bst.keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (const std::uint32_t k : keys) {
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 8u);
  }
  bst.check_structure();
}

// --- deterministic interleavings under the simulator --------------------

TEST(BstSim, AdjacentKeyChurnUnderSkewedSchedule) {
  const int procs = 4;
  LockConfig cfg = bst_cfg(procs);
  LockTable<SimPlat> space(cfg, procs, 1024);
  LockedBst<SimPlat> bst(space, 1024);
  Simulator sim(11);
  std::vector<std::set<std::uint32_t>> finals(procs);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      Xoshiro256 rng(p * 7 + 1);
      std::set<std::uint32_t>& model = finals[static_cast<std::size_t>(p)];
      for (int i = 0; i < 40; ++i) {
        // Adjacent disjoint ranges => constant boundary conflicts.
        const std::uint32_t key = static_cast<std::uint32_t>(
            p * 10 + 1 + static_cast<int>(rng.next_below(10)));
        if (rng.next_below(2) == 0) {
          EXPECT_EQ(bst.insert(proc, key), model.insert(key).second);
        } else {
          EXPECT_EQ(bst.erase(proc, key), model.erase(key) > 0);
        }
      }
    });
  }
  WeightedSchedule sched({1.0, 0.02, 0.5, 1.0}, 23);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  std::vector<std::uint32_t> expect;
  for (auto& m : finals) expect.insert(expect.end(), m.begin(), m.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(bst.keys(), expect);
  bst.check_structure();
}

struct BstSimParam {
  std::uint64_t sim_seed;
  std::uint64_t sched_seed;
  int procs;
};

class BstSimSweep : public ::testing::TestWithParam<BstSimParam> {};

TEST_P(BstSimSweep, SharedUniverseChurnKeepsStructure) {
  const BstSimParam prm = GetParam();
  LockConfig cfg = bst_cfg(prm.procs);
  LockTable<SimPlat> space(cfg, prm.procs, 1024);
  LockedBst<SimPlat> bst(space, 1024);
  Simulator sim(prm.sim_seed);
  for (int p = 0; p < prm.procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      Xoshiro256 rng(static_cast<std::uint64_t>(p) * 13 + prm.sim_seed);
      for (int i = 0; i < 30; ++i) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(1 + rng.next_below(6));
        if (rng.next_below(2) == 0) {
          bst.insert(proc, key);
        } else {
          bst.erase(proc, key);
        }
      }
    });
  }
  UniformSchedule sched(prm.procs, prm.sched_seed);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  const auto keys = bst.keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  bst.check_structure();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BstSimSweep,
    ::testing::Values(BstSimParam{1, 101, 2}, BstSimParam{2, 102, 3},
                      BstSimParam{3, 103, 4}, BstSimParam{4, 104, 4},
                      BstSimParam{5, 105, 5}, BstSimParam{6, 106, 6}),
    [](const ::testing::TestParamInfo<BstSimParam>& info) {
      return "seed" + std::to_string(info.param.sim_seed) + "procs" +
             std::to_string(info.param.procs);
    });

TEST(BstSim, DeterministicReplay) {
  auto run_once = [] {
    const int procs = 3;
    LockConfig cfg = bst_cfg(procs);
    LockTable<SimPlat> space(cfg, procs, 512);
    LockedBst<SimPlat> bst(space, 512);
    Simulator sim(77);
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        BasicSession proc(space);
        Xoshiro256 rng(p + 1);
        for (int i = 0; i < 25; ++i) {
          const std::uint32_t key =
              static_cast<std::uint32_t>(1 + rng.next_below(12));
          if (rng.next_below(2) == 0) {
            bst.insert(proc, key);
          } else {
            bst.erase(proc, key);
          }
        }
      });
    }
    UniformSchedule sched(procs, 99);
    EXPECT_TRUE(sim.run(sched, 2'000'000'000ull));
    return bst.keys();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace wfl
