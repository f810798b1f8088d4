// LockedHashMap: per-bucket locking semantics against a reference model,
// chain-cap behaviour, the two-bucket atomic swap's invariants under
// contention, and deterministic simulator interleavings.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig map_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs) + 1;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = LockedHashMap<RealPlat>::thunk_step_budget();
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(HashMap, PutGetEraseBasics) {
  LockTable<RealPlat> space(map_cfg(1), 1, 16);
  LockedHashMap<RealPlat> map(space, 16, 256);
  BasicSession proc(space);
  EXPECT_EQ(map.put(proc, 1, 100), kMapOk);
  EXPECT_EQ(map.put(proc, 2, 200), kMapOk);
  std::uint32_t v = 0;
  EXPECT_TRUE(map.get(1, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(map.get_locked(proc, 2, &v), kMapOk);
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(map.get_locked(proc, 3, &v), kMapAbsent);
  EXPECT_EQ(map.put(proc, 1, 111), kMapExists);  // upsert
  EXPECT_TRUE(map.get(1, &v));
  EXPECT_EQ(v, 111u);
  EXPECT_EQ(map.erase(proc, 1), kMapOk);
  EXPECT_EQ(map.erase(proc, 1), kMapAbsent);
  EXPECT_FALSE(map.get(1, &v));
  EXPECT_EQ(map.size(), 1u);
}

TEST(HashMap, SingleBucketChainFillsToCapThenRejects) {
  // One bucket forces all keys into one chain.
  LockTable<RealPlat> space(map_cfg(1), 1, 1);
  LockedHashMap<RealPlat> map(space, 1, 64);
  BasicSession proc(space);
  for (std::uint64_t k = 1; k <= kMaxChain; ++k) {
    EXPECT_EQ(map.put(proc, k, static_cast<std::uint32_t>(k)), kMapOk);
  }
  EXPECT_EQ(map.put(proc, 999, 1), kMapFull);
  // Updating an existing key in a full chain still works.
  EXPECT_EQ(map.put(proc, 3, 33), kMapExists);
  // Erasing one frees a slot for the rejected key.
  EXPECT_EQ(map.erase(proc, 5), kMapOk);
  EXPECT_EQ(map.put(proc, 999, 1), kMapOk);
  EXPECT_EQ(map.size(), kMaxChain);
}

TEST(HashMap, SwapExchangesValues) {
  LockTable<RealPlat> space(map_cfg(1), 1, 32);
  LockedHashMap<RealPlat> map(space, 32, 64);
  BasicSession proc(space);
  ASSERT_EQ(map.put(proc, 10, 1), kMapOk);
  ASSERT_EQ(map.put(proc, 20, 2), kMapOk);
  EXPECT_EQ(map.swap(proc, 10, 20), kMapOk);
  std::uint32_t v = 0;
  EXPECT_TRUE(map.get(10, &v));
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(map.get(20, &v));
  EXPECT_EQ(v, 1u);
  // Missing keys: no effect, reported absent.
  EXPECT_EQ(map.swap(proc, 10, 99), kMapAbsent);
  EXPECT_TRUE(map.get(10, &v));
  EXPECT_EQ(v, 2u);
  // Self-swap (same key twice) is rejected as n1 == n2.
  EXPECT_EQ(map.swap(proc, 10, 10), kMapAbsent);
}

TEST(HashMap, RandomizedAgainstReferenceModel) {
  LockTable<RealPlat> space(map_cfg(1), 1, 16);
  LockedHashMap<RealPlat> map(space, 16, 512);
  BasicSession proc(space);
  std::map<std::uint64_t, std::uint32_t> model;
  Xoshiro256 rng(42);
  for (int i = 0; i < 800; ++i) {
    const std::uint64_t key = 1 + rng.next_below(60);
    const auto val = static_cast<std::uint32_t>(rng.next_below(1000));
    switch (rng.next_below(3)) {
      case 0: {
        const std::uint32_t r = map.put(proc, key, val);
        if (r == kMapOk) {
          EXPECT_EQ(model.count(key), 0u);
          model[key] = val;
        } else if (r == kMapExists) {
          EXPECT_EQ(model.count(key), 1u);
          model[key] = val;
        }  // kMapFull: model unchanged
        break;
      }
      case 1: {
        const std::uint32_t r = map.erase(proc, key);
        EXPECT_EQ(r == kMapOk, model.erase(key) > 0);
        break;
      }
      default: {
        std::uint32_t v = 0;
        const std::uint32_t r = map.get_locked(proc, key, &v);
        if (model.count(key)) {
          EXPECT_EQ(r, kMapOk);
          EXPECT_EQ(v, model[key]);
        } else {
          EXPECT_EQ(r, kMapAbsent);
        }
      }
    }
  }
  EXPECT_EQ(map.size(), model.size());
  for (const auto& [k, v] : model) {
    std::uint32_t got = 0;
    EXPECT_TRUE(map.get(k, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(HashMap, ConcurrentDisjointKeysAllLand) {
  const int threads = 4;
  // 400 keys over 256 buckets: deterministic max chain for these keys is
  // 6, comfortably under kMaxChain (64 buckets reaches 13 and trips the
  // documented chain cap).
  LockTable<RealPlat> space(map_cfg(threads), threads, 256);
  LockedHashMap<RealPlat> map(space, 256, 2048);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(31 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(map.put(proc, static_cast<std::uint64_t>(t) * 1000 + i,
                          static_cast<std::uint32_t>(i)),
                  kMapOk);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(map.size(), 400u);
}

TEST(HashMap, ConcurrentSwapsConserveValueMultiset) {
  // Swaps permute values among keys; the multiset of values is invariant.
  // Any torn swap (one side applied) would break the permutation.
  const int threads = 4;
  const std::uint64_t nkeys = 16;
  // threads workers + 1 setup process register with the space.
  LockTable<RealPlat> space(map_cfg(threads + 1), threads + 1, 64);
  LockedHashMap<RealPlat> map(space, 64, 256);
  {
    BasicSession proc(space);
    for (std::uint64_t k = 0; k < nkeys; ++k) {
      ASSERT_EQ(map.put(proc, k + 1, static_cast<std::uint32_t>(k + 1)),
                kMapOk);
    }
  }
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(63 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      Xoshiro256 rng(t * 11 + 1);
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t a = 1 + rng.next_below(nkeys);
        std::uint64_t b = 1 + rng.next_below(nkeys);
        if (b == a) b = 1 + (b % nkeys);
        EXPECT_EQ(map.swap(proc, a, b), a == b ? kMapAbsent : kMapOk);
      }
    });
  }
  for (auto& th : ts) th.join();
  std::vector<std::uint32_t> values;
  for (std::uint64_t k = 1; k <= nkeys; ++k) {
    std::uint32_t v = 0;
    ASSERT_TRUE(map.get(k, &v));
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (std::uint64_t k = 0; k < nkeys; ++k) {
    EXPECT_EQ(values[k], static_cast<std::uint32_t>(k + 1));
  }
}

TEST(HashMapSim, MixedChurnUnderStallBurstSchedule) {
  const int procs = 4;
  LockConfig cfg = map_cfg(procs);
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 4.0;  // small constants keep the sim run short; overruns are
  cfg.c1 = 4.0;  // harmless for this safety-only test
  LockTable<SimPlat> space(cfg, procs, 8);
  LockedHashMap<SimPlat> map(space, 8, 512);
  Simulator sim(5);
  std::vector<std::map<std::uint64_t, std::uint32_t>> finals(procs);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      Xoshiro256 rng(p * 9 + 2);
      auto& model = finals[static_cast<std::size_t>(p)];
      for (int i = 0; i < 25; ++i) {
        // Disjoint per-process key ranges but shared buckets (8 buckets,
        // many keys): bucket-level contention without key-level races.
        const std::uint64_t key = static_cast<std::uint64_t>(p) * 100 + 1 +
                                  rng.next_below(20);
        if (rng.next_below(2) == 0) {
          const std::uint32_t r =
              map.put(proc, key, static_cast<std::uint32_t>(i));
          if (r != kMapFull) model[key] = static_cast<std::uint32_t>(i);
        } else {
          const std::uint32_t r = map.erase(proc, key);
          EXPECT_EQ(r == kMapOk, model.erase(key) > 0);
        }
      }
    });
  }
  StallBurstSchedule sched(procs, 31, 4000);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  std::size_t expect_size = 0;
  for (auto& m : finals) {
    expect_size += m.size();
    for (const auto& [k, v] : m) {
      std::uint32_t got = 0;
      EXPECT_TRUE(map.get(k, &got));
      EXPECT_EQ(got, v);
    }
  }
  EXPECT_EQ(map.size(), expect_size);
}

}  // namespace
}  // namespace wfl
