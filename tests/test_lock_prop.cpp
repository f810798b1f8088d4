// Property sweep: mutual exclusion + exactly-once execution must hold for
// every combination of (process count, lock count, schedule family, seed).
// One TEST_P instantiation = one deterministic adversarial universe.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using Space = LockTable<SimPlat>;

enum class SchedKind { kRoundRobin, kUniform, kWeighted, kStallBurst };

std::string sched_name(SchedKind k) {
  switch (k) {
    case SchedKind::kRoundRobin: return "rr";
    case SchedKind::kUniform: return "uni";
    case SchedKind::kWeighted: return "wgt";
    case SchedKind::kStallBurst: return "stall";
  }
  return "?";
}

std::unique_ptr<Schedule> make_sched(SchedKind k, int n, std::uint64_t seed) {
  switch (k) {
    case SchedKind::kRoundRobin:
      return std::make_unique<RoundRobinSchedule>(n);
    case SchedKind::kUniform:
      return std::make_unique<UniformSchedule>(n, seed);
    case SchedKind::kWeighted: {
      std::vector<double> w(static_cast<std::size_t>(n), 1.0);
      w[0] = 0.02;  // one slow process
      if (n > 1) w[static_cast<std::size_t>(n - 1)] = 5.0;  // one fast
      return std::make_unique<WeightedSchedule>(w, seed);
    }
    case SchedKind::kStallBurst:
      return std::make_unique<StallBurstSchedule>(n, seed, 1500);
  }
  return nullptr;
}

using Param = std::tuple<DelayMode, int /*procs*/, int /*locks*/, SchedKind,
                         std::uint64_t /*seed*/>;

class LockProperty : public ::testing::TestWithParam<Param> {};

TEST_P(LockProperty, MutualExclusionAndExactlyOnce) {
  const auto [mode, procs, locks, kind, seed] = GetParam();
  // The §6.2 grid is lighter (its attempts are longer because of the
  // power-of-two padding) and keeps its own seed derivations.
  const bool known = mode == DelayMode::kTheory;
  const int attempts = known ? 18 : 12;
  const std::uint64_t rng_mul = known ? 131 : 17;
  const std::uint64_t sched_salt = known ? 0xACE : 0xBEE;

  LockConfig cfg;  // kUnknownBounds reads only max_locks
  cfg.kappa = static_cast<std::uint32_t>(procs);
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  cfg.delay_mode = mode;
  auto space = std::make_unique<Space>(cfg, procs, locks);

  std::vector<std::unique_ptr<Cell<SimPlat>>> busy, count;
  for (int i = 0; i < locks; ++i) {
    busy.push_back(std::make_unique<Cell<SimPlat>>(0u));
    count.push_back(std::make_unique<Cell<SimPlat>>(0u));
  }
  std::vector<std::uint64_t> violations(static_cast<std::size_t>(locks), 0);
  std::vector<std::uint64_t> wins_on(static_cast<std::size_t>(locks), 0);

  Simulator sim(seed);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      Xoshiro256 rng(seed * rng_mul + static_cast<std::uint64_t>(p));
      for (int a = 0; a < attempts; ++a) {
        const auto r = static_cast<std::uint32_t>(rng.next_below(locks));
        const auto r2 = static_cast<std::uint32_t>((r + 1) % locks);
        const std::uint32_t ids_arr[2] = {r, r2};
        const std::uint32_t n = locks >= 2 ? 2u : 1u;
        const StaticLockSet<2> ids(std::span(ids_arr, n));
        Cell<SimPlat>& flag = *busy[r];
        Cell<SimPlat>& cnt = *count[r];
        std::uint64_t* viol = &violations[r];
        if (submit(session, ids, [&flag, &cnt, viol](IdemCtx<SimPlat>& m) {
              if (m.load(flag) != 0) ++*viol;
              m.store(flag, 1);
              m.store(cnt, m.load(cnt) + 1);
              m.store(flag, 0);
            }).won) {
          ++wins_on[r];
        }
      }
    });
  }
  auto sched = make_sched(kind, procs, seed ^ sched_salt);
  ASSERT_TRUE(sim.run(*sched, 4'000'000'000ull)) << "slot budget exhausted";
  for (int r = 0; r < locks; ++r) {
    EXPECT_EQ(violations[static_cast<std::size_t>(r)], 0u)
        << "CS overlap on lock " << r << " (" << sched_name(kind) << ")";
    EXPECT_EQ(count[static_cast<std::size_t>(r)]->peek(),
              wins_on[static_cast<std::size_t>(r)])
        << "lost/duplicated CS on lock " << r;
  }
  EXPECT_EQ(space->stats().t0_overruns, 0u);
  EXPECT_EQ(space->stats().t1_overruns, 0u);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return "p" + std::to_string(std::get<1>(info.param)) + "_l" +
         std::to_string(std::get<2>(info.param)) + "_" +
         sched_name(std::get<3>(info.param)) + "_s" +
         std::to_string(std::get<4>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LockProperty,
    ::testing::Combine(
        ::testing::Values(DelayMode::kTheory),
        ::testing::Values(2, 3, 5),
        ::testing::Values(2, 4),
        ::testing::Values(SchedKind::kRoundRobin, SchedKind::kUniform,
                          SchedKind::kWeighted, SchedKind::kStallBurst),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{99})),
    param_name);

// The unknown-bounds variant under the same body, on its own grid.
INSTANTIATE_TEST_SUITE_P(
    AdaptiveSweep, LockProperty,
    ::testing::Combine(
        ::testing::Values(DelayMode::kUnknownBounds),
        ::testing::Values(2, 4),
        ::testing::Values(2, 3),
        ::testing::Values(SchedKind::kUniform, SchedKind::kStallBurst),
        ::testing::Values(std::uint64_t{5}, std::uint64_t{55})),
    param_name);

}  // namespace
}  // namespace wfl
