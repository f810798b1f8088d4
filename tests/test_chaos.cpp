// Chaos sweep: random multi-lock workloads under every schedule family and
// every ablation mode, audited by MutexAudit.
//
// Safety (Definition 4.3) must be schedule- and mode-independent: the
// delays and the help phase buy *fairness*, never correctness. So the
// sweep crosses:
//   lock-set size L ∈ {1, 2, 3}   (random sorted distinct sets per attempt)
//   schedule ∈ {round-robin, uniform, stall-burst, weighted-starvation}
//   mode ∈ {theory, delays-off, help-off, both-off}
// and asserts, for every cell of that grid:
//   * every process finishes every attempt (wait-freedom),
//   * no busy-flag collision and exact win accounting (MutexAudit),
//   * zero delay overruns in theory mode (Observation 6.7's precondition).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "wfl/check/mutex_audit.hpp"
#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using Space = LockTable<SimPlat>;

enum class SchedKind { kRoundRobin, kUniform, kStallBurst, kWeighted };
enum class Mode { kTheory, kNoDelays, kNoHelp, kBare };

const char* sched_name(SchedKind k) {
  switch (k) {
    case SchedKind::kRoundRobin: return "rr";
    case SchedKind::kUniform: return "uni";
    case SchedKind::kStallBurst: return "stall";
    case SchedKind::kWeighted: return "weighted";
  }
  return "?";
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kTheory: return "theory";
    case Mode::kNoDelays: return "nodelay";
    case Mode::kNoHelp: return "nohelp";
    case Mode::kBare: return "bare";
  }
  return "?";
}

std::unique_ptr<Schedule> make_sched(SchedKind k, int procs,
                                     std::uint64_t seed) {
  switch (k) {
    case SchedKind::kRoundRobin:
      return std::make_unique<RoundRobinSchedule>(procs);
    case SchedKind::kUniform:
      return std::make_unique<UniformSchedule>(procs, seed);
    case SchedKind::kStallBurst:
      return std::make_unique<StallBurstSchedule>(procs, seed, 1'500);
    case SchedKind::kWeighted: {
      std::vector<double> w(static_cast<std::size_t>(procs), 1.0);
      w.back() = 0.01;  // one process runs 100x slower
      return std::make_unique<WeightedSchedule>(std::move(w), seed);
    }
  }
  return nullptr;
}

using ChaosParam = std::tuple<int /*L*/, SchedKind, Mode>;

class ChaosSweep : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(ChaosSweep, SafetyHoldsEverywhere) {
  const auto [max_locks, sched_kind, mode] = GetParam();
  constexpr int kProcs = 5;
  constexpr int kLocks = 6;
  constexpr int kAttempts = 6;
  const std::uint64_t seed = 0x5EED0 + static_cast<std::uint64_t>(max_locks);

  LockConfig cfg;
  cfg.kappa = kProcs;  // any lock may be wanted by everyone at once
  cfg.max_locks = static_cast<std::uint32_t>(max_locks);
  cfg.max_thunk_steps =
      MutexAudit<SimPlat>::thunk_ops(static_cast<std::uint32_t>(max_locks));
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  cfg.delay_mode = (mode == Mode::kNoDelays || mode == Mode::kBare)
                       ? DelayMode::kOff
                       : DelayMode::kTheory;
  cfg.help_phase = !(mode == Mode::kNoHelp || mode == Mode::kBare);

  Space space(cfg, kProcs, kLocks);
  MutexAudit<SimPlat> audit(kLocks);
  std::vector<std::uint64_t> wins_by_first_lock(kLocks, 0);
  std::uint64_t total_wins = 0;

  Simulator sim(seed);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(space);
      Xoshiro256 rng(seed * 613 + static_cast<std::uint64_t>(p));
      for (int a = 0; a < kAttempts; ++a) {
        // Random sorted distinct lock set of exactly max_locks ids. The
        // thunk captures the ids *by value*: an EBR-protected straggler may
        // replay it after submit returns, so it must not reference
        // storage this loop reuses. (Replayed loads return logged values,
        // but a replayed first-write against a fresh cell still holding the
        // initial word could land — by-value capture removes the hazard.)
        std::array<std::uint32_t, 3> ids{};
        const auto want = static_cast<std::size_t>(max_locks);
        std::size_t n = 0;
        while (n < want) {
          const auto c = static_cast<std::uint32_t>(rng.next_below(kLocks));
          if (std::find(ids.begin(), ids.begin() + n, c) == ids.begin() + n) {
            ids[n++] = c;
          }
        }
        std::sort(ids.begin(), ids.begin() + want);
        MutexAudit<SimPlat>* aud = &audit;
        const bool won =
            submit(session,
                   StaticLockSet<3>(
                       std::span<const std::uint32_t>(ids.data(), want)),
                   [aud, ids, want](IdemCtx<SimPlat>& m) {
                     aud->guard(m, std::span<const std::uint32_t>(ids.data(),
                                                                  want));
                   })
                .won;
        if (won) {
          ++wins_by_first_lock[ids[0]];
          ++total_wins;
        }
      }
    });
  }

  auto sched = make_sched(sched_kind, kProcs, seed ^ 0xACE);
  ASSERT_TRUE(sim.run(*sched, 900'000'000))
      << "a process failed to finish: wait-freedom broken in mode "
      << mode_name(mode);

  const auto report = audit.audit(wins_by_first_lock);
  EXPECT_EQ(report.flag_violations, 0u)
      << "overlapping critical sections (" << mode_name(mode) << ", "
      << sched_name(sched_kind) << ")";
  EXPECT_EQ(report.lost_updates, 0u);
  EXPECT_EQ(report.duplicated_runs, 0u);
  EXPECT_GT(total_wins, 0u) << "nobody ever won";

  const LockStats s = space.stats();
  if (cfg.delay_mode == DelayMode::kTheory) {
    EXPECT_EQ(s.t0_overruns, 0u);
    EXPECT_EQ(s.t1_overruns, 0u);
  }
  EXPECT_EQ(s.attempts, static_cast<std::uint64_t>(kProcs) * kAttempts);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChaosSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(SchedKind::kRoundRobin,
                                         SchedKind::kUniform,
                                         SchedKind::kStallBurst,
                                         SchedKind::kWeighted),
                       ::testing::Values(Mode::kTheory, Mode::kNoDelays,
                                         Mode::kNoHelp, Mode::kBare)),
    [](const ::testing::TestParamInfo<ChaosParam>& info) {
      return "L" + std::to_string(std::get<0>(info.param)) + "_" +
             sched_name(std::get<1>(info.param)) + "_" +
             mode_name(std::get<2>(info.param));
    });

// Crash chaos: same grid shrunk to the interesting corners, with the last
// process crashed mid-run. Survivors must finish; accounting gets one
// attempt of slack for the victim's in-flight attempt.
class ChaosCrash : public ::testing::TestWithParam<std::tuple<int, Mode>> {};

TEST_P(ChaosCrash, SafetySurvivesACrash) {
  const auto [max_locks, mode] = GetParam();
  constexpr int kProcs = 4;
  constexpr int kLocks = 4;
  constexpr int kAttempts = 8;
  const std::uint64_t seed = 0xC0DE + static_cast<std::uint64_t>(max_locks);

  LockConfig cfg;
  cfg.kappa = kProcs;
  cfg.max_locks = static_cast<std::uint32_t>(max_locks);
  cfg.max_thunk_steps =
      MutexAudit<SimPlat>::thunk_ops(static_cast<std::uint32_t>(max_locks));
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  cfg.delay_mode = (mode == Mode::kNoDelays || mode == Mode::kBare)
                       ? DelayMode::kOff
                       : DelayMode::kTheory;
  cfg.help_phase = !(mode == Mode::kNoHelp || mode == Mode::kBare);

  Space space(cfg, kProcs, kLocks);
  MutexAudit<SimPlat> audit(kLocks);
  std::vector<std::uint64_t> wins_by_first_lock(kLocks, 0);
  Space::Process victim_proc{};

  Simulator sim(seed);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(space);
      if (p == kProcs - 1) victim_proc = session.process();
      Xoshiro256 rng(seed * 389 + static_cast<std::uint64_t>(p));
      for (int a = 0; a < kAttempts; ++a) {
        std::array<std::uint32_t, 3> ids{};  // by-value capture, see above
        const auto want = static_cast<std::size_t>(max_locks);
        std::size_t n = 0;
        while (n < want) {
          const auto c = static_cast<std::uint32_t>(rng.next_below(kLocks));
          if (std::find(ids.begin(), ids.begin() + n, c) == ids.begin() + n) {
            ids[n++] = c;
          }
        }
        std::sort(ids.begin(), ids.begin() + want);
        MutexAudit<SimPlat>* aud = &audit;
        const bool won =
            submit(session,
                   StaticLockSet<3>(
                       std::span<const std::uint32_t>(ids.data(), want)),
                   [aud, ids, want](IdemCtx<SimPlat>& m) {
                     aud->guard(m, std::span<const std::uint32_t>(ids.data(),
                                                                  want));
                   })
                .won;
        // Runs atomically with submit's return under the simulator.
        if (won) ++wins_by_first_lock[ids[0]];
      }
    });
  }

  UniformSchedule inner(kProcs, seed ^ 0xACE);
  CrashSchedule sched(inner, kProcs, {{kProcs - 1, 20'000}}, seed ^ 0xFEED);
  // Run until all *survivors* finish (the victim may finish pre-crash and
  // count as a finisher), then drop the parked victim's EBR guard so the
  // space can be torn down.
  for (;;) {
    bool survivors_done = true;
    for (int p = 0; p < kProcs - 1; ++p) {
      if (!sim.is_finished(p)) survivors_done = false;
    }
    if (survivors_done) break;
    ASSERT_TRUE(sim.run(sched, 900'000'000, sim.finished_count() + 1));
  }
  if (victim_proc.pid >= 0 && !sim.is_finished(kProcs - 1)) {
    space.abandon_process(victim_proc);
  }

  const auto report =
      audit.audit(wins_by_first_lock, /*slack=*/1,
                  /*allow_inflight_flags=*/true);
  EXPECT_EQ(report.flag_violations, 0u);
  EXPECT_EQ(report.lost_updates, 0u);
  EXPECT_EQ(report.duplicated_runs, 0u);
  // At most the victim's single in-flight section can be left open.
  EXPECT_LE(report.raised_flags, static_cast<std::uint64_t>(max_locks));
}

INSTANTIATE_TEST_SUITE_P(
    Corners, ChaosCrash,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(Mode::kTheory, Mode::kBare)),
    [](const ::testing::TestParamInfo<std::tuple<int, Mode>>& info) {
      return "L" + std::to_string(std::get<0>(info.param)) + "_" +
             mode_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace wfl
