// PlayerObserver: the adaptive-player harness sees exactly what the model
// grants the player adversary — membership, statuses, revealed priorities —
// and nothing stale. Also pins the priority_top_fraction helper.
#include <gtest/gtest.h>

#include <cstdint>

#include "wfl/sim/player.hpp"
#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using Space = LockTable<SimPlat>;

LockConfig obs_cfg() {
  LockConfig cfg;
  cfg.kappa = 3;
  cfg.max_locks = 1;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return cfg;
}

TEST(Player, TopFractionThresholds) {
  EXPECT_EQ(priority_top_fraction(0.0), static_cast<std::int64_t>(1) << 62);
  EXPECT_EQ(priority_top_fraction(1.0), 0);
  // Top 12.5% == 7/8 of the range — the exp_ablation constant.
  EXPECT_EQ(priority_top_fraction(0.125),
            static_cast<std::int64_t>((1ull << 62) / 8 * 7));
}

TEST(Player, ObserverSeesQuiescentEmptyField) {
  Space space(obs_cfg(), 2, 1);
  Simulator sim(5);
  sim.add_process([&] {
    Session<SimPlat> session(space);
    PlayerObserver<SimPlat> spy(session);
    const FieldView v = spy.observe(0);
    EXPECT_EQ(v.active_members, 0);
    EXPECT_EQ(v.revealed_members, 0);
    EXPECT_EQ(v.strongest_priority, -1);
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 1'000'000));
}

// While a rival's attempt is mid-flight, the observer must (eventually)
// see it: first as an active member, then — after its reveal step — with a
// positive priority. wait_for() polls exactly that way.
TEST(Player, ObserverSeesRevealedRival) {
  Space space(obs_cfg(), 2, 1);
  Simulator sim(9);
  bool rival_started = false;
  bool saw_revealed = false;
  bool stop = false;

  sim.add_process([&] {  // rival: attempts in a loop until told to stop
    Session<SimPlat> session(space);
    const StaticLockSet<1> locks{0};
    rival_started = true;
    while (!stop) {
      submit(session, locks, [](IdemCtx<SimPlat>&) {});
    }
  });
  sim.add_process([&] {  // spy
    Session<SimPlat> session(space);
    PlayerObserver<SimPlat> spy(session);
    while (!rival_started) SimPlat::step();
    saw_revealed = spy.wait_for(0, 200'000, [](const FieldView& v) {
      return v.revealed_members > 0 && v.strongest_priority > 0;
    });
    stop = true;
  });
  UniformSchedule sched(2, 9);
  ASSERT_TRUE(sim.run(sched, 200'000'000));
  EXPECT_TRUE(saw_revealed)
      << "a continuously-attempting rival never appeared revealed";
}

// The wait_for budget is honored: with no rival, the predicate never fires
// and the call returns false after exactly `budget` polls.
TEST(Player, WaitForRespectsBudget) {
  Space space(obs_cfg(), 2, 1);
  Simulator sim(13);
  sim.add_process([&] {
    Session<SimPlat> session(space);
    PlayerObserver<SimPlat> spy(session);
    int polls = 0;
    const bool fired = spy.wait_for(0, 50, [&](const FieldView&) {
      ++polls;
      return false;
    });
    EXPECT_FALSE(fired);
    EXPECT_EQ(polls, 50);
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 10'000'000));
}

}  // namespace
}  // namespace wfl
