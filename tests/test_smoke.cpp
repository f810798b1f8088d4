// Smoke: the whole stack compiles and a single-threaded attempt works on
// both platforms.
#include <gtest/gtest.h>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

TEST(Smoke, SingleAttemptRealPlat) {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 4;
  cfg.delay_mode = DelayMode::kOff;
  LockTable<RealPlat> space(cfg, /*max_procs=*/2, /*num_locks=*/4);
  Session<RealPlat> session(space);

  Cell<RealPlat> counter{10};
  const Outcome o = submit(session, StaticLockSet<2>({0, 2}, cfg),
                           [&](IdemCtx<RealPlat>& m) {
                             m.store(counter, m.load(counter) + 5);
                           });
  EXPECT_TRUE(o.won);
  EXPECT_EQ(counter.peek(), 15u);
  EXPECT_EQ(space.stats().wins, 1u);
}

TEST(Smoke, SingleAttemptSimPlat) {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 1;
  cfg.max_thunk_steps = 4;
  LockTable<SimPlat> space(cfg, 2, 2);
  Session<SimPlat> session(space);
  Cell<SimPlat> counter{0};

  Simulator sim(42);
  bool won = false;
  sim.add_process([&] {
    won = submit(session, StaticLockSet<1>({1}, cfg),
                 [&](IdemCtx<SimPlat>& m) {
                   m.store(counter, m.load(counter) + 1);
                 })
              .won;
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 1'000'000));
  EXPECT_TRUE(won);
  EXPECT_EQ(counter.peek(), 1u);
}

TEST(Smoke, EmptyLockSetRunsThunkImmediately) {
  LockConfig cfg;
  cfg.delay_mode = DelayMode::kOff;
  LockTable<RealPlat> space(cfg, 1, 1);
  Session<RealPlat> session(space);
  Cell<RealPlat> c{0};
  EXPECT_TRUE(submit(session, LockSetView{}, [&](IdemCtx<RealPlat>& m) {
                m.store(c, 7);
              }).won);
  EXPECT_EQ(c.peek(), 7u);
}

}  // namespace
}  // namespace wfl
