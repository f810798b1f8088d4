// Contract enforcement: the library's capacity/usage contracts must fail
// loudly (WFL_CHECK), never corrupt silently.
#include <gtest/gtest.h>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using Space = LockTable<RealPlat>;

constexpr auto kNoop = [](IdemCtx<RealPlat>&) {};

LockConfig tiny_cfg() {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 4;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// Every acquisition goes through a typed lock set, so duplicate ids
// cannot reach the attempt path: StaticLockSet collapses them before the
// budget check (see also test_session's LockSet suite).
TEST(Contracts, DuplicateLockIdsCollapseInTheSetType) {
  StaticLockSet<4> set({1, 1});
  EXPECT_EQ(set.size(), 1u);
}

// The configured L bound is enforced at submission even for a set built
// without the config.
TEST(Contracts, LockSetBeyondLRejected) {
  Space space(tiny_cfg(), 1, 4);
  Session<RealPlat> session(space);
  const StaticLockSet<4> ids({0, 1, 2});
  EXPECT_DEATH(submit(session, ids, kNoop), "exceeds the configured L bound");
}

TEST(Contracts, OutOfRangeLockIdRejected) {
  Space space(tiny_cfg(), 1, 4);
  Session<RealPlat> session(space);
  const StaticLockSet<1> ids({99});
  EXPECT_DEATH(submit(session, ids, kNoop), "");
}

// The async path checks ids too: its wait lists are indexed by lock id.
TEST(Contracts, AsyncOutOfRangeLockIdRejected) {
  Space space(tiny_cfg(), 1, 4);
  Session<RealPlat> session(space);
  AsyncClient<RealPlat> client(session);
  AsyncExecutor<RealPlat> exec(space, {.workers = 0});
  const StaticLockSet<1> ids({99});
  EXPECT_DEATH(exec.async_submit(client, ids, kNoop), "lock id out of range");
}

TEST(Contracts, ThunkOpBudgetEnforced) {
  Space space(tiny_cfg(), 1, 2);
  Session<RealPlat> session(space);
  Cell<RealPlat> c{0};
  const StaticLockSet<1> ids({0});
  EXPECT_DEATH(submit(session, ids,
                      [&c](IdemCtx<RealPlat>& m) {
                        for (int i = 0; i < 100; ++i) {
                          m.store(c, static_cast<std::uint32_t>(i));
                        }
                      }),
               "kMaxThunkOps");
}

TEST(Contracts, ConfigValidationCatchesZeros) {
  LockConfig cfg = tiny_cfg();
  cfg.kappa = 0;
  EXPECT_DEATH((Space{cfg, 1, 1}), "");
}

// A session is the only holder of a registered process; its moved-from
// shell holds none and must not submit.
TEST(Contracts, UnregisteredProcessRejected) {
  Space space(tiny_cfg(), 1, 2);
  Session<RealPlat> session(space);
  Session<RealPlat> owner(std::move(session));
  const StaticLockSet<1> ids({0});
  // The moved-from shell is this test's subject.
  EXPECT_DEATH(submit(session, ids, kNoop),  // NOLINT(bugprone-use-after-move)
               "not registered");
}

TEST(Contracts, EbrParticipantCapacityEnforced) {
  EbrDomain dom(1);
  (void)dom.register_participant();
  EXPECT_DEATH((void)dom.register_participant(), "participant capacity");
}

TEST(Contracts, EbrDoubleEnterCaught) {
  EbrDomain dom(2);
  const int p = dom.register_participant();
  dom.enter(p);
  EXPECT_DEATH(dom.enter(p), "already in a critical region");
  dom.exit(p);
}

TEST(Contracts, ActiveSetOverContentionIsLoud) {
  // Capacity-2 active set; inserting three concurrent members violates the
  // κ contract and must abort rather than loop or corrupt.
  IndexPool<SetSnap<int*>> pool(1024);
  EbrDomain ebr(2);
  SetMem<int*> mem{pool, ebr};
  ActiveSet<RealPlat, int*> set(2, mem);
  const int pid = ebr.register_participant();
  int a = 0, b = 0, c = 0;
  EbrDomain::Guard g(ebr, pid);
  set.insert(&a, pid);
  set.insert(&b, pid);
  EXPECT_DEATH(set.insert(&c, pid), "point contention");
}

}  // namespace
}  // namespace wfl
