// TxnBuilder / PreparedTxn: static-transaction composition (lock-set
// dedup, sequential sub-thunks over one shared log, per-op step budgets)
// through the unified session/executor API, plus the submit() retry
// policies.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig txn_cfg(int procs, std::uint32_t max_locks) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs) + 1;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = 24;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(Txn, SingleOpRunsLikePlainTryLocks) {
  LockTable<RealPlat> space(txn_cfg(1, 2), 1, 8);
  Session<RealPlat> session(space);
  Cell<RealPlat> x{10};
  const std::uint32_t ids[] = {3};
  auto txn = [&] {
    TxnBuilder<RealPlat> b;
    b.op(ids, [&x](IdemCtx<RealPlat>& m) { m.store(x, m.load(x) + 5); },
         /*step_budget=*/2);
    return std::move(b).build();
  }();
  EXPECT_EQ(txn.lock_set().size(), 1u);
  EXPECT_EQ(txn.step_budget(), 2u);
  const Outcome o = txn.submit(session, Policy::retry());
  EXPECT_TRUE(o.won);
  EXPECT_EQ(o.attempts, 1u);  // uncontended first attempt must win
  EXPECT_GT(o.total_steps, 0u);
  EXPECT_EQ(x.peek(), 15u);
}

TEST(Txn, LockSetsAreDedupedAndSorted) {
  TxnBuilder<RealPlat> b;
  Cell<RealPlat> x{0};
  const std::uint32_t ids1[] = {5, 2};
  const std::uint32_t ids2[] = {2, 7};
  b.op(ids1, [&x](IdemCtx<RealPlat>& m) { m.store(x, 1); });
  b.op(ids2, [&x](IdemCtx<RealPlat>& m) { m.store(x, 2); });
  b.touch(5);
  auto txn = std::move(b).build();
  const auto ls = txn.lock_set();
  ASSERT_EQ(ls.size(), 3u);
  EXPECT_EQ(ls[0], 2u);
  EXPECT_EQ(ls[1], 5u);
  EXPECT_EQ(ls[2], 7u);
  EXPECT_EQ(txn.op_count(), 2u);
}

TEST(Txn, SubThunksRunInOrderOverSharedLog) {
  LockTable<RealPlat> space(txn_cfg(1, 3), 1, 8);
  Session<RealPlat> session(space);
  Cell<RealPlat> x{0};
  Cell<RealPlat> y{0};
  TxnBuilder<RealPlat> b;
  const std::uint32_t ids1[] = {0};
  const std::uint32_t ids2[] = {1};
  const std::uint32_t ids3[] = {2};
  b.op(ids1, [&x](IdemCtx<RealPlat>& m) { m.store(x, 7); });
  b.op(ids2, [&x, &y](IdemCtx<RealPlat>& m) {
    m.store(y, m.load(x) * 2);  // sees the first op's write
  });
  b.op(ids3, [&x, &y](IdemCtx<RealPlat>& m) {
    m.store(x, m.load(y) + 1);
  });
  auto txn = std::move(b).build();
  EXPECT_TRUE(txn.submit(session, Policy::retry()).won);
  EXPECT_EQ(y.peek(), 14u);
  EXPECT_EQ(x.peek(), 15u);
}

TEST(Txn, IsReusableAndCopyable) {
  LockTable<RealPlat> space(txn_cfg(1, 1), 1, 4);
  Session<RealPlat> session(space);
  Cell<RealPlat> x{0};
  TxnBuilder<RealPlat> b;
  const std::uint32_t ids[] = {0};
  b.op(ids, [&x](IdemCtx<RealPlat>& m) { m.store(x, m.load(x) + 1); });
  auto txn = std::move(b).build();
  PreparedTxn<RealPlat> copy = txn;  // copies share the program
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(txn.submit(session, Policy::retry()).won);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(copy.submit(session, Policy::retry()).won);
  }
  EXPECT_EQ(x.peek(), 10u);
}

TEST(Txn, ComposedTransferPairAcrossFourAccounts) {
  // Two transfers composed into one atomic transaction: either both legs
  // happen or neither (here: both, uncontended).
  LockTable<RealPlat> space(txn_cfg(1, 4), 1, 8);
  Session<RealPlat> session(space);
  std::vector<std::unique_ptr<Cell<RealPlat>>> acct;
  for (int i = 0; i < 4; ++i) {
    acct.push_back(std::make_unique<Cell<RealPlat>>(100u));
  }
  TxnBuilder<RealPlat> b;
  const std::uint32_t leg1[] = {0, 1};
  const std::uint32_t leg2[] = {2, 3};
  Cell<RealPlat>* a0 = acct[0].get();
  Cell<RealPlat>* a1 = acct[1].get();
  Cell<RealPlat>* a2 = acct[2].get();
  Cell<RealPlat>* a3 = acct[3].get();
  b.op(leg1, [a0, a1](IdemCtx<RealPlat>& m) {
    const std::uint32_t v = m.load(*a0);
    m.store(*a0, v - 30);
    m.store(*a1, m.load(*a1) + 30);
  }, /*step_budget=*/4);
  b.op(leg2, [a2, a3](IdemCtx<RealPlat>& m) {
    const std::uint32_t v = m.load(*a2);
    m.store(*a2, v - 10);
    m.store(*a3, m.load(*a3) + 10);
  }, /*step_budget=*/4);
  auto txn = std::move(b).build();
  EXPECT_EQ(txn.lock_set().size(), 4u);
  EXPECT_EQ(txn.step_budget(), 8u);
  EXPECT_TRUE(txn.submit(session, Policy::retry()).won);
  EXPECT_EQ(acct[0]->peek(), 70u);
  EXPECT_EQ(acct[1]->peek(), 130u);
  EXPECT_EQ(acct[2]->peek(), 90u);
  EXPECT_EQ(acct[3]->peek(), 110u);
}

TEST(Txn, ConcurrentComposedTransfersConserveTotal) {
  const int threads = 4;
  const int accounts = 8;
  LockTable<RealPlat> space(txn_cfg(threads, 4), threads, accounts);
  std::vector<std::unique_ptr<Cell<RealPlat>>> acct;
  for (int i = 0; i < accounts; ++i) {
    acct.push_back(std::make_unique<Cell<RealPlat>>(1000u));
  }
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(401 + static_cast<std::uint64_t>(t));
      Session<RealPlat> session(space);
      Xoshiro256 rng(t * 3 + 7);
      for (int i = 0; i < 250; ++i) {
        std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(accounts));
        std::uint32_t bIdx =
            static_cast<std::uint32_t>(rng.next_below(accounts));
        if (bIdx == a) bIdx = (bIdx + 1) % accounts;
        Cell<RealPlat>* src = acct[a].get();
        Cell<RealPlat>* dst = acct[bIdx].get();
        TxnBuilder<RealPlat> b;
        const std::uint32_t ids[] = {a, bIdx};
        b.op(ids, [src, dst](IdemCtx<RealPlat>& m) {
          const std::uint32_t v = m.load(*src);
          if (v >= 5) {
            m.store(*src, v - 5);
            m.store(*dst, m.load(*dst) + 5);
          }
        }, /*step_budget=*/4);
        std::move(b).build().submit(session, Policy::retry());
      }
    });
  }
  for (auto& th : ts) th.join();
  std::uint64_t total = 0;
  for (auto& c : acct) total += c->peek();
  EXPECT_EQ(total, static_cast<std::uint64_t>(accounts) * 1000u);
}

// --- the two budget/lifecycle bugfixes ------------------------------------

// Death tests ride in the "Contracts" suite so the TSan CI job's
// GTEST_FILTER exclusion covers them (death tests fork; TSan dislikes it).

// check_budgets must validate the summed per-op step budgets against the
// configured T bound, not just the lock count against L.
TEST(Contracts, TxnOverTStepBudgetFailsLoudly) {
  LockTable<RealPlat> space(txn_cfg(1, 4), 1, 8);
  Session<RealPlat> session(space);
  Cell<RealPlat> x{0};
  TxnBuilder<RealPlat> b;
  const std::uint32_t ids[] = {0};
  // One op claiming a 25-step budget against max_thunk_steps = 24.
  b.op(ids, [&x](IdemCtx<RealPlat>& m) { m.store(x, 1); },
       /*step_budget=*/25);
  auto txn = std::move(b).build();
  EXPECT_DEATH(txn.submit(session), "step budget exceeds");
}

// touch() on a consumed builder must fail loudly, exactly like op() does.
TEST(Contracts, TxnTouchAfterBuildFailsLoudly) {
  TxnBuilder<RealPlat> b;
  Cell<RealPlat> x{0};
  const std::uint32_t ids[] = {0};
  b.op(ids, [&x](IdemCtx<RealPlat>& m) { m.store(x, 1); });
  auto txn = std::move(b).build();
  (void)txn;
  EXPECT_DEATH(b.touch(3), "already consumed");
}

// --- retry policies through submit() --------------------------------------

TEST(Retry, UncontendedSucceedsFirstAttempt) {
  LockTable<RealPlat> space(txn_cfg(1, 2), 1, 4);
  Session<RealPlat> session(space);
  Cell<RealPlat> x{0};
  const StaticLockSet<2> locks{0, 1};
  const Outcome o =
      submit(session, locks,
             [&x](IdemCtx<RealPlat>& m) { m.store(x, 1); }, Policy::retry());
  EXPECT_TRUE(o.won);
  EXPECT_EQ(o.attempts, 1u);
  EXPECT_GT(o.total_steps, 0u);
  EXPECT_EQ(o.backoff_steps, 0u);
  EXPECT_EQ(x.peek(), 1u);
}

TEST(Retry, MaxAttemptsBoundsTheLoop) {
  // Policy::attempts(3) with an uncontended lock still succeeds on attempt
  // 1; the bound only matters under contention, but the accounting must be
  // exact either way.
  LockTable<RealPlat> space(txn_cfg(1, 1), 1, 2);
  Session<RealPlat> session(space);
  Cell<RealPlat> x{0};
  const StaticLockSet<1> locks{0};
  const Outcome o = submit(session, locks,
                           [&x](IdemCtx<RealPlat>& m) { m.store(x, 2); },
                           Policy::attempts(3));
  EXPECT_TRUE(o.won);
  EXPECT_LE(o.attempts, 3u);
  EXPECT_EQ(x.peek(), 2u);
}

TEST(RetrySim, ContendedAttemptsFollowFairnessBound) {
  // Under symmetric contention on one lock with κ processes, each attempt
  // wins w.p. >= 1/κ, so mean attempts-to-success <= κ (with slack for
  // small-sample noise). This is Corollary C1 in miniature; exp_retry
  // does the full sweep.
  const int procs = 4;
  LockConfig cfg = txn_cfg(procs, 1);
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  LockTable<SimPlat> space(cfg, procs, 1);
  Simulator sim(21);
  std::vector<std::uint64_t> attempts(procs, 0);
  auto x_owner = std::make_unique<Cell<SimPlat>>(0u);
  Cell<SimPlat>* x = x_owner.get();
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(space);
      const StaticLockSet<1> locks{0};
      for (int i = 0; i < 20; ++i) {
        const Outcome o = submit(
            session, locks,
            [x](IdemCtx<SimPlat>& m) { m.store(*x, m.load(*x) + 1); },
            Policy::retry());
        EXPECT_TRUE(o.won);
        attempts[static_cast<std::size_t>(p)] += o.attempts;
      }
    });
  }
  UniformSchedule sched(procs, 55);
  ASSERT_TRUE(sim.run(sched, 4'000'000'000ull));
  EXPECT_EQ(x->peek(), static_cast<std::uint32_t>(procs) * 20u);
  for (int p = 0; p < procs; ++p) {
    const double mean =
        static_cast<double>(attempts[static_cast<std::size_t>(p)]) / 20.0;
    EXPECT_LE(mean, 4.0 * procs) << "process " << p
                                 << " needed far more attempts than κ";
  }
}

}  // namespace
}  // namespace wfl
