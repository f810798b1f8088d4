// The LockTable layer: striped statistics, process handles, and the pool
// and reclamation plumbing behind the attempts.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

#include "test_plat.hpp"

namespace wfl {

using test::TestPlat;
namespace {

using Table = LockTable<RealPlat>;

LockConfig cfg_for(int procs, std::uint32_t max_locks = 2,
                   std::uint32_t thunk_steps = 8) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs);
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = thunk_steps;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// Multi-lock attempts must mutually exclude: the same lost-update +
// in-CS-flag detectors as the monolith stress tests, on one lock pair.
TEST(LockTable, MultiLockMutualExclusion) {
  const int threads = 4;
  const int attempts = 300;
  auto t = std::make_unique<Table>(cfg_for(threads), threads, 8);
  Cell<RealPlat> flag{0};
  Cell<RealPlat> count{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> ts;
  for (int k = 0; k < threads; ++k) {
    ts.emplace_back([&, k] {
      RealPlat::seed_rng(0xFACE + static_cast<std::uint64_t>(k));
      Session<RealPlat> session(*t);
      const StaticLockSet<2> ids({1, 2});
      for (int a = 0; a < attempts; ++a) {
        const bool won =
            submit(session, ids, [&](IdemCtx<RealPlat>& m) {
              if (m.load(flag) != 0) {
                violations.fetch_add(1, std::memory_order_relaxed);
              }
              m.store(flag, 1);
              m.store(count, m.load(count) + 1);
              m.store(flag, 0);
            }).won;
        if (won) wins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(violations.load(), 0u) << "overlapping critical sections";
  EXPECT_EQ(count.peek(), wins.load()) << "lost updates";
  EXPECT_GT(wins.load(), 0u);
}

// stats() must aggregate the striped per-process slabs to the same totals
// the callers observed first-hand.
//
// The exactly-once audit uses PER-LOCK counter cells (count[r] is touched
// only by attempts holding lock r): a single global cell would assert a
// property the locks do not grant — attempts on DISJOINT lock sets (e.g.
// {0,1} and {5,6}) may legitimately run their thunks concurrently, and
// under a scheduler skewed enough to overlap them (TSan slowdown) a
// shared unguarded cell loses updates by design, not by bug. (This test
// asserted exactly that for several PRs and was latently flaky under
// TSan.)
TEST(LockTable, StripedStatsMatchPerAttemptGroundTruth) {
  const int threads = 4;
  const int attempts = 250;
  constexpr std::uint32_t kLocks = 16;
  auto t = std::make_unique<Table>(cfg_for(threads), threads,
                                   static_cast<int>(kLocks));
  std::vector<std::unique_ptr<Cell<RealPlat>>> count;
  for (std::uint32_t i = 0; i < kLocks; ++i) {
    count.push_back(std::make_unique<Cell<RealPlat>>(0u));
  }
  std::atomic<std::uint64_t> true_attempts{0};
  std::atomic<std::uint64_t> true_wins{0};
  std::vector<std::thread> ts;
  for (int k = 0; k < threads; ++k) {
    ts.emplace_back([&, k] {
      RealPlat::seed_rng(0xD00D + static_cast<std::uint64_t>(k));
      Session<RealPlat> session(*t);
      Xoshiro256 rng(991 + static_cast<std::uint64_t>(k));
      for (int a = 0; a < attempts; ++a) {
        const auto r = static_cast<std::uint32_t>(rng.next_below(15));
        const StaticLockSet<2> ids({r, r + 1});
        Cell<RealPlat>* cell = count[r].get();
        true_attempts.fetch_add(1, std::memory_order_relaxed);
        if (submit(session, ids, [cell](IdemCtx<RealPlat>& m) {
              m.store(*cell, m.load(*cell) + 1);
            }).won) {
          true_wins.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  const LockStats s = t->stats();
  EXPECT_EQ(s.attempts, true_attempts.load());
  EXPECT_EQ(s.wins, true_wins.load());
  // Every win was celebrated at least once (possibly more, by helpers).
  EXPECT_GE(s.thunk_runs, s.wins);
  // Delays are off, so the overrun counters must never fire.
  EXPECT_EQ(s.t0_overruns, 0u);
  EXPECT_EQ(s.t1_overruns, 0u);
  // The won thunks all executed exactly once logically.
  std::uint64_t sum = 0;
  for (const auto& cell : count) sum += cell->peek();
  EXPECT_EQ(sum, true_wins.load());
}

// One registered handle serves every lock, its serial blocks keep tag
// spaces disjoint between processes, and the inspector guard is re-entrant
// (depth-counted) across the whole table.
TEST(LockTable, HandleServesEveryLockAndGuardsAreReentrant) {
  Table t(cfg_for(2, 1), 2, 8);
  Session<RealPlat> s0(t);
  Session<RealPlat> s1(t);
  EXPECT_EQ(s0.pid(), 0);
  EXPECT_EQ(s1.pid(), 1);
  const auto p0 = s0.process();

  Cell<RealPlat> c{0};
  const auto bump = [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); };
  for (std::uint32_t id = 0; id < 8; ++id) {
    const StaticLockSet<1> ids({id});
    EXPECT_TRUE(submit(s0, ids, bump).won);
    EXPECT_TRUE(submit(s1, ids, bump).won);
  }
  EXPECT_EQ(c.peek(), 16u);
  EXPECT_EQ(t.stats().attempts, 16u);
  EXPECT_EQ(t.stats().wins, 16u);

  // Nested inspector guards: the raw EbrDomain forbids re-entry, the
  // table's depth counters allow it (the engine relies on this when a
  // helper drives another descriptor inside its own attempt's guard).
  t.ebr_enter(p0);
  t.ebr_enter(p0);
  const auto* snap = t.lock_set(3).get_set();
  EXPECT_EQ(snap->count, 0u);  // quiescent: nothing inserted
  t.ebr_exit(p0);
  t.ebr_exit(p0);
}

// A prepared transaction and a plain retrying submission share one
// session: both are submit() calls under Policy::retry().
TEST(LockTable, TxnAndRetrySubmitThroughOneSession) {
  Table t(cfg_for(1, 2, 24), 1, 8);
  Session<RealPlat> session(t);
  auto cell = std::make_unique<Cell<RealPlat>>(0u);
  Cell<RealPlat>* cp = cell.get();
  TxnBuilder<RealPlat> b;
  const std::uint32_t ids[] = {0, 1};
  b.op(ids, [cp](IdemCtx<RealPlat>& m) { m.store(*cp, m.load(*cp) + 1); });
  auto txn = std::move(b).build();
  EXPECT_TRUE(txn.submit(session, Policy::retry()).won);
  EXPECT_EQ(cell->peek(), 1u);

  const Outcome o = submit(
      session, StaticLockSet<1>({2}),
      [cp](IdemCtx<RealPlat>& m) { m.store(*cp, m.load(*cp) + 1); },
      Policy::retry());
  EXPECT_TRUE(o.won);
  EXPECT_EQ(cell->peek(), 2u);
}

// Allocation locality: once the per-process slot caches and the EBR
// pipeline are warm, a steady-state uncontended workload must perform ZERO
// shared-freelist transactions — descriptor and snapshot slots circulate
// entirely through the owner's caches (alloc pops the cache, the EBR
// deleters push expired slots back).
TEST(LockTable, SteadyStateUncontendedTouchesNoSharedFreelist) {
  // This test exercises the DESCRIPTOR path's cache circulation, so it
  // uses two locks: the thin-word fast path (which skips descriptor
  // allocation entirely and would make the assertion vacuous) only takes
  // single-lock attempts. test_fastpath covers the fast path's own
  // zero-pool-traffic property.
  const StaticLockSet<2> pair({0, 1});
  Table t(cfg_for(2, 2), 2, 16);
  Session<RealPlat> session(t);
  Cell<RealPlat> c{0};
  auto attempt = [&] {
    ASSERT_TRUE(submit(session, pair, [&c](IdemCtx<RealPlat>& m) {
                  m.store(c, m.load(c) + 1);
                }).won);
  };
  // Warm-up: fill the caches, let grace periods start recycling.
  for (int a = 0; a < 600; ++a) attempt();
  const std::uint64_t ops_before = t.freelist_ops();
  for (int a = 0; a < 400; ++a) attempt();
  EXPECT_EQ(t.freelist_ops(), ops_before)
      << "steady-state uncontended attempts hit the shared freelist";
  // The lazy log reset is also visible here: a 2-op thunk consumes 4 log
  // slots, so reinit must re-init ~4 per attempt, not kThunkLogCap.
  const LockStats s = t.stats();
  EXPECT_GT(s.attempts, 0u);
  EXPECT_LE(s.log_slot_resets, s.attempts * 4)
      << "lazy reset regressed towards O(kThunkLogCap)";
}

// Reclamation runs on the retire cadence: a lone session's uncontended
// L=2 attempts collect exactly once per EbrDomain::kCollectEvery
// retirements, and with no other participant every collect scans and
// advances the epoch.
TEST(LockTable, LoneSessionCollectsOncePerCadence) {
  const StaticLockSet<2> pair({0, 1});
  Table t(cfg_for(2, 2), 2, 16);
  Session<RealPlat> session(t);
  for (int a = 0; a < 1000; ++a) {
    ASSERT_TRUE(submit(session, pair, [](IdemCtx<RealPlat>&) {}).won);
  }
  const EbrDomain::Counts n = t.ebr_counts();
  ASSERT_GE(n.retires, 10u * EbrDomain::kCollectEvery);
  EXPECT_EQ(n.collects, n.retires / EbrDomain::kCollectEvery);
  EXPECT_EQ(n.scans, n.collects);
  EXPECT_EQ(n.advances, n.collects);
}

// The trade-off of one EBR domain per table: a guard held by one process
// delays reclamation for all. Session 0 sits inside an attempt on lock 0
// (its thunk is running, so its guard is held) while session 1 works on
// disjoint locks: none of session 1's retired descriptors may be freed
// until session 0's attempt exits its guard.
TEST(LockTable, GuardInOneSessionDelaysFreeingOfAnothers) {
  Table t(cfg_for(2, 2), 2, 16);
  Session<RealPlat> s0(t);
  Session<RealPlat> s1(t);
  // "In use" counts cached slots too, and once the guard is gone a drain
  // can leave up to a full cache of them: three caches' worth of attempts
  // keeps that inside the held / 2 check below.
  constexpr int kAttempts = 3 * static_cast<int>(kTableCacheSlots);
  const StaticLockSet<2> other({1, 5});
  const auto desc_in_use = [&t] { return t.desc_capacity() - t.desc_free(); };
  const auto work = [&] {
    for (int a = 0; a < kAttempts; ++a) {
      ASSERT_TRUE(submit(s1, other, [](IdemCtx<RealPlat>&) {}).won);
    }
  };
  std::uint32_t held = 0;
  struct Probe {
    decltype(work)* run;
    decltype(desc_in_use)* in_use;
    std::uint32_t* out;
  } probe{&work, &desc_in_use, &held};
  ASSERT_TRUE(submit(s0, StaticLockSet<1>({0}), [probe](IdemCtx<RealPlat>&) {
                (*probe.run)();
                *probe.out = (*probe.in_use)();
              }).won);
  EXPECT_GE(held, static_cast<std::uint32_t>(kAttempts))
      << "session 1's descriptors were freed under session 0's guard";
  work();  // s0's guard is gone: the pinned retirements drain
  EXPECT_LT(desc_in_use(), held / 2)
      << "session 1's retired descriptors were not freed after the guard exit";
}

// Cached slots must never leak: an orderly session release AND a
// crash-abandoned process (released while parked inside a guard) both
// spill their caches back to the shared pools.
TEST(LockTable, CachedSlotsSpillOnRelease) {
  // Descriptor-path machinery under test: two-lock attempts skip the
  // thin-word fast path and populate the slot caches.
  Table t(cfg_for(2, 2), 2, 16);
  Cell<RealPlat> c{0};

  const auto bump = [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); };

  // Orderly: run enough attempts to populate the caches, then release.
  Table::Process p0;
  {
    Session<RealPlat> s0(t);
    p0 = s0.process();
    for (int a = 0; a < 300; ++a) submit(s0, StaticLockSet<2>({0, 4}), bump);
    EXPECT_GT(t.cached_slots(p0), 0u) << "caches never engaged";
  }
  EXPECT_EQ(t.cached_slots(p0), 0u) << "orderly release leaked cached slots";

  // Crash-abandoned: reuse the freed slot, warm it up again, then release
  // while an inspector guard is held — the parked path must spill too,
  // because the pid is retired forever and nothing could ever reuse the
  // cache. (A parked pid is not recycled: the next registration under a
  // 2-process table must fail-loudly only on the THIRD slot, so we just
  // check the spill here.)
  Table::Process p1;
  {
    Session<RealPlat> s1(t);
    p1 = s1.process();
    for (int a = 0; a < 300; ++a) submit(s1, StaticLockSet<2>({4, 8}), bump);
    EXPECT_GT(t.cached_slots(p1), 0u);
    t.ebr_enter(p1);  // leaves guard depth nonzero: the crash-parked shape
  }
  EXPECT_EQ(t.cached_slots(p1), 0u)
      << "crash-abandoned release leaked cached slots";
}

// The table must not perturb the simulator's determinism: identical seeds
// give identical outcomes.
TEST(LockTable, DeterministicUnderSim) {
  auto once = [] {
    LockConfig cfg;
    cfg.kappa = 4;
    cfg.max_locks = 2;
    cfg.max_thunk_steps = 8;
    cfg.c0 = 8.0;
    cfg.c1 = 8.0;
    auto space = std::make_unique<LockTable<TestPlat>>(cfg, 4, 4);
    auto counter = std::make_unique<Cell<TestPlat>>(0u);
    Cell<TestPlat>* cp = counter.get();
    std::uint64_t wins = 0;
    Simulator sim(42);
    for (int p = 0; p < 4; ++p) {
      sim.add_process([&, p] {
        Session<TestPlat> session(*space);
        for (int a = 0; a < 12; ++a) {
          const StaticLockSet<2> ids({static_cast<std::uint32_t>(p % 4),
                                      static_cast<std::uint32_t>((p + 1) % 4)});
          if (submit(session, ids, [cp](IdemCtx<TestPlat>& m) {
                m.store(*cp, m.load(*cp) + 1);
              }).won) {
            ++wins;
          }
        }
      });
    }
    UniformSchedule sched(4, 42);
    EXPECT_TRUE(sim.run(sched, 200'000'000));
    return std::make_pair(wins, counter->peek());
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.first, a.second);  // exactly-once
}

}  // namespace
}  // namespace wfl
