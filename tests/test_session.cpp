// Session / StaticLockSet / executor: the unified submission API.
//
//   * Session RAII — registration on construction, slot release on
//     destruction (a released pid is reused by the next session, so
//     bounded max_procs serves unbounded session generations), move-only
//     ownership;
//   * EbrGuard — scoped, re-entrant inspection guards, including around a
//     whole submit() (the attempt path shares the depth counters);
//   * StaticLockSet — sort + dedup + budget checks at construction;
//   * Policy equivalence — submit() one-shot reproduces the primitive
//     attempt's (LockTable::try_locks) AttemptInfo accounting exactly, step
//     for step, under the deterministic sim platform.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig practical_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs) + 1;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// --- Session RAII lifecycle ----------------------------------------------

TEST(Session, ReleasedSlotIsReusedByTheNextSession) {
  LockTable<RealPlat> space(practical_cfg(2), 2, 4);
  int first_pid = -1;
  {
    Session<RealPlat> s(space);
    first_pid = s.pid();
    EXPECT_GE(first_pid, 0);
  }
  // The destructor released the slot: a fresh session gets the same pid.
  Session<RealPlat> s2(space);
  EXPECT_EQ(s2.pid(), first_pid);
}

TEST(Session, BoundedProcsServeUnboundedSessionGenerations) {
  // max_procs = 1: without slot reuse the second registration would blow
  // the EBR participant capacity. Sequential sessions must keep working.
  LockTable<RealPlat> space(practical_cfg(1), 1, 2);
  Cell<RealPlat> x{0};
  for (int gen = 0; gen < 8; ++gen) {
    Session<RealPlat> s(space);
    const StaticLockSet<1> locks{0};
    EXPECT_TRUE(
        submit(s, locks, [&x](IdemCtx<RealPlat>& m) {
          m.store(x, m.load(x) + 1);
        }).won);
  }
  EXPECT_EQ(x.peek(), 8u);
  // Table-level stats survive across generations (handles are reused,
  // not reset): 8 attempts, 8 wins.
  EXPECT_EQ(space.stats().attempts, 8u);
  EXPECT_EQ(space.stats().wins, 8u);
}

TEST(Session, MoveTransfersOwnershipOfTheRegistration) {
  LockTable<RealPlat> space(practical_cfg(2), 2, 4);
  Session<RealPlat> a(space);
  const int pid = a.pid();
  Session<RealPlat> b(std::move(a));
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): probed API
  EXPECT_TRUE(b.active());
  EXPECT_EQ(b.pid(), pid);
  {
    // The moved-from shell's destruction must NOT release the slot...
    Session<RealPlat> shell(std::move(b));
    EXPECT_FALSE(b.active());  // NOLINT(bugprone-use-after-move)
    // ...but the owning shell's does.
  }
  Session<RealPlat> c(space);
  EXPECT_EQ(c.pid(), pid);
}

TEST(Session, WorksOverKnownAndUnknownBoundsTables) {
  // The same Session type serves every delay mode, §6.2's included.
  LockTable<RealPlat> space(practical_cfg(2), 2, 2);
  Session<RealPlat> via_alias(space);
  BasicSession via_table(space);         // CTAD on the table
  static_assert(std::is_same_v<decltype(via_table), Session<RealPlat>>);

  LockConfig unknown = practical_cfg(2);
  unknown.delay_mode = DelayMode::kUnknownBounds;
  LockTable<RealPlat> adaptive(unknown, 2, 2);
  {
    Session<RealPlat> s(adaptive);
    Cell<RealPlat> x{0};
    const StaticLockSet<1> locks{1};
    const Outcome o = submit(
        s, locks, [&x](IdemCtx<RealPlat>& m) { m.store(x, 7); },
        Policy::retry());
    EXPECT_TRUE(o.won);
    EXPECT_EQ(x.peek(), 7u);
    const int pid = s.pid();
    // Unknown-bounds slots recycle the same way.
    Session<RealPlat> t(adaptive);
    EXPECT_NE(t.pid(), pid);
  }
  // Both released (t with pid 1 first, then s with pid 0); the free list
  // is LIFO, so the next session reuses s's slot 0.
  Session<RealPlat> u(adaptive);
  EXPECT_EQ(u.pid(), 0);
}

// A process crash-parked mid-attempt (CrashSchedule) dies holding EBR
// guards at many slots; destroying its Session must fall back to abandon
// semantics — force-drop the guards, retire the slot — instead of
// aborting, and must never hand the poisoned slot to a new session. The
// slot sweep covers parks inside both guarded work segments and the
// unguarded delay segments.
TEST(Session, CrashParkedSessionIsAbandonedNotRecycled) {
  for (const std::uint64_t crash_slot :
       {50ull, 100ull, 700ull, 900ull, 2'000ull, 10'000ull}) {
    LockConfig cfg;  // theory mode: attempts spend most slots in delays,
    cfg.kappa = 2;   // but the guarded work segments are hit often enough
    cfg.max_locks = 1;
    cfg.max_thunk_steps = 4;
    cfg.c0 = 8.0;
    cfg.c1 = 8.0;
    LockTable<SimPlat> space(cfg, 3, 1);
    Simulator sim(crash_slot + 7);
    int victim_pid = -1;
    bool victim_finished = false;
    {
      std::vector<Session<SimPlat>> sessions;
      for (int p = 0; p < 2; ++p) sessions.emplace_back(space);
      victim_pid = sessions[0].pid();
      for (int p = 0; p < 2; ++p) {
        sim.add_process([&sessions, p] {
          Session<SimPlat>& s = sessions[static_cast<std::size_t>(p)];
          const StaticLockSet<1> locks{0};
          for (int a = 0; a < 40; ++a) {
            submit(s, locks, [](IdemCtx<SimPlat>&) {});
          }
        });
      }
      UniformSchedule inner(2, 11);
      CrashSchedule sched(inner, 2, {{0, crash_slot}}, 13);
      // The survivor must finish despite the crash (wait-freedom).
      ASSERT_TRUE(sim.run(sched, 4'000'000'000ull,
                          /*required_finishers=*/1))
          << "crash slot " << crash_slot;
      victim_finished = sim.is_finished(0);
      // Sessions die here — the victim's possibly mid-guard. No abort.
    }
    // The victim may have been parked in a guarded segment; its slot is
    // only recyclable when it provably ended orderly. Either way a fresh
    // session must register cleanly and new attempts must work (SimPlat
    // steps only advance inside a running simulator, so the attempt runs
    // under a second sim).
    Session<SimPlat> fresh(space);
    EXPECT_GE(fresh.pid(), 0);
    bool fresh_won = false;
    Simulator sim2(crash_slot + 99);
    sim2.add_process([&fresh, &fresh_won] {
      const StaticLockSet<1> locks{0};
      fresh_won =
          submit(fresh, locks, [](IdemCtx<SimPlat>&) {}, Policy::retry())
              .won;
    });
    UniformSchedule solo(1, 5);
    ASSERT_TRUE(sim2.run(solo, 1'000'000'000ull));
    EXPECT_TRUE(fresh_won) << "crash slot " << crash_slot;
    (void)victim_pid;
    (void)victim_finished;
  }
}

// --- EbrGuard -------------------------------------------------------------

TEST(Session, EbrGuardNestsAndWrapsAttempts) {
  LockTable<RealPlat> space(practical_cfg(1), 1, 4);
  Session<RealPlat> s(space);
  Cell<RealPlat> x{0};
  const StaticLockSet<2> locks{0, 1};
  {
    auto outer = s.guard();
    {
      auto inner = s.guard();  // re-entrant: depth 2
      // Inspection under the guard is legal...
      (void)space.lock_set(0).get_set();
    }
    // ...and so is a whole attempt while the outer guard is held (the
    // attempt path re-enters through the same depth counters).
    EXPECT_TRUE(submit(s, locks, [&x](IdemCtx<RealPlat>& m) {
      m.store(x, 5);
    }).won);
  }
  EXPECT_EQ(x.peek(), 5u);
  // Guards fully released: a fresh attempt still works.
  EXPECT_TRUE(submit(s, locks, [&x](IdemCtx<RealPlat>& m) {
    m.store(x, 6);
  }).won);
  EXPECT_EQ(x.peek(), 6u);
}

// --- StaticLockSet --------------------------------------------------------

TEST(LockSet, SortsAndDeduplicatesOnConstruction) {
  const std::uint32_t raw[] = {5, 2, 5, 7, 2};
  const StaticLockSet<8> set{std::span<const std::uint32_t>(raw)};
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], 2u);
  EXPECT_EQ(set[1], 5u);
  EXPECT_EQ(set[2], 7u);
  const LockSetView v = set;
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 5u);
}

TEST(LockSet, InsertKeepsOrderAndIgnoresDuplicates) {
  StaticLockSet<4> set;
  set.insert(9);
  set.insert(3);
  set.insert(9);  // duplicate: no-op
  set.insert(6);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], 3u);
  EXPECT_EQ(set[1], 6u);
  EXPECT_EQ(set[2], 9u);
}

TEST(LockSet, BudgetCheckedAgainstConfigAtConstruction) {
  LockConfig cfg = practical_cfg(1);
  cfg.max_locks = 2;
  const StaticLockSet<4> ok({3, 1}, cfg);  // at the budget: fine
  EXPECT_EQ(ok.size(), 2u);
  // Duplicates collapse BEFORE the check: {1, 1, 3} is two locks.
  const StaticLockSet<4> deduped({1, 1, 3}, cfg);
  EXPECT_EQ(deduped.size(), 2u);
}

// Death tests ride in the "Contracts" suite so the TSan CI job's
// GTEST_FILTER exclusion covers them (death tests fork; TSan dislikes it).
TEST(Contracts, LockSetOverflowFailsLoudly) {
  const std::uint32_t raw[] = {1, 2, 3, 4, 5};
  EXPECT_DEATH((StaticLockSet<4>{std::span<const std::uint32_t>(raw)}),
               "capacity");
}

TEST(Contracts, LockSetOverLBudgetFailsLoudly) {
  LockConfig cfg = practical_cfg(1);
  cfg.max_locks = 2;
  EXPECT_DEATH((StaticLockSet<4>{{1, 2, 3}, cfg}), "L bound");
}

TEST(Contracts, SubmitChecksTheLBudgetOnce) {
  LockTable<RealPlat> space(practical_cfg(1), 1, 8);
  Session<RealPlat> s(space);
  // A capacity-4 set of 3 locks against max_locks = 2: the view carries 3
  // ids, and submit's single boundary check must reject it.
  const StaticLockSet<4> too_many{1, 2, 3};
  EXPECT_DEATH(submit(s, too_many, [](IdemCtx<RealPlat>&) {}), "L bound");
}

// --- Policy equivalence under the deterministic simulator -----------------

// Contended single-lock arena in theory mode: every process's attempt
// sequence (wins, losses, step counts) is a pure function of the seeds.
LockConfig sim_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs);
  cfg.max_locks = 1;
  cfg.max_thunk_steps = 4;
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return cfg;
}

// submit(Policy::one_shot()) must fill Outcome exactly as the primitive
// try_locks fills AttemptInfo — same wins, same work segments, same totals,
// attempt for attempt, when driven by the identical deterministic schedule.
TEST(PolicyEquivalence, OneShotReproducesTryLocksAccounting) {
  const int procs = 3;
  const int attempts_each = 12;

  // Arm A: the primitive attempt submit() is built on, recording
  // AttemptInfo per attempt. The one direct caller outside the library.
  std::vector<std::vector<AttemptInfo>> infos(procs);
  {
    LockTable<SimPlat> space(sim_cfg(procs), procs, 1);
    Simulator sim(91);
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        auto proc = space.register_process();
        const StaticLockSet<1> ids{0};
        auto x = std::make_shared<Cell<SimPlat>>(0u);
        for (int a = 0; a < attempts_each; ++a) {
          AttemptInfo info;
          Cell<SimPlat>* xp = x.get();
          space.try_locks(
              proc, ids,
              [xp](IdemCtx<SimPlat>& m) { m.store(*xp, m.load(*xp) + 1); },
              &info);
          infos[static_cast<std::size_t>(p)].push_back(info);
        }
      });
    }
    UniformSchedule sched(procs, 17);
    ASSERT_TRUE(sim.run(sched, 4'000'000'000ull));
  }

  // Arm B: identical seeds and schedule, through Session + submit().
  std::vector<std::vector<Outcome>> outcomes(procs);
  {
    LockTable<SimPlat> space(sim_cfg(procs), procs, 1);
    Simulator sim(91);
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        Session<SimPlat> session(space);
        const StaticLockSet<1> locks{0};
        auto x = std::make_shared<Cell<SimPlat>>(0u);
        for (int a = 0; a < attempts_each; ++a) {
          Cell<SimPlat>* xp = x.get();
          outcomes[static_cast<std::size_t>(p)].push_back(submit(
              session, locks,
              [xp](IdemCtx<SimPlat>& m) { m.store(*xp, m.load(*xp) + 1); }));
        }
      });
    }
    UniformSchedule sched(procs, 17);
    ASSERT_TRUE(sim.run(sched, 4'000'000'000ull));
  }

  std::uint64_t total_wins = 0;
  for (int p = 0; p < procs; ++p) {
    const auto& ia = infos[static_cast<std::size_t>(p)];
    const auto& ob = outcomes[static_cast<std::size_t>(p)];
    ASSERT_EQ(ia.size(), ob.size());
    for (std::size_t k = 0; k < ia.size(); ++k) {
      EXPECT_EQ(ob[k].won, ia[k].won) << "proc " << p << " attempt " << k;
      EXPECT_EQ(ob[k].attempts, 1u);
      EXPECT_EQ(ob[k].total_steps, ia[k].total_steps);
      EXPECT_EQ(ob[k].pre_reveal_work, ia[k].pre_reveal_work);
      EXPECT_EQ(ob[k].post_reveal_work, ia[k].post_reveal_work);
      EXPECT_EQ(ob[k].backoff_steps, 0u);
      total_wins += ob[k].won ? 1 : 0;
    }
  }
  EXPECT_GT(total_wins, 0u);
}

// The backoff knob burns own steps between failed attempts in kOff mode
// and is inert under the paper's fixed delays.
TEST(PolicyEquivalence, BackoffOnlyAppliesWithDelaysOff) {
  const int procs = 3;
  auto run_once = [&](DelayMode mode) {
    std::uint64_t backoff_total = 0;
    std::uint64_t retried_calls = 0;
    LockConfig cfg = sim_cfg(procs);
    cfg.delay_mode = mode;
    LockTable<SimPlat> space(cfg, procs, 1);
    Simulator sim(53);
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        (void)p;
        Session<SimPlat> session(space);
        const StaticLockSet<1> locks{0};
        for (int c = 0; c < 10; ++c) {
          const Outcome o =
              submit(session, locks, [](IdemCtx<SimPlat>&) {},
                     Policy::retry().with_backoff(8, 64));
          backoff_total += o.backoff_steps;
          retried_calls += o.attempts > 1 ? 1 : 0;
          EXPECT_TRUE(o.won);
        }
      });
    }
    UniformSchedule sched(procs, 71);
    EXPECT_TRUE(sim.run(sched, 4'000'000'000ull));
    return std::make_pair(backoff_total, retried_calls);
  };

  const auto [off_backoff, off_retries] = run_once(DelayMode::kOff);
  ASSERT_GT(off_retries, 0u) << "arena not contended; test is vacuous";
  EXPECT_GT(off_backoff, 0u);

  const auto [theory_backoff, theory_retries] = run_once(DelayMode::kTheory);
  (void)theory_retries;
  EXPECT_EQ(theory_backoff, 0u);  // theory mode owns the timing
}

// The defaulted cap is 1024x the base, SATURATING: `base << 10` silently
// overflowed for base >= 2^54, producing a cap smaller than the base (or
// zero — i.e. uncapped growth, the opposite of what the default promises).
TEST(Policy, WithBackoffDefaultCapSaturatesInsteadOfOverflowing) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};

  // Normal range: cap = base << 10.
  EXPECT_EQ(Policy::retry().with_backoff(8).backoff_cap,
            std::uint64_t{8} << 10);
  // Largest base whose 1024x still fits.
  EXPECT_EQ(Policy::retry().with_backoff(kMax >> 10).backoff_cap,
            (kMax >> 10) << 10);
  // One past it — and the extreme — must clamp to the maximum, never
  // wrap below the base.
  const std::uint64_t big = (kMax >> 10) + 1;
  EXPECT_EQ(Policy::retry().with_backoff(big).backoff_cap, kMax);
  EXPECT_EQ(Policy::retry().with_backoff(kMax).backoff_cap, kMax);
  EXPECT_GE(Policy::retry().with_backoff(std::uint64_t{1} << 60).backoff_cap,
            std::uint64_t{1} << 60);

  // An explicit cap is always taken verbatim.
  EXPECT_EQ(Policy::retry().with_backoff(8, 5).backoff_cap, 5u);
}

}  // namespace
}  // namespace wfl
