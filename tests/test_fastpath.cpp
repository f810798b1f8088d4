// The contended-path optimizations (DESIGN.md §5): thin-word fast path,
// cooperative helping, and batched submission.
//
// Safety-critical interleavings run under the deterministic simulator —
// revocation races (a thin-word owner crashing at swept slots while a
// contender revokes and helps), help-claim expiry (a crashed claimer must
// not wedge anyone), and the step-for-step equivalence of submit_batch
// against a loop of single submits. The RealPlat tests pin the observable
// contracts: a warm uncontended single-lock attempt decides entirely
// through the thin word (zero descriptor-pool traffic), kTheory executions
// are untouched, and a revoked descriptor cools down through a grace
// period before reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

#include "test_plat.hpp"

namespace wfl {

using test::TestPlat;
namespace {

using Table = LockTable<RealPlat>;
using SimTable = LockTable<TestPlat>;

LockConfig off_cfg(std::uint32_t kappa, std::uint32_t max_locks = 2,
                   std::uint32_t thunk_steps = 8) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = thunk_steps;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// --- fast-path basics (RealPlat) -----------------------------------------

// A warm uncontended single-lock workload must decide every attempt via
// the thin word: fastpath_hits tracks attempts 1:1, the descriptor pool is
// never touched, the shared freelists see zero transactions, and nothing is
// revoked.
TEST(FastPath, UncontendedHitsAndZeroPoolTraffic) {
  Table t(off_cfg(2, 1), 2, 16);
  ASSERT_TRUE(t.fast_path_enabled());
  Session<RealPlat> session(t);
  Cell<RealPlat> c{0};
  // Pool construction pushes every slot through the freelist; the attempt
  // window below must add ZERO on top of that.
  const std::uint64_t fl0 = t.freelist_ops();
  const int kAttempts = 500;
  for (int a = 0; a < kAttempts; ++a) {
    const StaticLockSet<1> ids({static_cast<std::uint32_t>(a % 16)});
    ASSERT_TRUE(submit(session, ids, [&c](IdemCtx<RealPlat>& m) {
                  m.store(c, m.load(c) + 1);
                }).won);
  }
  const LockStats s = t.stats();
  EXPECT_EQ(s.attempts, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(s.wins, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(s.fastpath_hits, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(s.fastpath_revocations, 0u);
  EXPECT_EQ(c.peek(), static_cast<std::uint32_t>(kAttempts));
  EXPECT_EQ(t.freelist_ops(), fl0) << "fast path touched a shared freelist";
  EXPECT_EQ(t.desc_free(), t.desc_capacity())
      << "fast path allocated a descriptor";
  for (std::uint32_t id = 0; id < 16; ++id) {
    EXPECT_EQ(t.thin_word_peek(id), 0u) << "thin word leaked on lock " << id;
  }
}

// The exact own steps of an uncontended attempt (DESIGN.md §3.8 prices
// each phase): RealPlat, kOff, one session, the benchmark's two txn ops.
// An L=1 increment on the thin-word fast path: publish CAS (1), getSet
// (1), own status (1), thin probe (1), decide (1), done word (1), the
// thunk's load (slot, cell, CAS: 3) and store (slot, cell, CAS, cell CAS:
// 4), done store (1), release CAS (1) — 15. An L=2 transfer on the
// descriptor path: help phase (getSet + thin probe per lock: 4), two
// inserts (owner load, claim CAS, own level's cur/above/CAS: 10), reveal
// (1), run (getSet, own status, thin probe per lock: 6), decide (1), done
// word (1), two loads and two stores (14), done store (1), unflag (1), two
// removes (owner store, then cur/above/owner/CAS: 10) — 49. No step
// re-reads the attempt's own descriptor or a word a CAS just reported.
TEST(StepCount, UncontendedAttemptsArePinned) {
  Table t(off_cfg(2, 2), 2, 8);
  Session<RealPlat> session(t);
  Cell<RealPlat> a{100};
  Cell<RealPlat> b{100};
  Cell<RealPlat>* ap = &a;
  Cell<RealPlat>* bp = &b;
  auto own_steps = [](auto&& op) {
    const std::uint64_t before = RealPlat::steps();
    const Outcome o = op();
    EXPECT_TRUE(o.won);
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_EQ(o.total_steps, RealPlat::steps() - before);
    return o.total_steps;
  };
  for (int round = 0; round < 3; ++round) {  // cold and warm alike
    SCOPED_TRACE(round);
    EXPECT_EQ(own_steps([&] {
                return submit(session, StaticLockSet<1>({0}),
                              [ap](IdemCtx<RealPlat>& m) {
                                m.store(*ap, m.load(*ap) + 1);
                              });
              }),
              15u);
    EXPECT_EQ(own_steps([&] {
                return submit(session, StaticLockSet<2>({0, 1}),
                              [ap, bp](IdemCtx<RealPlat>& m) {
                                const std::uint32_t x = m.load(*ap);
                                const std::uint32_t y = m.load(*bp);
                                m.store(*ap, x - 1);
                                m.store(*bp, y + 1);
                              });
              }),
              49u);
  }
  EXPECT_EQ(a.peek(), 100u);
  EXPECT_EQ(b.peek(), 103u);
  EXPECT_EQ(t.stats().fastpath_hits, 3u);
}

// kTheory executions are bit-identical to the pre-fast-path tree: the
// switch is hard-gated on DelayMode::kOff.
TEST(FastPath, DisabledUnderTheoryDelays) {
  LockConfig cfg = off_cfg(2, 1);
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 4.0;
  cfg.c1 = 4.0;
  Table t(cfg, 2, 8);
  EXPECT_FALSE(t.fast_path_enabled());
  EXPECT_FALSE(t.claim_helping_enabled());
  Session<RealPlat> session(t);
  Cell<RealPlat> c{0};
  ASSERT_TRUE(submit(session, StaticLockSet<1>({3}), [&c](IdemCtx<RealPlat>& m) {
                m.store(c, m.load(c) + 1);
              }).won);
  EXPECT_EQ(t.stats().fastpath_hits, 0u);
}

// Multi-lock attempts always take the descriptor path; the fast path is a
// single-lock specialization.
TEST(FastPath, MultiLockAttemptsTakeDescriptorPath) {
  Table t(off_cfg(2, 2), 2, 8);
  Session<RealPlat> session(t);
  Cell<RealPlat> c{0};
  ASSERT_TRUE(submit(session, StaticLockSet<2>({1, 2}),
                     [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); })
                  .won);
  EXPECT_EQ(t.stats().fastpath_hits, 0u);
  EXPECT_EQ(t.stats().wins, 1u);
}

// --- revocation races under the simulator --------------------------------

struct SimRunResult {
  std::uint64_t wins_recorded = 0;       // survivor + victim returned wins
  std::uint64_t victim_recorded = 0;
  std::uint64_t counted = 0;             // critical-section counter
  std::uint64_t flag_violations = 0;     // CS overlap detector
  std::uint64_t fastpath_hits = 0;
  std::uint64_t fastpath_revocations = 0;
  std::uint64_t help_claim_skips = 0;
  bool survivors_finished = false;
};

// `procs` processes hammer ONE lock with single-lock kOff attempts (all of
// them fast-path candidates: whoever publishes first forces the rest onto
// the descriptor path, which must observe/revoke the thin word). When
// crash_slot > 0, the last process is crashed there — including, across
// the sweep, mid-thunk with the thin word held, the interleaving the
// revocation protocol exists for.
SimRunResult run_contended_sim(int procs, int attempts,
                               std::uint64_t crash_slot, std::uint64_t seed) {
  auto space = std::make_unique<SimTable>(
      off_cfg(static_cast<std::uint32_t>(procs), 1), procs, 4);
  auto busy = std::make_unique<Cell<TestPlat>>(0u);
  auto cnt = std::make_unique<Cell<TestPlat>>(0u);
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(procs), 0);
  std::uint64_t violations = 0;
  const int victim = crash_slot > 0 ? procs - 1 : -1;
  typename SimTable::Process victim_proc{};

  Simulator sim(seed);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> session(*space);
      if (p == victim) victim_proc = session.process();
      int won_count = 0;
      // Retry until `attempts` wins so every process exercises both the
      // fast and the (contended) descriptor path many times.
      while (won_count < attempts) {
        Cell<TestPlat>* flag = busy.get();
        Cell<TestPlat>* counter = cnt.get();
        std::uint64_t* viol = &violations;
        const bool won =
            submit(session, StaticLockSet<1>({0}),
                   [flag, counter, viol](IdemCtx<TestPlat>& m) {
                     if (m.load(*flag) != 0) ++*viol;
                     m.store(*flag, 1);
                     m.store(*counter, m.load(*counter) + 1);
                     m.store(*flag, 0);
                   })
                .won;
        if (won) {
          ++won_count;
          ++wins[static_cast<std::size_t>(p)];
        }
      }
    });
  }

  UniformSchedule inner(procs, seed);
  SimRunResult res;
  if (victim >= 0) {
    CrashSchedule sched(inner, procs, {{victim, crash_slot}}, seed ^ 0xBEEF);
    for (;;) {
      bool survivors_done = true;
      for (int p = 0; p < procs - 1; ++p) {
        survivors_done = survivors_done && sim.is_finished(p);
      }
      if (survivors_done) {
        res.survivors_finished = true;
        break;
      }
      if (!sim.run(sched, 400'000'000, sim.finished_count() + 1)) break;
    }
    if (victim_proc.pid >= 0 && !sim.is_finished(victim)) {
      space->abandon_process(victim_proc);
    }
  } else {
    res.survivors_finished = sim.run(inner, 400'000'000);
  }

  for (int p = 0; p < procs; ++p) {
    res.wins_recorded += wins[static_cast<std::size_t>(p)];
    if (p == victim) res.victim_recorded = wins[static_cast<std::size_t>(p)];
  }
  res.counted = cnt->peek();
  res.flag_violations = violations;
  const LockStats s = space->stats();
  res.fastpath_hits = s.fastpath_hits;
  res.fastpath_revocations = s.fastpath_revocations;
  res.help_claim_skips = s.help_claim_skips;
  return res;
}

// Crash-free contention: every won attempt's critical section runs exactly
// once (counter == wins), sections never overlap, and the sweep actually
// exercised both the fast path and revocations.
TEST(FastPath, ContendedSimConservesAndRevokes) {
  std::uint64_t total_hits = 0;
  std::uint64_t total_revocations = 0;
  std::uint64_t total_claim_skips = 0;
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    const SimRunResult r = run_contended_sim(3, 12, 0, seed);
    ASSERT_TRUE(r.survivors_finished);
    EXPECT_EQ(r.flag_violations, 0u) << "overlapping critical sections";
    EXPECT_EQ(r.counted, r.wins_recorded) << "lost or duplicated update";
    total_hits += r.fastpath_hits;
    total_revocations += r.fastpath_revocations;
    total_claim_skips += r.help_claim_skips;
  }
  EXPECT_GT(total_hits, 0u) << "fast path never engaged under the sweep";
  EXPECT_GT(total_revocations, 0u)
      << "contenders never revoked a thin word under the sweep";
  EXPECT_GT(total_claim_skips, 0u)
      << "cooperative helping never ceded a drive to the claim holder";
}

// Determinism: the fast path must not perturb simulator reproducibility.
TEST(FastPath, ContendedSimIsDeterministic) {
  const SimRunResult a = run_contended_sim(3, 8, 0, 99);
  const SimRunResult b = run_contended_sim(3, 8, 0, 99);
  EXPECT_EQ(a.counted, b.counted);
  EXPECT_EQ(a.fastpath_hits, b.fastpath_hits);
  EXPECT_EQ(a.fastpath_revocations, b.fastpath_revocations);
  EXPECT_EQ(a.help_claim_skips, b.help_claim_skips);
}

// The revocation-race sweep: the victim crashes at slots chosen to land
// before, inside, and after its attempts — including holding the thin word
// with its thunk half-run, where a contender must revoke, replay the
// winner's thunk through the idempotence log, and move on. Survivors must
// always finish (no wedge) with exact accounting up to the single
// in-flight attempt.
class FastPathCrashSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(FastPathCrashSweep, SurvivorsFinishAndStayExact) {
  const std::uint64_t crash_slot = std::get<0>(GetParam());
  const auto seed = static_cast<std::uint64_t>(std::get<1>(GetParam()));
  const SimRunResult r = run_contended_sim(3, 10, crash_slot, seed);
  EXPECT_TRUE(r.survivors_finished)
      << "a crashed thin-word owner wedged the lock";
  EXPECT_EQ(r.flag_violations, 0u) << "overlapping critical sections";
  // The victim's one in-flight attempt may have been completed by a
  // helper after the crash (counted but not recorded).
  EXPECT_GE(r.counted, r.wins_recorded);
  EXPECT_LE(r.counted, r.wins_recorded + 1);
}

INSTANTIATE_TEST_SUITE_P(
    PhaseAndSeed, FastPathCrashSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 25, 120, 600,
                                                        3'000, 15'000),
                       ::testing::Values(1, 2, 5)),
    [](const ::testing::TestParamInfo<FastPathCrashSweep::ParamType>& info) {
      return "slot" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// After a revocation the embedded descriptor cools down through a grace
// period — and once it expires, the fast path RESUMES (the cooldown is a
// pause, not a permanent demotion).
TEST(FastPath, CooldownResumesAfterGrace) {
  auto space = std::make_unique<SimTable>(off_cfg(2, 1), 2, 4);
  auto c = std::make_unique<Cell<TestPlat>>(0u);
  std::uint64_t hits_after_contention = 0;

  Simulator sim(31);
  sim.add_process([&] {
    Session<TestPlat> session(*space);
    const StaticLockSet<1> ids({0});
    // Phase 1: contended window (proc 1 racing on the same lock).
    for (int a = 0; a < 200; ++a) {
      submit(session, ids,
             [&](IdemCtx<TestPlat>& m) { m.store(*c, m.load(*c) + 1); });
    }
    // Phase 2: alone. Descriptor-path attempts keep retiring into the EBR
    // pipeline, so any pending cooldown token drains and the fast path
    // must come back.
    const std::uint64_t hits_before = space->stats().fastpath_hits;
    for (int a = 0; a < 400; ++a) {
      submit(session, ids,
             [&](IdemCtx<TestPlat>& m) { m.store(*c, m.load(*c) + 1); });
    }
    hits_after_contention = space->stats().fastpath_hits - hits_before;
  });
  sim.add_process([&] {
    Session<TestPlat> session(*space);
    const StaticLockSet<1> ids({0});
    for (int a = 0; a < 150; ++a) {
      submit(session, ids,
             [&](IdemCtx<TestPlat>& m) { m.store(*c, m.load(*c) + 1); });
    }
  });
  UniformSchedule sched(2, 31);
  ASSERT_TRUE(sim.run(sched, 400'000'000));
  EXPECT_GT(hits_after_contention, 0u)
      << "fast path never resumed after cooldown";
}

// The cooldown ends on a grace period, not on the retire cadence: a
// cooling-down process collects before each single-lock attempt, so once
// its rival has ended, two epoch advances — a few attempts — re-arm the
// fast path, whatever EbrDomain::kCollectEvery is. The rival's attempt
// runs inside the owner's thunk, while the owner's publication holds the
// thin word, so it revokes that publication deterministically.
TEST(FastPath, CooldownEndsWithinFourAttemptsOfTheRivalsExit) {
  constexpr int kMaxAttemptsToReady = 4;
  Table t(off_cfg(2, 1), 2, 4);
  Session<RealPlat> owner(t);
  auto rival = std::make_unique<Session<RealPlat>>(t);
  Table::Handle& h = t.handle(owner.process());
  const StaticLockSet<1> ids({0});
  Cell<RealPlat> c{0};
  bool rival_ran = false;
  // A rival that helps the owner replays this thunk; the flag keeps the
  // replay from nesting another attempt.
  submit(owner, ids, [&](IdemCtx<RealPlat>& m) {
    m.store(c, m.load(c) + 1);
    if (rival_ran) return;
    rival_ran = true;
    submit(*rival, ids, [](IdemCtx<RealPlat>&) {});
  });
  ASSERT_TRUE(rival_ran);
  ASSERT_EQ(t.stats().fastpath_revocations, 1u);
  ASSERT_FALSE(h.fast_ready()) << "the revoked owner is not cooling down";
  rival.reset();

  const std::uint64_t hits_before = t.stats().fastpath_hits;
  int attempts = 0;
  while (!h.fast_ready() && attempts < 1000) {
    submit(owner, ids, [](IdemCtx<RealPlat>&) {});
    ++attempts;
  }
  EXPECT_LE(attempts, kMaxAttemptsToReady)
      << "the cooldown waited for the retire cadence";
  ASSERT_TRUE(submit(owner, ids, [](IdemCtx<RealPlat>&) {}).won);
  EXPECT_GT(t.stats().fastpath_hits, hits_before)
      << "the fast path did not resume after the cooldown";
}

// --- cooperative helping --------------------------------------------------

// Under real-thread contention the claim protocol must engage (helpers
// skip redundant drives) while conservation stays exact — the claim is
// advisory and can never change an outcome.
TEST(HelpClaim, EngagesUnderContentionAndConserves) {
  const int threads = 4;
  const int per_thread = 400;
  auto t = std::make_unique<Table>(off_cfg(threads, 1), threads, 2);
  ASSERT_TRUE(t->claim_helping_enabled());
  Cell<RealPlat> cnt{0};
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> ts;
  for (int k = 0; k < threads; ++k) {
    ts.emplace_back([&, k] {
      RealPlat::seed_rng(0x5EED + static_cast<std::uint64_t>(k));
      Session<RealPlat> session(*t);
      const StaticLockSet<1> ids({0});
      std::uint64_t local = 0;
      for (int a = 0; a < per_thread; ++a) {
        local += submit(session, ids, [&cnt](IdemCtx<RealPlat>& m) {
                   m.store(cnt, m.load(cnt) + 1);
                 }).won;
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(cnt.peek(), wins.load()) << "lost or duplicated update";
  // Engagement (helps/skips/revocations > 0) is NOT asserted here: on a
  // single-core runner the OS can serialize the threads so completely that
  // no attempt ever overlaps another. The deterministic engagement
  // assertions live in the sim tests above/below.
}

// A crashed process that may hold help claims (it is helping others
// whenever it runs) must not stall anyone: patience-bounded revocation
// means survivors always finish. The contended crash sweep above already
// crashes claimers at arbitrary points; this adds more processes so claims
// are plentiful.
TEST(HelpClaim, CrashedClaimerIsRevoked) {
  for (const std::uint64_t crash_slot : {400ull, 2'000ull, 9'000ull}) {
    const SimRunResult r = run_contended_sim(4, 8, crash_slot, 13);
    EXPECT_TRUE(r.survivors_finished)
        << "a dead claimer wedged the competition at slot " << crash_slot;
    EXPECT_EQ(r.flag_violations, 0u);
    EXPECT_GE(r.counted, r.wins_recorded);
    EXPECT_LE(r.counted, r.wins_recorded + 1);
  }
}

// --- batched submission ---------------------------------------------------

struct BatchSimOut {
  std::uint64_t steps = 0;
  std::uint64_t wins = 0;
  std::uint32_t counters[3] = {};
};

// One process, three single-lock ops over three cells, submitted either as
// a loop of submit() calls or as one submit_batch. The batch's pre-entered
// guard is outside the step model, so the two executions must be
// step-for-step identical.
BatchSimOut run_batch_sim(bool batched, std::uint64_t seed) {
  BatchSimOut out;
  auto space = std::make_unique<SimTable>(off_cfg(2, 2), 2, 8);
  std::vector<std::unique_ptr<Cell<TestPlat>>> cells;
  for (int i = 0; i < 3; ++i) {
    cells.push_back(std::make_unique<Cell<TestPlat>>(0u));
  }
  Simulator sim(seed);
  sim.add_process([&] {
    BasicSession<SimTable> session(*space);
    using Op = PreparedOp<TestPlat>;
    std::vector<Op> ops;
    for (std::uint32_t i = 0; i < 3; ++i) {
      Cell<TestPlat>* cell = cells[i].get();
      const StaticLockSet<1> locks{i};
      ops.push_back(Op(locks, [cell](IdemCtx<TestPlat>& m) {
        m.store(*cell, m.load(*cell) + 1);
      }));
    }
    for (int round = 0; round < 8; ++round) {
      if (batched) {
        const BatchOutcome o = submit_batch(
            session, std::span<const Op>(ops.data(), ops.size()),
            Policy::retry());
        out.wins += o.wins;
      } else {
        for (const Op& op : ops) {
          const Outcome o =
              submit(session, op.locks(), op.armed(), Policy::retry());
          out.wins += o.won ? 1 : 0;
        }
      }
    }
  });
  RoundRobinSchedule sched(1);
  EXPECT_TRUE(sim.run(sched, 100'000'000));
  out.steps = sim.steps_of(0);
  for (int i = 0; i < 3; ++i) out.counters[i] = cells[i]->peek();
  return out;
}

TEST(Batch, StepForStepEquivalentToSubmitLoop) {
  const BatchSimOut loop = run_batch_sim(false, 2022);
  const BatchSimOut batch = run_batch_sim(true, 2022);
  EXPECT_EQ(loop.steps, batch.steps)
      << "submit_batch changed the op-visible step sequence";
  EXPECT_EQ(loop.wins, batch.wins);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(loop.counters[i], batch.counters[i]);
  }
}

TEST(Batch, PerOpOutcomesAndAggregates) {
  Table t(off_cfg(2, 2), 2, 8);
  BasicSession<Table> session(t);
  Cell<RealPlat> a{0}, b{0};
  using Op = PreparedOp<RealPlat>;
  const StaticLockSet<1> la{1};
  const StaticLockSet<2> lab{1, 2};
  Cell<RealPlat>* ap = &a;
  Cell<RealPlat>* bp = &b;
  const Op ops[] = {
      Op(la, [ap](IdemCtx<RealPlat>& m) { m.store(*ap, m.load(*ap) + 1); }),
      Op(lab,
         [ap, bp](IdemCtx<RealPlat>& m) {
           m.store(*ap, m.load(*ap) + 1);
           m.store(*bp, m.load(*bp) + 1);
         }),
      Op(la, [ap](IdemCtx<RealPlat>& m) { m.store(*ap, m.load(*ap) + 2); }),
  };
  Outcome per_op[3];
  const BatchOutcome o =
      submit_batch(session, std::span<const Op>(ops, 3), Policy::retry(),
                   per_op);
  EXPECT_TRUE(static_cast<bool>(o));
  EXPECT_EQ(o.ops, 3u);
  EXPECT_EQ(o.wins, 3u);
  std::uint64_t attempts = 0, steps = 0;
  for (const Outcome& po : per_op) {
    EXPECT_TRUE(po.won);
    attempts += po.attempts;
    steps += po.total_steps;
  }
  EXPECT_EQ(o.attempts, attempts);
  EXPECT_EQ(o.total_steps, steps);
  EXPECT_EQ(a.peek(), 4u);
  EXPECT_EQ(b.peek(), 1u);
}

// The Bank substrate's batch entry point conserves money under real-thread
// contention — the canonical lost/duplicated-update detector, now through
// submit_batch.
TEST(Batch, BankTransferBatchConserves) {
  const int threads = 4;
  const std::uint32_t accounts = 8;
  BackendConfig bc;
  bc.lock = off_cfg(threads, 2);
  bc.max_procs = threads;
  bc.num_locks = static_cast<int>(accounts);
  auto space = WflBackend<RealPlat>::make_space(bc);
  Bank<WflBackend<RealPlat>> bank(*space, accounts, 1000);
  std::vector<std::thread> ts;
  for (int k = 0; k < threads; ++k) {
    ts.emplace_back([&, k] {
      RealPlat::seed_rng(0xABCD + static_cast<std::uint64_t>(k));
      BasicSession<Table> session(*space);
      Xoshiro256 rng(17 * k + 5);
      using Transfer = Bank<WflBackend<RealPlat>>::Transfer;
      for (int round = 0; round < 40; ++round) {
        std::vector<Transfer> xs;
        for (int i = 0; i < 12; ++i) {
          const auto from =
              static_cast<std::uint32_t>(rng.next_below(accounts));
          auto to = static_cast<std::uint32_t>(rng.next_below(accounts));
          if (to == from) to = (to + 1) % accounts;
          xs.push_back(Transfer{
              from, to, static_cast<std::uint32_t>(rng.next_below(20))});
        }
        const BatchOutcome o = bank.transfer_batch(
            session, std::span<const Transfer>(xs.data(), xs.size()),
            Policy::retry());
        EXPECT_EQ(o.wins, o.ops);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
}

TEST(Batch, HashMapPutBatch) {
  BackendConfig bc;
  bc.lock = off_cfg(2, 2, LockedHashMap<RealPlat>::thunk_step_budget());
  bc.max_procs = 2;
  bc.num_locks = 8;
  auto space = WflBackend<RealPlat>::make_space(bc);
  LockedHashMap<WflBackend<RealPlat>> map(*space, 8, 256);
  BasicSession<Table> session(*space);
  using Put = LockedHashMap<WflBackend<RealPlat>>::Put;
  std::vector<Put> puts;
  for (std::uint64_t k = 0; k < 40; ++k) {
    puts.push_back(Put{k, static_cast<std::uint32_t>(100 + k)});
  }
  puts.push_back(Put{7, 999});  // duplicate key: must report kMapExists
  std::vector<std::uint32_t> results(puts.size(), kMapPending);
  const BatchOutcome o = map.put_batch(
      session, std::span<const Put>(puts.data(), puts.size()),
      results.data());
  EXPECT_EQ(o.wins, o.ops);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(results[i], kMapOk) << "put " << i;
  }
  EXPECT_EQ(results[40], kMapExists);
  std::uint32_t v = 0;
  EXPECT_EQ(map.get_locked(session, 7, &v), kMapOk);
  EXPECT_EQ(v, 999u);
  EXPECT_EQ(map.get_locked(session, 39, &v), kMapOk);
  EXPECT_EQ(v, 139u);
}

}  // namespace
}  // namespace wfl
