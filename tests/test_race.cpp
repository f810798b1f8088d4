// Detector self-tests for the vector-clock race & ordering-audit engine
// (check/race.hpp). Two obligations:
//
//   1. Soundness on the clean tree: running the real lock algorithm under
//      CheckedPlat across many seeds — theory mode and the fast path —
//      produces ZERO findings while processing a nontrivial event stream.
//   2. Sensitivity: seeded *model* mutations (the engine pretends an order
//      was weakened — see RaceEngine::Mutation) and one genuine out-of-band
//      write are each caught, with a printed seed+slot reproducer,
//      deterministically.
//
// A third test pins the raw atomic itself: race::Atomic reports exactly
// the operation it executed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using race::RaceEngine;
using Mutation = RaceEngine::Mutation;
using Space = LockTable<CheckedPlat>;

// A small contended workload: every process hammers the same lock set and
// bumps a per-resource counter through the idempotent cell — enough traffic
// to exercise descriptors, helping, EBR reclamation and (in kOff mode) the
// thin-word fast path.
struct CheckedWorkload {
  LockConfig cfg;
  int procs = 4;
  int locks = 2;
  int attempts = 10;
  std::uint64_t seed = 1;
  bool single_lock = false;  // per-attempt single-lock picks (fast path)

  void run() {
    cfg.kappa = procs;
    cfg.max_thunk_steps = 8;
    cfg.c0 = 8.0;
    cfg.c1 = 8.0;
    auto space = std::make_unique<Space>(cfg, procs, locks);
    std::vector<std::unique_ptr<Cell<CheckedPlat>>> count;
    for (int i = 0; i < locks; ++i) {
      count.push_back(std::make_unique<Cell<CheckedPlat>>(0u));
    }
    Simulator sim(seed);
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        Session<CheckedPlat> session(*space);
        for (int a = 0; a < attempts; ++a) {
          const StaticLockSet<2> ids =
              single_lock ? StaticLockSet<2>(
                                {static_cast<std::uint32_t>((p + a) % locks)})
                          : StaticLockSet<2>({0u, 1u});
          Cell<CheckedPlat>& cnt = *count[ids[0]];
          submit(session, ids, [&cnt](IdemCtx<CheckedPlat>& m) {
            const std::uint32_t v = m.load(cnt);
            m.store(cnt, v + 1);
          });
        }
      });
    }
    UniformSchedule sched(procs, seed);
    ASSERT_TRUE(sim.run(sched, 200'000'000))
        << "slots exhausted: " << sim.slots_used();
  }
};

CheckedWorkload theory_clique(std::uint64_t seed) {
  CheckedWorkload w;
  w.cfg.max_locks = 2;
  w.seed = seed;
  return w;
}

CheckedWorkload fastpath_contended(std::uint64_t seed) {
  CheckedWorkload w;
  w.cfg.delay_mode = DelayMode::kOff;
  w.cfg.max_locks = 1;
  w.single_lock = true;
  w.seed = seed;
  return w;
}

std::size_t count_kind(const RaceEngine& eng, const char* kind) {
  std::size_t n = 0;
  for (const race::Finding& f : eng.findings()) {
    if (std::strcmp(f.kind, kind) == 0) ++n;
  }
  return n;
}

std::string dump(const RaceEngine& eng) {
  std::ostringstream os;
  eng.report(os);
  return os.str();
}

// --- 1. Clean tree: zero findings across >= 20 seeds, both modes. ---

TEST(Race, CleanTreeZeroFindingsAcrossSeeds) {
  RaceEngine eng;
  eng.install();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    CheckedWorkload w = theory_clique(seed);
    w.run();
    EXPECT_TRUE(eng.findings().empty())
        << "theory-mode seed " << seed << ":\n" << dump(eng);
    eng.clear_findings();
  }
  for (std::uint64_t seed = 13; seed <= 24; ++seed) {
    CheckedWorkload w = fastpath_contended(seed);
    w.run();
    EXPECT_TRUE(eng.findings().empty())
        << "fast-path seed " << seed << ":\n" << dump(eng);
    eng.clear_findings();
  }
  // The pass must be vacuous-proof: the hooks really fed the model.
  EXPECT_GT(eng.events(), 100'000u);
}

// --- 2. Mutation: weaken the EBR announce store to relaxed. ---
//
// ebr.announce is the guard's half of the EBR publication Dekker
// (DESIGN.md §4.4): it must precede the verify load in the seq_cst order.
// A relaxed announce must trip the ordering audit on the first guard.

Mutation ebr_announce_relaxed() {
  return {Mutation::Kind::kDowngradeOrder, race::Site::kEbrAnnounce,
          std::memory_order_relaxed};
}

TEST(Race, EbrAnnounceDowngradeCaught) {
  RaceEngine eng;
  eng.install();
  eng.set_mutation(ebr_announce_relaxed());
  CheckedWorkload w = theory_clique(42);
  w.run();
  ASSERT_GE(count_kind(eng, "contract"), 1u) << dump(eng);
  bool named = false;
  for (const race::Finding& f : eng.findings()) {
    if (f.message.find("ebr.announce") != std::string::npos &&
        f.message.find("seed=42") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << dump(eng);
}

// --- 3. Mutation: weaken the thin-word publish CAS to relaxed. ---
//
// thin.publish is the Dekker partner of the slow path's set insert
// (DESIGN.md §5.1); its contract is kSeqCstOnly. A relaxed publish must
// trip the ordering audit on the first fast-path attempt.

TEST(Race, ThinPublishDowngradeCaught) {
  RaceEngine eng;
  eng.install();
  eng.set_mutation({Mutation::Kind::kDowngradeOrder, race::Site::kThinPublish,
                    std::memory_order_relaxed});
  CheckedWorkload w = fastpath_contended(7);
  w.run();
  ASSERT_GE(count_kind(eng, "contract"), 1u) << dump(eng);
  bool named = false;
  for (const race::Finding& f : eng.findings()) {
    if (f.message.find("thin.publish") != std::string::npos &&
        f.message.find("seed=7") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << dump(eng);
}

// --- 4. Mutation: weaken the EBR guard-exit store to relaxed. ---
//
// ebr.exit publishes the guard's critical-section reads to the collector
// scan (contract kReleaseStore); relaxed must be flagged on every exit.

TEST(Race, EbrExitDowngradeCaught) {
  RaceEngine eng;
  eng.install();
  eng.set_mutation({Mutation::Kind::kDowngradeOrder, race::Site::kEbrExit,
                    std::memory_order_relaxed});
  CheckedWorkload w = theory_clique(9);
  w.run();
  ASSERT_GE(count_kind(eng, "contract"), 1u) << dump(eng);
  bool named = false;
  for (const race::Finding& f : eng.findings()) {
    if (f.message.find("ebr.exit") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << dump(eng);
}

// --- 5. A genuine un-instrumented write: the shadow check. ---
//
// Poke a descriptor-log slot's storage behind the platform's back (a
// stray memcpy over a live thunk log); the next hooked load must report
// a shadow mismatch.

TEST(Race, OutOfBandDescriptorLogWriteCaught) {
  RaceEngine eng;
  eng.install();
  Simulator sim(11);
  sim.add_process([] {
    ThunkLog<CheckedPlat> log;
    ASSERT_EQ(log.agree(0, 5), 5u);  // installs 5, seeds the slot's shadow
    // slots_ is the log's first member and CheckedPlat::Atomic adds no
    // state, so the log's address is slot 0's std::atomic storage.
    static_assert(sizeof(typename CheckedPlat::template Atomic<std::uint64_t>)
                      == sizeof(std::atomic<std::uint64_t>),
                  "poke below assumes the wrapper adds no state");
    auto* rogue = reinterpret_cast<std::atomic<std::uint64_t>*>(&log);
    rogue->store(0xDEADBEEFull, std::memory_order_relaxed);  // bypasses hooks
    (void)log.agree(0, 5);  // replay: the agreement load sees the rogue value
  });
  RoundRobinSchedule sched(1);
  ASSERT_TRUE(sim.run(sched, 1'000'000));
  ASSERT_EQ(count_kind(eng, "shadow"), 1u) << dump(eng);
  EXPECT_NE(eng.findings()[0].message.find("0xdeadbeef"), std::string::npos)
      << dump(eng);
}

// --- 6. Reproducers are deterministic and printed. ---

TEST(Race, DeterministicReproducer) {
  auto once = [] {
    RaceEngine eng;
    eng.install();
    eng.set_mutation(ebr_announce_relaxed());
    CheckedWorkload w = theory_clique(123);
    w.run();
    std::vector<std::string> msgs;
    for (const race::Finding& f : eng.findings()) msgs.push_back(f.message);
    return std::make_pair(msgs, dump(eng));
  };
  const auto a = once();
  const auto b = once();
  ASSERT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first) << "same seed, different findings";
  EXPECT_NE(a.second.find("reproducer: seed=123"), std::string::npos)
      << a.second;
}

// --- 7. The raw atomic reports what it executes. ---
//
// Every operation of race::Atomic reaches the engine with the kind, order
// and value of the operation that ran: a failed CAS carries the observed
// word (and the failure order std::atomic derives), fetch_sub the
// post-subtraction value, exchange the stored value. A relaxed store at a
// seq_cst-contract site is a contract finding.

TEST(Race, CheckedAtomicReportsWhatItExecutes) {
  using race::Op;
  using race::Site;
  RaceEngine eng;
  eng.install();
  Simulator sim(5);
  sim.add_process([&eng] {
    race::Atomic<std::uint32_t> a{7};
    auto expect_last = [&](Op op, std::memory_order o, Site s,
                           std::uint64_t v) {
      const RaceEngine::AtomicEvent e = eng.last_atomic();
      EXPECT_EQ(e.addr, static_cast<const void*>(&a));
      EXPECT_EQ(e.op, op);
      EXPECT_EQ(e.order, o);
      EXPECT_EQ(e.site, s);
      EXPECT_EQ(e.val, v);
    };
    EXPECT_EQ(a.load(std::memory_order_acquire, Site::kWakeSeq), 7u);
    expect_last(Op::kLoad, std::memory_order_acquire, Site::kWakeSeq, 7);
    a.store(9, std::memory_order_release, Site::kWakeSeq);
    expect_last(Op::kStore, std::memory_order_release, Site::kWakeSeq, 9);
    EXPECT_EQ(a.exchange(11, std::memory_order_acq_rel, Site::kAsyncStateCas),
              9u);
    expect_last(Op::kExchange, std::memory_order_acq_rel,
                Site::kAsyncStateCas, 11);
    std::uint32_t expected = 5;
    EXPECT_FALSE(a.compare_exchange_strong(
        expected, 6, std::memory_order_acq_rel, Site::kAsyncStateCas));
    EXPECT_EQ(expected, 11u);
    expect_last(Op::kCasFail, std::memory_order_acquire,
                Site::kAsyncStateCas, 11);
    while (!a.compare_exchange_weak(expected, 12, std::memory_order_acq_rel,
                                    Site::kAsyncStateCas)) {
    }
    expect_last(Op::kCasOk, std::memory_order_acq_rel, Site::kAsyncStateCas,
                12);
    EXPECT_EQ(a.fetch_add(3, std::memory_order_relaxed, Site::kSerialRefill),
              12u);
    expect_last(Op::kFetchAdd, std::memory_order_relaxed, Site::kSerialRefill,
                15);
    EXPECT_EQ(a.fetch_sub(4, std::memory_order_acq_rel, Site::kAsyncRefsDrop),
              15u);
    expect_last(Op::kFetchSub, std::memory_order_acq_rel,
                Site::kAsyncRefsDrop, 11);
    EXPECT_EQ(a.peek(), 11u);
    expect_last(Op::kPeek, std::memory_order_relaxed, Site::kAtomicPeek, 11);
    a.init(2);
    expect_last(Op::kInit, std::memory_order_relaxed, Site::kAtomicInit, 2);
    EXPECT_TRUE(eng.findings().empty()) << dump(eng);

    a.store(1, std::memory_order_relaxed, Site::kEbrAnnounce);
    expect_last(Op::kStore, std::memory_order_relaxed, Site::kEbrAnnounce, 1);
  });
  RoundRobinSchedule sched(1);
  ASSERT_TRUE(sim.run(sched, 1'000'000));
  ASSERT_EQ(count_kind(eng, "contract"), 1u) << dump(eng);
  const std::string& msg = eng.findings()[0].message;
  EXPECT_NE(msg.find("ebr.announce: store ran with relaxed"),
            std::string::npos)
      << msg;
}

}  // namespace
}  // namespace wfl
