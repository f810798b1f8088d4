// Backend equivalence: the same substrate code, driven through every
// simulator-capable LockBackend with the same seeds, must implement the
// same abstract object.
//
// Three layers of evidence, per backend (wflock, turek, spin2pl — the
// SimBackends registry):
//   1. deterministic single-process scenarios: the exact same op sequence
//      must produce the exact same final state on every backend (bank
//      balances, list keys) — semantics, not just invariants;
//   2. concurrent SimPlat scenarios under a skewed schedule: the global
//      invariants (conservation, set semantics) must hold — interleavings
//      differ across backends, so final states legitimately may too;
//   3. a recorded concurrent history on one shared cell must pass the
//      Wing&Gong linearizability checker for every backend, discharging
//      the "critical sections look atomic" claim uniformly.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "wfl/check/linchk.hpp"
#include "wfl/wfl.hpp"

namespace wfl {
namespace {

BackendConfig sim_cfg(int procs, std::uint32_t max_locks, std::uint32_t steps,
                      int num_locks) {
  BackendConfig bc;
  bc.lock.kappa = static_cast<std::uint32_t>(procs) + 1;
  bc.lock.max_locks = max_locks;
  bc.lock.max_thunk_steps = steps;
  bc.lock.delay_mode = DelayMode::kOff;
  bc.max_procs = procs;
  bc.num_locks = num_locks;
  return bc;
}

// --- 1. deterministic sequential equivalence ------------------------------

template <typename B>
std::vector<std::uint32_t> bank_balances_after_script(std::uint64_t seed) {
  constexpr int kAccounts = 6;
  auto space = B::make_space(sim_cfg(1, 2, 8, kAccounts));
  Bank<B> bank(*space, kAccounts, 100);
  typename B::Session session(*space);
  Xoshiro256 rng(seed);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
    auto b = static_cast<std::uint32_t>(rng.next_below(kAccounts));
    if (b == a) b = (b + 1) % kAccounts;
    const Outcome o =
        bank.transfer(session, a, b,
                      static_cast<std::uint32_t>(rng.next_below(40)),
                      Policy::retry());
    EXPECT_TRUE(o.won);
  }
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < kAccounts; ++i) out.push_back(bank.balance(i));
  return out;
}

TEST(BackendEquiv, SequentialBankScriptIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {7ull, 21ull, 1002ull}) {
    const auto reference =
        bank_balances_after_script<WflBackend<SimPlat>>(seed);
    SimBackends<SimPlat>::for_each([&](auto tag) {
      using B = typename decltype(tag)::type;
      EXPECT_EQ(bank_balances_after_script<B>(seed), reference)
          << "backend " << B::name() << ", seed " << seed;
    });
  }
}

template <typename B>
std::vector<std::uint32_t> list_keys_after_script(std::uint64_t seed) {
  auto space = B::make_space(sim_cfg(1, 2, 8, 128));
  LockedList<B> list(*space, 128);
  typename B::Session session(*space);
  std::set<std::uint32_t> model;
  Xoshiro256 rng(seed);
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(1 + rng.next_below(30));
    if (rng.next_below(2) == 0) {
      EXPECT_EQ(list.insert(session, key), model.insert(key).second);
    } else {
      EXPECT_EQ(list.erase(session, key), model.erase(key) > 0);
    }
  }
  return list.keys();
}

TEST(BackendEquiv, SequentialListScriptIdenticalAcrossBackends) {
  const auto reference = list_keys_after_script<WflBackend<SimPlat>>(5);
  SimBackends<SimPlat>::for_each([&](auto tag) {
    using B = typename decltype(tag)::type;
    EXPECT_EQ(list_keys_after_script<B>(5), reference)
        << "backend " << B::name();
  });
}

// --- 2. concurrent invariants under a skewed schedule ---------------------

template <typename B>
void run_concurrent_bank(std::uint64_t seed) {
  constexpr int kProcs = 4;
  constexpr int kAccounts = 5;
  auto space = B::make_space(sim_cfg(kProcs, 2, 8, kAccounts));
  Bank<B> bank(*space, kAccounts, 500);
  Simulator sim(seed);
  std::vector<typename B::Session> sessions;
  sessions.reserve(kProcs);
  for (int p = 0; p < kProcs; ++p) sessions.emplace_back(*space);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      Xoshiro256 rng(seed * 31 + static_cast<std::uint64_t>(p));
      for (int i = 0; i < 25; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        auto b = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        if (b == a) b = (b + 1) % kAccounts;
        bank.transfer(sessions[static_cast<std::size_t>(p)], a, b, 5,
                      Policy::retry());
      }
    });
  }
  WeightedSchedule sched({1.0, 0.05, 1.0, 0.3}, seed + 19);
  ASSERT_TRUE(sim.run(sched, 4'000'000'000ull)) << B::name();
  EXPECT_EQ(bank.total_balance(), bank.expected_total()) << B::name();
}

TEST(BackendEquiv, ConcurrentBankConservesTotalOnEveryBackend) {
  SimBackends<SimPlat>::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    for (const std::uint64_t seed : {3ull, 11ull}) {
      run_concurrent_bank<B>(seed);
    }
  });
}

template <typename B>
void run_concurrent_list(std::uint64_t seed) {
  constexpr int kProcs = 3;
  auto space = B::make_space(sim_cfg(kProcs, 2, 8, 128));
  LockedList<B> list(*space, 128);
  Simulator sim(seed);
  std::vector<typename B::Session> sessions;
  sessions.reserve(kProcs);
  for (int p = 0; p < kProcs; ++p) sessions.emplace_back(*space);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      for (int k = 0; k < 12; ++k) {
        list.insert(sessions[static_cast<std::size_t>(p)],
                    static_cast<std::uint32_t>(1 + k * kProcs + p));
      }
      for (int k = 0; k < 12; k += 2) {
        list.erase(sessions[static_cast<std::size_t>(p)],
                   static_cast<std::uint32_t>(1 + k * kProcs + p));
      }
    });
  }
  StallBurstSchedule sched(kProcs, seed * 13 + 1, 512);
  ASSERT_TRUE(sim.run(sched, 4'000'000'000ull)) << B::name();
  // Disjoint key ranges: each process's surviving keys are exactly its odd
  // insert indices — checkable per backend even though interleavings (and
  // node indices) differ.
  EXPECT_EQ(list.keys().size(), static_cast<std::size_t>(kProcs) * 6)
      << B::name();
}

TEST(BackendEquiv, ConcurrentListSetSemanticsOnEveryBackend) {
  SimBackends<SimPlat>::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    run_concurrent_list<B>(29);
  });
}

// --- 3. linearizability of the simulated critical sections ----------------

std::uint64_t now_slot() {
  Simulator* sim = Simulator::current();
  return sim != nullptr ? sim->slots_used() : 0;
}

// Concurrent read-modify-write ops on one cell under one lock; the
// recorded (invoke, response, value-read, value-written) history must
// linearize against the register model for every backend.
template <typename B>
void run_linearizability_history(std::uint64_t seed) {
  constexpr int kProcs = 3;
  constexpr int kOpsPerProc = 6;
  auto space = B::make_space(sim_cfg(kProcs, 1, 4, 2));
  auto cell = std::make_unique<Cell<SimPlat>>(0u);
  Cell<SimPlat>* c = cell.get();
  // Per-(proc, op) stable scratch for what the thunk observed/installed:
  // helpers may replay, so agreement makes all runs record one outcome.
  struct Obs {
    std::unique_ptr<Cell<SimPlat>> seen =
        std::make_unique<Cell<SimPlat>>(0u);
  };
  std::vector<std::vector<Obs>> obs(kProcs);
  for (auto& per : obs) per.resize(kOpsPerProc);

  Simulator sim(seed);
  std::vector<typename B::Session> sessions;
  sessions.reserve(kProcs);
  for (int p = 0; p < kProcs; ++p) sessions.emplace_back(*space);
  std::vector<std::vector<LinOp>> history(kProcs);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      const StaticLockSet<1> locks{0};
      for (int i = 0; i < kOpsPerProc; ++i) {
        // Written value encodes (proc, op) uniquely so a linearization
        // order is fully determined by the observed reads.
        const std::uint32_t mine =
            static_cast<std::uint32_t>(1 + p * kOpsPerProc + i);
        Cell<SimPlat>* seen =
            obs[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)]
                .seen.get();
        LinOp op;
        op.proc = p;
        op.invoke = now_slot();
        const Outcome o = B::submit(
            sessions[static_cast<std::size_t>(p)], locks,
            [c, seen, mine](IdemCtx<SimPlat>& m) {
              m.store(*seen, m.load(*c));
              m.store(*c, mine);
            },
            Policy::retry());
        op.response = now_slot();
        ASSERT_TRUE(o.won);
        // One submission = one atomic swap(mine) observing `seen`.
        op.kind = RegisterModel::kCas;  // modeled as unconditional below
        op.arg = seen->peek();          // expected (observed) value
        op.arg2 = mine;                 // installed value
        op.ret = 1;
        history[static_cast<std::size_t>(p)].push_back(op);
      }
    });
  }
  UniformSchedule sched(kProcs, seed);
  ASSERT_TRUE(sim.run(sched, 4'000'000'000ull)) << B::name();

  std::vector<LinOp> hist;
  for (const auto& per : history) {
    hist.insert(hist.end(), per.begin(), per.end());
  }
  ASSERT_EQ(hist.size(),
            static_cast<std::size_t>(kProcs) * kOpsPerProc);
  EXPECT_TRUE(linearizable<RegisterModel>(hist, RegisterModel::initial()))
      << "history not linearizable on backend " << B::name();
}

TEST(BackendEquiv, CriticalSectionsLinearizableOnEveryBackend) {
  SimBackends<SimPlat>::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    run_linearizability_history<B>(41);
  });
}

// --- registry/session plumbing sanity -------------------------------------

TEST(BackendEquiv, OutcomeAccountingMatchesDiscipline) {
  SimBackends<SimPlat>::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    auto space = B::make_space(sim_cfg(1, 2, 4, 4));
    typename B::Session s(*space);
    auto cell = std::make_unique<Cell<SimPlat>>(0u);
    Cell<SimPlat>* c = cell.get();
    const StaticLockSet<2> locks{0, 1};
    const Outcome o = B::submit(
        s, locks, [c](IdemCtx<SimPlat>& m) { m.store(*c, 7u); },
        Policy::retry());
    EXPECT_TRUE(o.won) << B::name();
    EXPECT_EQ(o.attempts, 1u) << B::name();  // uncontended: first try wins
    EXPECT_EQ(cell->peek(), 7u) << B::name();
  });
}

TEST(BackendEquiv, SessionSlotsRecycleAcrossGenerations) {
  SimBackends<SimPlat>::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    auto space = B::make_space(sim_cfg(2, 2, 4, 4));
    // Far more session generations than max_procs: slots must recycle.
    for (int gen = 0; gen < 20; ++gen) {
      typename B::Session a(*space);
      typename B::Session b(*space);
      EXPECT_GE(a.pid(), 0);
      EXPECT_LT(a.pid(), 2);
      EXPECT_NE(a.pid(), b.pid());
    }
  });
}

// The §6.2 unknown-bounds mode of the same backend: the same deterministic
// script must land in the same final state. Its padding spins own steps,
// so its SimPlat instantiation must run inside a simulation for steps to
// advance.
TEST(BackendEquiv, AdaptiveBackendMatchesSequentialBankScript) {
  const std::uint64_t seed = 7;
  const auto reference = bank_balances_after_script<WflBackend<SimPlat>>(seed);

  using B = WflBackend<SimPlat>;
  constexpr int kAccounts = 6;
  BackendConfig cfg = sim_cfg(1, 2, 8, kAccounts);
  cfg.lock.delay_mode = DelayMode::kUnknownBounds;
  auto space = B::make_space(cfg);
  Bank<B> bank(*space, kAccounts, 100);
  Simulator sim(seed);
  typename B::Session session(*space);
  sim.add_process([&] {
    Xoshiro256 rng(seed);
    for (int i = 0; i < 200; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
      auto b = static_cast<std::uint32_t>(rng.next_below(kAccounts));
      if (b == a) b = (b + 1) % kAccounts;
      const Outcome o =
          bank.transfer(session, a, b,
                        static_cast<std::uint32_t>(rng.next_below(40)),
                        Policy::retry());
      EXPECT_TRUE(o.won);
    }
  });
  UniformSchedule sched(1, seed);
  ASSERT_TRUE(sim.run(sched, 4'000'000'000ull));
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
  std::vector<std::uint32_t> balances;
  for (std::uint32_t i = 0; i < kAccounts; ++i) {
    balances.push_back(bank.balance(i));
  }
  EXPECT_EQ(balances, reference);
}

// Contracts suite: death tests, excluded from the TSan CI job by filter.
TEST(Contracts, BackendLockBudgetEnforcedUniformly) {
  // All backends share kMaxLocksPerAttempt-derived budgets and enforce the
  // configured L bound at submit time.
  SimBackends<SimPlat>::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    auto space = B::make_space(sim_cfg(1, 2, 4, 8));
    typename B::Session s(*space);
    const StaticLockSet<3> locks{0, 1, 2};  // exceeds the configured L = 2
    EXPECT_DEATH(
        {
          B::submit(
              s, locks, [](IdemCtx<SimPlat>&) {}, Policy::one_shot());
        },
        "L bound")
        << B::name();
  });
}

TEST(Contracts, BackendLockIdRangeEnforcedUniformly) {
  // Every backend rejects a lock id at or past its space's lock count
  // before it touches a lock word.
  const auto expect_rejected = [](auto tag) {
    using B = typename decltype(tag)::type;
    using Plat = typename B::Platform;
    auto space = B::make_space(sim_cfg(1, 2, 4, 4));
    typename B::Session s(*space);
    const StaticLockSet<2> locks{1, 4};  // 4 is one past the last lock
    EXPECT_DEATH(
        { B::submit(s, locks, [](IdemCtx<Plat>&) {}, Policy::one_shot()); },
        "invariant violated")
        << B::name();
  };
  SimBackends<SimPlat>::for_each(expect_rejected);
  RealBackends::for_each(expect_rejected);
}

}  // namespace
}  // namespace wfl
