// AsyncExecutor (core/async_executor.hpp): parked submission on a worker
// pool.
//
// Covers the subsystem's four load-bearing claims:
//   * equivalence — an uncontended inline async_submit is step-identical
//     to submit() under the simulator, and contended runs are
//     deterministic and conserve critical sections;
//   * park/wake — contended RealPlat runs complete every submission with
//     ZERO backoff spin steps (parking replaces idling), events are never
//     lost (no wedged waiters), idle workers never sleep through a
//     wake (open-loop bursts with thieves, under a watchdog), and an
//     external burst is spread over more than one worker;
//   * cancellation — a crashed client's pending ops complete as
//     cancelled; other clients' waiters on the same locks are untouched;
//   * plain calls — worker cycles run on the worker's own stack, with no
//     fiber around them.
//
// The guard-drop rule (no EBR guard held across a park point) is
// enforced by a WFL_CHECK on every cycle of every test here — a
// violation aborts the run rather than failing an EXPECT.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

#include "test_plat.hpp"

namespace wfl {

using test::TestPlat;
namespace {

LockConfig off_cfg() {
  LockConfig cfg;
  cfg.kappa = 4;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// --- equivalence (TestPlat, inline mode) ------------------------------------

// One process, no contention: run the same single submission through
// submit() and through async_submit()+wait() in two identically-seeded
// simulations. Inline mode runs the cycle on the driving fiber under the
// client's own session, and the executor's plumbing takes no model steps,
// so the Outcomes must match field for field.
Outcome run_uncontended_sim(bool use_async) {
  const LockConfig cfg = off_cfg();
  LockTable<TestPlat> space(cfg, 2, 4);
  AsyncExecutor<TestPlat> exec(space, {.workers = 0});
  Cell<TestPlat> cell{0};
  Outcome out;

  Simulator sim(7);
  sim.add_process([&] {
    Session<TestPlat> s(space);
    StaticLockSet<2> locks({1, 2}, cfg);
    auto thunk = [&cell](IdemCtx<TestPlat>& m) {
      m.store(cell, m.load(cell) + 1);
    };
    if (use_async) {
      AsyncClient<TestPlat> client(s);
      auto t = exec.async_submit(client, locks, thunk, Policy::retry());
      out = t.wait();
    } else {
      out = submit(s, locks, thunk, Policy::retry());
    }
  });
  RoundRobinSchedule rr(1);
  EXPECT_TRUE(sim.run(rr, 1'000'000));
  EXPECT_EQ(cell.peek(), 1u);
  EXPECT_EQ(exec.in_flight(), 0u);
  return out;
}

TEST(Async, InlineUncontendedIsStepIdenticalToSubmit) {
  const Outcome sync = run_uncontended_sim(false);
  const Outcome async = run_uncontended_sim(true);
  EXPECT_TRUE(sync.won);
  EXPECT_TRUE(async.won);
  EXPECT_EQ(sync.attempts, async.attempts);
  EXPECT_EQ(sync.total_steps, async.total_steps);
  EXPECT_EQ(sync.pre_reveal_work, async.pre_reveal_work);
  EXPECT_EQ(sync.post_reveal_work, async.post_reveal_work);
  EXPECT_EQ(async.backoff_steps, 0u);
}

// --- determinism + conservation (TestPlat, inline, contended) ---------------

struct SimRunTotals {
  std::uint64_t wins = 0;
  std::uint64_t attempts = 0;
  std::uint64_t steps = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t signals = 0;

  bool operator==(const SimRunTotals&) const = default;
};

// Four sim processes pipeline async submissions over two hot locks; every
// ticket is awaited inside the simulation. Critical sections must conserve
// (counter == wins == ops) and the whole run — including the executor's
// park/wake/signal traffic — must be a pure function of the seed.
SimRunTotals run_contended_sim(std::uint64_t seed) {
  const LockConfig cfg = off_cfg();
  LockTable<TestPlat> space(cfg, 8, 4);
  AsyncExecutor<TestPlat> exec(space, {.workers = 0});
  Cell<TestPlat> counter{0};

  constexpr int kProcs = 4;
  constexpr int kRounds = 4;
  constexpr int kPipeline = 3;  // tickets in flight per process per round

  SimRunTotals totals;
  Simulator sim(seed);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      Session<TestPlat> s(space);
      AsyncClient<TestPlat> client(s);
      StaticLockSet<2> both({0, 1}, cfg);
      StaticLockSet<1> one({0}, cfg);
      auto thunk = [&counter](IdemCtx<TestPlat>& m) {
        m.store(counter, m.load(counter) + 1);
      };
      for (int r = 0; r < kRounds; ++r) {
        AsyncExecutor<TestPlat>::Ticket tickets[kPipeline];
        for (int i = 0; i < kPipeline; ++i) {
          const LockSetView view =
              (p + r + i) % 2 == 0 ? LockSetView(both) : LockSetView(one);
          tickets[i] = exec.async_submit(client, view, thunk,
                                         Policy::retry());
        }
        for (int i = 0; i < kPipeline; ++i) {
          const Outcome& o = tickets[i].wait();
          EXPECT_TRUE(o.won);
          EXPECT_EQ(o.backoff_steps, 0u);
          totals.wins += o.won ? 1 : 0;
          totals.attempts += o.attempts;
          totals.steps += o.total_steps;
        }
      }
    });
  }
  RoundRobinSchedule rr(kProcs);
  EXPECT_TRUE(sim.run(rr, 50'000'000));

  constexpr std::uint64_t kOps = std::uint64_t{kProcs} * kRounds * kPipeline;
  EXPECT_EQ(totals.wins, kOps);
  EXPECT_EQ(counter.peek(), kOps) << "lost or duplicated critical sections";
  EXPECT_EQ(exec.in_flight(), 0u);
  EXPECT_EQ(exec.completed(), kOps);
  totals.parks = exec.parks();
  totals.wakes = exec.wakes();
  totals.signals = exec.signals();
  return totals;
}

TEST(Async, InlineContendedConservesAndIsDeterministic) {
  const SimRunTotals a = run_contended_sim(42);
  const SimRunTotals b = run_contended_sim(42);
  EXPECT_TRUE(a == b) << "same seed must reproduce the run bit-for-bit";
}

// --- park/wake under real contention (RealPlat, worker pool) ---------------

TEST(Async, WorkerPoolContendedCompletesWithZeroBackoffSpin) {
  const LockConfig cfg = off_cfg();
  LockTable<RealPlat> space(cfg, 8, 4);
  AsyncExecutor<RealPlat> exec(space, {.workers = 2});
  Session<RealPlat> s(space);
  AsyncClient<RealPlat> client(s);
  Cell<RealPlat> counter{0};

  // Far more in-flight submissions than workers (or cores): every op
  // fights over lock 0, so losers park and release events chain the
  // wakes. Each outcome must report zero backoff spin — parking IS the
  // backoff.
  constexpr int kOps = 500;
  StaticLockSet<1> locks({0}, cfg);
  std::vector<AsyncExecutor<RealPlat>::Ticket> tickets;
  tickets.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    tickets.push_back(exec.async_submit(
        client, locks,
        [&counter](IdemCtx<RealPlat>& m) {
          m.store(counter, m.load(counter) + 1);
        },
        Policy::retry()));
  }
  std::uint64_t wins = 0;
  for (auto& t : tickets) {
    const Outcome& o = t.wait();
    EXPECT_TRUE(o.won);
    EXPECT_EQ(o.backoff_steps, 0u);
    wins += o.won ? 1 : 0;
  }
  EXPECT_EQ(wins, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(counter.peek(), static_cast<std::uint32_t>(kOps));
  EXPECT_EQ(exec.in_flight(), 0u);
  EXPECT_EQ(exec.completed(), static_cast<std::uint64_t>(kOps));
}

// Open-loop bursts from one external thread onto a 3-worker pool. Between
// bursts the workers go idle and park; each burst lands on the shared
// injector, and whichever workers are awake take it whole, spill it onto
// their deques and steal from each other. park() must take its futex
// ticket before it publishes kWkIdle: taken after, a post landing in
// between is absorbed into the ticket, another worker takes the
// injector's chain, and the worker sleeps on a consumed post with its
// state stuck at kWkSignalled — dispatch then reads it as awake and skips
// every later wake. A 1-s no-progress watchdog turns that wedge into a
// failure instead of a hang.
TEST(Async, OpenLoopBurstsWithThievesNeverWedge) {
  using Exec = AsyncExecutor<RealPlat>;
  using Clock = std::chrono::steady_clock;
  const LockConfig cfg = off_cfg();
  // Heap-held so a wedged run can leak them: a stuck worker would hang the
  // executor's shutdown, and the test must fail, not hang.
  auto space = std::make_unique<LockTable<RealPlat>>(cfg, 8, 4);
  auto exec = std::make_unique<Exec>(*space, Exec::Options{.workers = 3});
  auto session = std::make_unique<Session<RealPlat>>(*space);
  auto client = std::make_unique<AsyncClient<RealPlat>>(*session);

  // Short gaps between small bursts: every burst finds some workers just
  // parking and others still stealing, which is the window of the race.
  constexpr int kBursts = 50000;
  constexpr int kBurstOps = 2;  // op i of a burst takes lock i
  constexpr auto kGap = std::chrono::microseconds(10);
  constexpr auto kWatchdog = std::chrono::seconds(1);
  // One counter per lock: ops on different locks run concurrently.
  auto counters = std::make_unique<std::array<Cell<RealPlat>, kBurstOps>>();

  std::vector<Exec::Ticket> pending;
  std::uint64_t wins = 0;
  Clock::time_point last_progress = Clock::now();
  // Reaps completed tickets; false once nothing completed for kWatchdog
  // while ops were pending.
  auto reap = [&] {
    const auto now = Clock::now();
    const auto done = std::partition(
        pending.begin(), pending.end(),
        [](const Exec::Ticket& t) { return !t.done(); });
    if (done != pending.end()) last_progress = now;
    for (auto it = done; it != pending.end(); ++it) {
      wins += it->poll()->won ? 1 : 0;
    }
    pending.erase(done, pending.end());
    return pending.empty() || now - last_progress < kWatchdog;
  };

  bool wedged = false;
  for (int b = 0; b < kBursts && !wedged; ++b) {
    if (pending.empty()) last_progress = Clock::now();
    for (int i = 0; i < kBurstOps; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      Cell<RealPlat>* cnt = &(*counters)[id];
      pending.push_back(exec->async_submit(
          *client, StaticLockSet<1>({id}),
          [cnt](IdemCtx<RealPlat>& m) { m.store(*cnt, m.load(*cnt) + 1); },
          Policy::retry()));
    }
    const auto next = Clock::now() + kGap;
    while (!wedged && Clock::now() < next) {
      wedged = !reap();
      std::this_thread::yield();
    }
  }
  while (!wedged && !pending.empty()) {
    wedged = !reap();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (wedged) {
    ADD_FAILURE() << pending.size() << " submissions made no progress for "
                  << "1 s: a parked worker slept through its wake";
    // Leak everything the stuck worker can still reach.
    (void)counters.release();
    (void)client.release();
    (void)session.release();
    (void)exec.release();
    (void)space.release();
    return;
  }
  constexpr std::uint64_t kOps = std::uint64_t{kBursts} * kBurstOps;
  EXPECT_EQ(wins, kOps);
  std::uint64_t counted = 0;
  for (const auto& c : *counters) counted += c.peek();
  EXPECT_EQ(counted, kOps);
  EXPECT_EQ(exec->in_flight(), 0u);
}

// Work conservation. External dispatch wakes a worker only when every
// worker is idle, so a burst from one thread wakes one worker and the
// rest of the burst coalesces behind it. That worker takes the chain,
// spills it onto its deque and must wake an idle sibling to steal from
// it; without that wake the whole burst runs on one thread. Each thunk
// busy-waits so that one thread cannot drain the burst before a woken
// sibling gets scheduled.
TEST(Async, ExternalBurstRunsOnMoreThanOneWorker) {
  const LockConfig cfg = off_cfg();
  LockTable<RealPlat> space(cfg, 4, 16);
  AsyncExecutor<RealPlat> exec(space, {.workers = 3});
  Session<RealPlat> s(space);
  AsyncClient<RealPlat> client(s);
  // Let all three workers park before the burst arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kOps = 16;  // op i takes lock i
  std::array<std::size_t, kOps> ran_on{};
  std::vector<AsyncExecutor<RealPlat>::Ticket> tickets;
  for (int i = 0; i < kOps; ++i) {
    std::size_t* slot = &ran_on[static_cast<std::size_t>(i)];
    tickets.push_back(exec.async_submit(
        client, StaticLockSet<1>({static_cast<std::uint32_t>(i)}),
        [slot](IdemCtx<RealPlat>&) {
          *slot = std::hash<std::thread::id>{}(std::this_thread::get_id());
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
          while (std::chrono::steady_clock::now() < until) {
          }
        },
        Policy::retry()));
  }
  for (auto& t : tickets) EXPECT_TRUE(t.wait().won);
  std::sort(ran_on.begin(), ran_on.end());
  const auto threads =
      std::unique(ran_on.begin(), ran_on.end()) - ran_on.begin();
  EXPECT_GE(threads, 2) << "a burst on distinct locks ran on one worker";
}

// --- cancellation ----------------------------------------------------------

TEST(Async, CancelledClientOpCompletesAsCancelled) {
  const LockConfig cfg = off_cfg();
  LockTable<RealPlat> space(cfg, 4, 4);
  AsyncExecutor<RealPlat> exec(space, {.workers = 0});
  Session<RealPlat> s(space);
  AsyncClient<RealPlat> client(s);
  Cell<RealPlat> cell{0};

  StaticLockSet<1> locks({0}, cfg);
  auto t = exec.async_submit(
      client, locks,
      [&cell](IdemCtx<RealPlat>& m) { m.store(cell, 1); },
      Policy::retry());
  // Crash before any cycle runs: the op must complete without running
  // its thunk, reported as a loss.
  exec.cancel_client(client);
  exec.run_ready();
  const Outcome* o = t.poll();
  ASSERT_NE(o, nullptr);
  EXPECT_FALSE(o->won);
  EXPECT_EQ(cell.peek(), 0u);
  EXPECT_EQ(exec.in_flight(), 0u);
}

TEST(Async, CrashedClientDoesNotWedgeOtherWaiters) {
  const LockConfig cfg = off_cfg();
  LockTable<RealPlat> space(cfg, 8, 4);
  AsyncExecutor<RealPlat> exec(space, {.workers = 2});
  Session<RealPlat> sa(space);
  Session<RealPlat> sb(space);
  AsyncClient<RealPlat> a(sa);
  AsyncClient<RealPlat> b(sb);
  Cell<RealPlat> counter{0};

  // Both clients pile onto one lock; A is crashed mid-stream. Every one
  // of B's submissions must still win (parked B ops keep getting woken —
  // cancellation neither consumes release events nor corrupts the wait
  // lists), and every A ticket must complete rather than wedge.
  constexpr int kOps = 200;
  StaticLockSet<1> locks({0}, cfg);
  auto thunk = [&counter](IdemCtx<RealPlat>& m) {
    m.store(counter, m.load(counter) + 1);
  };
  std::vector<AsyncExecutor<RealPlat>::Ticket> ta;
  std::vector<AsyncExecutor<RealPlat>::Ticket> tb;
  for (int i = 0; i < kOps; ++i) {
    ta.push_back(exec.async_submit(a, locks, thunk, Policy::retry()));
    tb.push_back(exec.async_submit(b, locks, thunk, Policy::retry()));
  }
  exec.cancel_client(a);

  std::uint64_t b_wins = 0;
  for (auto& t : tb) b_wins += t.wait().won ? 1 : 0;
  EXPECT_EQ(b_wins, static_cast<std::uint64_t>(kOps));

  std::uint64_t a_wins = 0;
  for (auto& t : ta) {
    const Outcome& o = t.wait();  // completes: won or cancelled, never hangs
    a_wins += o.won ? 1 : 0;
  }
  // Exactly the won thunks ran, from both clients.
  EXPECT_EQ(counter.peek(), static_cast<std::uint32_t>(kOps) +
                                static_cast<std::uint32_t>(a_wins));
  EXPECT_EQ(exec.in_flight(), 0u);
}

// --- shutdown --------------------------------------------------------------

TEST(Async, ShutdownWithInFlightOpsDrainsAndJoins) {
  const LockConfig cfg = off_cfg();
  LockTable<RealPlat> space(cfg, 8, 4);
  Session<RealPlat> s(space);
  Cell<RealPlat> counter{0};

  // Pile contended submissions up, wait for only ONE, and destroy the
  // executor: most ops are still queued or parked when shutdown starts.
  // Workers must stay alive until shutdown's sweep has pushed every
  // remaining op through a final (cancelling) cycle — a worker that
  // exits on "queues momentarily empty" while in_flight > 0 strands the
  // swept ops and wedges the drain loop forever (regression: the
  // destructor used to hang here).
  constexpr int kOps = 300;
  {
    AsyncExecutor<RealPlat> exec(space, {.workers = 2});
    AsyncClient<RealPlat> client(s);
    StaticLockSet<1> locks({0}, cfg);
    std::vector<AsyncExecutor<RealPlat>::Ticket> tickets;
    tickets.reserve(kOps);
    for (int i = 0; i < kOps; ++i) {
      tickets.push_back(exec.async_submit(
          client, locks,
          [&counter](IdemCtx<RealPlat>& m) {
            m.store(counter, m.load(counter) + 1);
          },
          Policy::retry()));
    }
    EXPECT_TRUE(tickets.front().wait().won);
    // Tickets (declared after exec) are destroyed first, then ~exec
    // drains the remaining in-flight ops and joins the pool.
  }
  // Every thunk that won ran exactly once; cancelled ones not at all.
  EXPECT_GE(counter.peek(), 1u);
  EXPECT_LE(counter.peek(), static_cast<std::uint32_t>(kOps));
}

// --- worker stacks -----------------------------------------------------------

TEST(Async, WorkerCyclesRunOnTheWorkersOwnStack) {
  const LockConfig cfg = off_cfg();
  LockTable<RealPlat> space(cfg, 4, 4);
  AsyncExecutor<RealPlat> exec(space, {.workers = 2});
  Session<RealPlat> s(space);
  AsyncClient<RealPlat> client(s);
  Cell<RealPlat> cell{0};

  // A cycle is a bounded attempt, so a worker runs it as a plain call:
  // the thunk sees no fiber around it and runs on a worker thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> runs{0};
  std::atomic<int> on_fiber{0};
  std::atomic<int> on_caller{0};
  StaticLockSet<1> locks({2}, cfg);
  constexpr int kOps = 50;
  for (int i = 0; i < kOps; ++i) {
    auto t = exec.async_submit(
        client, locks,
        [&](IdemCtx<RealPlat>& m) {
          runs.fetch_add(1);
          if (Fiber::current() != nullptr) on_fiber.fetch_add(1);
          if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
          m.store(cell, m.load(cell) + 1);
        },
        Policy::retry());
    EXPECT_TRUE(t.wait().won);
  }
  EXPECT_EQ(cell.peek(), static_cast<std::uint32_t>(kOps));
  EXPECT_GE(runs.load(), kOps);
  EXPECT_EQ(on_fiber.load(), 0);
  EXPECT_EQ(on_caller.load(), 0);
}

}  // namespace
}  // namespace wfl
