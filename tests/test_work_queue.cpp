// Unit, simulator-audit, and stress coverage for the lock-free scheduler
// core (util/work_queue.hpp): the Chase–Lev deque and the MPSC injector.
//
// Four layers:
//   * plain unit tests — owner/thief semantics, capacity growth, and the
//     injector's FIFO + node-recycling (ABA) discipline;
//   * deterministic simulator workloads with fiber yields between queue
//     operations — in the `_checked` twin these run under the global
//     race/ordering engine, so every annotated site in work_queue.hpp is
//     audited against check/ordering_contracts.hpp across seeds (zero
//     findings is enforced by the RaceListener);
//   * a seeded-mutation test, test_race-style: downgrading the steal-top
//     CAS (wq.top_cas, contract kSeqCstOnly) in the engine's model must
//     be flagged with a printed seed reproducer;
//   * real-thread stress sweeps for the TSan job (owner + thieves on a
//     deque, many producers + one consumer on an injector).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "test_plat.hpp"
#include "wfl/check/race.hpp"
#include "wfl/sim/sim.hpp"
#include "wfl/util/work_queue.hpp"

namespace wfl {
namespace {

using test::TestPlat;

struct Item {
  explicit Item(int value) : v(value) {}
  int v;
};

struct Node {
  race::Atomic<Node*> q_next{nullptr};
  int v = 0;
};

// --- Chase–Lev deque: plain unit tests ---

TEST(WorkQueue, EmptySteal) {
  ChaseLevDeque<Item*> q;
  EXPECT_EQ(q.steal(), nullptr);
  EXPECT_EQ(q.take(), nullptr);
  Item a(1);
  q.push(&a);
  EXPECT_EQ(q.take(), &a);
  // The drained deque is empty again for both ends.
  EXPECT_EQ(q.take(), nullptr);
  EXPECT_EQ(q.steal(), nullptr);
}

TEST(WorkQueue, OwnerLifoThiefFifo) {
  ChaseLevDeque<Item*> q;
  std::vector<Item> items;
  items.reserve(4);
  for (int i = 0; i < 4; ++i) items.emplace_back(i);
  for (Item& it : items) q.push(&it);
  // The owner takes the newest (bottom), thieves the oldest (top).
  EXPECT_EQ(q.take()->v, 3);
  EXPECT_EQ(q.steal()->v, 0);
  EXPECT_EQ(q.steal()->v, 1);
  EXPECT_EQ(q.take()->v, 2);
  EXPECT_EQ(q.take(), nullptr);
}

TEST(WorkQueue, CapacityGrowth) {
  ChaseLevDeque<Item*> q(2);
  const int kN = 300;
  std::vector<Item> items;
  items.reserve(kN);
  for (int i = 0; i < kN; ++i) items.emplace_back(i);
  // Interleave pushes with a few steals so the live window straddles
  // ring boundaries while it grows.
  int stolen = 0;
  for (int i = 0; i < kN; ++i) {
    q.push(&items[static_cast<std::size_t>(i)]);
    if (i % 7 == 0) stolen += (q.steal() != nullptr) ? 1 : 0;
  }
  EXPECT_GE(q.grows(), 5u);
  EXPECT_GE(q.capacity(), 256u);
  std::vector<bool> seen(kN, false);
  int taken = 0;
  for (Item* it = q.take(); it != nullptr; it = q.take()) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(it->v)]) << it->v;
    seen[static_cast<std::size_t>(it->v)] = true;
    ++taken;
  }
  // Every element surfaced exactly once across both ends.
  EXPECT_EQ(taken + stolen, kN);
}

// --- MPSC injector: plain unit tests ---

TEST(Injector, FifoWithinBatch) {
  MpscInjector<Node> inj;
  Node n[3];
  for (int i = 0; i < 3; ++i) {
    n[i].v = i;
    inj.push(&n[i]);
  }
  EXPECT_FALSE(inj.empty());
  // One producer's pushes come back in push order (stack reversed).
  EXPECT_EQ(inj.pop()->v, 0);
  EXPECT_EQ(inj.pop()->v, 1);
  EXPECT_EQ(inj.pop()->v, 2);
  EXPECT_EQ(inj.pop(), nullptr);
  EXPECT_TRUE(inj.empty());
}

// The classic Treiber-pop ABA: consumer reads head A and A->next, is
// delayed; A is popped, recycled, and pushed back over a new head; the
// consumer's stale CAS(A -> old next) then corrupts the list. This
// injector's consumer NEVER CASes an observed head — it exchanges the
// whole batch out — so recycling nodes through the stack at any rate
// cannot corrupt it. This test churns a tiny arena of recycled nodes
// through many push/pop rounds and checks nothing is lost, duplicated,
// or cycled.
TEST(Injector, RecycledNodeChurnHasNoAbaWindow) {
  MpscInjector<Node> inj;
  Node arena[4];
  for (int i = 0; i < 4; ++i) arena[i].v = i;
  int counts[4] = {0, 0, 0, 0};
  // Keep a rotating subset inside the stack so pushes repeatedly land a
  // recycled node on top of a head that once WAS that node.
  for (Node* n : {&arena[0], &arena[1]}) inj.push(n);
  std::vector<Node*> out;
  int next_in = 2;
  for (int round = 0; round < 1000; ++round) {
    Node* n = inj.pop();
    ASSERT_NE(n, nullptr) << "stack lost a node at round " << round;
    ++counts[n->v];
    inj.push(&arena[static_cast<std::size_t>(next_in)]);
    next_in = n->v;  // the node we just popped is recycled next round
  }
  // Drain: exactly two distinct nodes remain.
  Node* a = inj.pop();
  Node* b = inj.pop();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(inj.pop(), nullptr);
  int total = 2;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 1002);  // conservation: every push popped exactly once
}

// --- Simulator workloads (audited in the _checked twin) ---

// Owner and one thief race for a single element, yielding to the
// deterministic scheduler between every queue operation. Exactly one
// side must win, on every seed.
TEST(WorkQueueSim, LastElementRaceIsExclusive) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ChaseLevDeque<Item*> q;
    Item only(7);
    Item* got_owner = nullptr;
    Item* got_thief = nullptr;
    Simulator sim(seed);
    sim.add_process([&] {
      q.push(&only);
      TestPlat::step();
      got_owner = q.take();
    });
    sim.add_process([&] {
      TestPlat::step();
      // A lost CAS means the element went somewhere; retry until the
      // deque is settled-empty or we won it.
      for (int tries = 0; tries < 4 && got_thief == nullptr; ++tries) {
        got_thief = q.steal();
        TestPlat::step();
      }
    });
    UniformSchedule sched(2, seed);
    ASSERT_TRUE(sim.run(sched, 1'000'000));
    const int winners =
        (got_owner != nullptr ? 1 : 0) + (got_thief != nullptr ? 1 : 0);
    ASSERT_EQ(winners, 1) << "seed " << seed;
    EXPECT_EQ((got_owner != nullptr ? got_owner : got_thief)->v, 7);
  }
}

// Contended churn: one owner pushing/taking, two thieves stealing, a
// small ring so growth happens mid-run, fiber yields between every
// operation. Conservation: every pushed element is harvested exactly
// once. In the _checked twin this is the clean-tree audit of every
// annotated site in work_queue.hpp.
TEST(WorkQueueSim, ContendedChurnConservesElements) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    constexpr int kN = 48;
    ChaseLevDeque<Item*> q(2);
    std::vector<Item> items;
    items.reserve(kN);
    for (int i = 0; i < kN; ++i) items.emplace_back(i);
    std::vector<int> harvested;
    bool done = false;
    Simulator sim(seed);
    sim.add_process([&] {
      for (int i = 0; i < kN; ++i) {
        q.push(&items[static_cast<std::size_t>(i)]);
        TestPlat::step();
        if (i % 3 == 0) {
          Item* it = q.take();
          if (it != nullptr) harvested.push_back(it->v);
          TestPlat::step();
        }
      }
      for (Item* it = q.take(); it != nullptr; it = q.take()) {
        harvested.push_back(it->v);
        TestPlat::step();
      }
      done = true;
    });
    for (int t = 0; t < 2; ++t) {
      sim.add_process([&] {
        while (!done) {
          Item* it = q.steal();
          if (it != nullptr) harvested.push_back(it->v);
          TestPlat::step();
        }
      });
    }
    UniformSchedule sched(3, seed);
    ASSERT_TRUE(sim.run(sched, 10'000'000)) << "seed " << seed;
    // done was set with the deque empty and thieves exit only after it;
    // late in-flight steals (post-owner-drain) can still land, so drain
    // once more for stragglers the owner missed.
    for (Item* it = q.steal(); it != nullptr; it = q.steal()) {
      harvested.push_back(it->v);
    }
    std::sort(harvested.begin(), harvested.end());
    ASSERT_EQ(harvested.size(), static_cast<std::size_t>(kN))
        << "seed " << seed;
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(harvested[static_cast<std::size_t>(i)], i)
          << "lost or duplicated element, seed " << seed;
    }
  }
}

// MPSC injector under the simulator: several producer fibers, one
// consumer fiber, yields between operations; FIFO per producer and
// conservation overall.
TEST(WorkQueueSim, InjectorMpscConservesAndOrders) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    constexpr int kProducers = 3;
    constexpr int kPer = 16;
    MpscInjector<Node> inj;
    std::vector<Node> nodes(kProducers * kPer);
    int produced = 0;
    std::vector<int> got;
    Simulator sim(seed);
    for (int p = 0; p < kProducers; ++p) {
      sim.add_process([&, p] {
        for (int i = 0; i < kPer; ++i) {
          Node& n = nodes[static_cast<std::size_t>(p * kPer + i)];
          n.v = p * kPer + i;
          inj.push(&n);
          ++produced;
          TestPlat::step();
        }
      });
    }
    sim.add_process([&] {
      while (got.size() < static_cast<std::size_t>(kProducers * kPer)) {
        Node* n = inj.pop();
        if (n != nullptr) got.push_back(n->v);
        TestPlat::step();
      }
    });
    UniformSchedule sched(kProducers + 1, seed);
    ASSERT_TRUE(sim.run(sched, 10'000'000)) << "seed " << seed;
    ASSERT_EQ(produced, kProducers * kPer);
    // FIFO per producer: each producer's values appear in push order.
    for (int p = 0; p < kProducers; ++p) {
      int last = -1;
      for (int v : got) {
        if (v / kPer != p) continue;
        ASSERT_GT(v, last) << "producer " << p << " reordered, seed "
                           << seed;
        last = v;
      }
    }
    std::vector<int> sorted = got;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < kProducers * kPer; ++i) {
      ASSERT_EQ(sorted[static_cast<std::size_t>(i)], i) << "seed " << seed;
    }
  }
}

// --- Seeded mutation: the audit must catch a weakened steal CAS ---
//
// Only in the plain build: the _checked twin owns the global engine and
// a second install is not supported (test_race runs the same pattern as
// its own binary for the lock-engine sites).
#if !defined(WFL_TEST_CHECKED_PLAT)

std::size_t count_kind(const race::RaceEngine& eng, const char* kind) {
  std::size_t n = 0;
  for (const race::Finding& f : eng.findings()) {
    if (std::string(f.kind) == kind) ++n;
  }
  return n;
}

TEST(WorkQueueMutation, StealTopCasDowngradeCaught) {
  race::RaceEngine eng;
  eng.install();
  eng.set_mutation({race::RaceEngine::Mutation::Kind::kDowngradeOrder,
                    race::Site::kWqTopCas, std::memory_order_relaxed});
  Simulator sim(5);
  sim.add_process([] {
    ChaseLevDeque<Item*> q;
    Item a(1);
    Item b(2);
    Item c(3);
    q.push(&a);
    q.push(&b);
    q.push(&c);
    TestPlat::step();
    EXPECT_NE(q.steal(), nullptr);  // the top CAS the mutation weakens
    EXPECT_NE(q.take(), nullptr);
    EXPECT_NE(q.take(), nullptr);  // last element: take's top CAS too
  });
  RoundRobinSchedule sched(1);
  ASSERT_TRUE(sim.run(sched, 1'000'000));
  ASSERT_GE(count_kind(eng, "contract"), 1u);
  bool named = false;
  for (const race::Finding& f : eng.findings()) {
    if (f.message.find("wq.top_cas") != std::string::npos &&
        f.message.find("seed=5") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << "finding must name the site and the seed";
}

#endif  // !WFL_TEST_CHECKED_PLAT

// --- Real-thread stress (the TSan job's target) ---
//
// In the _checked twin these threads are "foreign" to the engine and
// only poison locations (no findings) — cross-thread interleavings are
// TSan's job, which is exactly what this sweep feeds.

TEST(WorkQueueStress, OwnerAndThievesTsanSweep) {
  constexpr int kThieves = 3;
  constexpr int kN = 20000;
  ChaseLevDeque<Item*> q(8);
  std::vector<Item> items;
  items.reserve(kN);
  for (int i = 0; i < kN; ++i) items.emplace_back(i);
  std::atomic<std::uint64_t> harvested_sum{0};
  std::atomic<int> harvested_n{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        Item* it = q.steal();
        if (it != nullptr) {
          harvested_sum.fetch_add(static_cast<std::uint64_t>(it->v),
                                  std::memory_order_relaxed);
          harvested_n.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::uint64_t own_sum = 0;
  int own_n = 0;
  for (int i = 0; i < kN; ++i) {
    q.push(&items[static_cast<std::size_t>(i)]);
    if ((i & 3) == 0) {
      Item* it = q.take();
      if (it != nullptr) {
        own_sum += static_cast<std::uint64_t>(it->v);
        ++own_n;
      }
    }
  }
  for (Item* it = q.take(); it != nullptr; it = q.take()) {
    own_sum += static_cast<std::uint64_t>(it->v);
    ++own_n;
  }
  // The deque looked empty to the owner; straggler thieves may still
  // hold just-stolen items — join first, then reconcile.
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();
  for (Item* it = q.steal(); it != nullptr; it = q.steal()) {
    own_sum += static_cast<std::uint64_t>(it->v);
    ++own_n;
  }
  EXPECT_EQ(own_n + harvested_n.load(), kN);
  EXPECT_EQ(own_sum + harvested_sum.load(),
            static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

// drain_all unit semantics: any thread may exchange the shared chain
// out; the owner's private FIFO cache is untouched, so items the owner
// already batched keep coming back in order while the drained chain
// (newest-first) belongs to the drainer.
TEST(Injector, DrainAllTakesSharedChainNotOwnerCache) {
  MpscInjector<Node> inj;
  Node n[4];
  for (int i = 0; i < 4; ++i) n[i].v = i;
  inj.push(&n[0]);
  inj.push(&n[1]);
  ASSERT_EQ(inj.pop()->v, 0);  // reverses {0,1} into the owner cache
  inj.push(&n[2]);
  inj.push(&n[3]);
  // Foreign drain takes ONLY the shared stack: {3 -> 2}, newest first.
  Node* chain = inj.drain_all();
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->v, 3);
  Node* second = chain->q_next.peek();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->v, 2);
  EXPECT_EQ(second->q_next.peek(), nullptr);
  // The owner still holds its cached batch, in FIFO order.
  EXPECT_EQ(inj.pop()->v, 1);
  EXPECT_EQ(inj.pop(), nullptr);
  EXPECT_TRUE(inj.empty());
  EXPECT_EQ(inj.drain_all(), nullptr);
}

// Producers vs. a popping owner vs. a foreign drainer: rival exchanges
// must get disjoint chains and conservation must hold. TSan sweeps the
// cross-thread interleavings.
TEST(WorkQueueStress, InjectorForeignDrainTsanSweep) {
  constexpr int kProducers = 3;
  constexpr int kPer = 10000;
  MpscInjector<Node> inj;
  std::vector<Node> nodes(kProducers * kPer);
  std::atomic<int> got{0};
  std::vector<bool> owner_seen(kProducers * kPer, false);
  std::vector<bool> thief_seen(kProducers * kPer, false);
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPer; ++i) {
        Node& n = nodes[static_cast<std::size_t>(p * kPer + i)];
        n.v = p * kPer + i;
        inj.push(&n);
      }
    });
  }
  std::thread thief([&] {
    while (!done.load(std::memory_order_acquire)) {
      Node* chain = inj.drain_all();
      while (chain != nullptr) {
        Node* next = chain->q_next.load(std::memory_order_relaxed,
                                        race::Site::kInjNext);
        ASSERT_FALSE(thief_seen[static_cast<std::size_t>(chain->v)]);
        thief_seen[static_cast<std::size_t>(chain->v)] = true;
        got.fetch_add(1, std::memory_order_relaxed);
        chain = next;
      }
      std::this_thread::yield();
    }
  });
  while (got.load(std::memory_order_relaxed) < kProducers * kPer) {
    Node* n = inj.pop();
    if (n == nullptr) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_FALSE(owner_seen[static_cast<std::size_t>(n->v)]) << n->v;
    owner_seen[static_cast<std::size_t>(n->v)] = true;
    got.fetch_add(1, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  thief.join();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(inj.pop(), nullptr);
  // Disjointness: nothing surfaced on both sides; conservation: all did.
  int total = 0;
  for (int i = 0; i < kProducers * kPer; ++i) {
    const bool o = owner_seen[static_cast<std::size_t>(i)];
    const bool t = thief_seen[static_cast<std::size_t>(i)];
    ASSERT_FALSE(o && t) << "node " << i << " surfaced twice";
    ASSERT_TRUE(o || t) << "node " << i << " lost";
    ++total;
  }
  EXPECT_EQ(total, kProducers * kPer);
}

TEST(WorkQueueStress, InjectorMpscTsanSweep) {
  constexpr int kProducers = 4;
  constexpr int kPer = 10000;
  MpscInjector<Node> inj;
  std::vector<Node> nodes(kProducers * kPer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPer; ++i) {
        Node& n = nodes[static_cast<std::size_t>(p * kPer + i)];
        n.v = p * kPer + i;
        inj.push(&n);
      }
    });
  }
  std::vector<bool> seen(kProducers * kPer, false);
  int got = 0;
  while (got < kProducers * kPer) {
    Node* n = inj.pop();
    if (n == nullptr) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_FALSE(seen[static_cast<std::size_t>(n->v)]) << n->v;
    seen[static_cast<std::size_t>(n->v)] = true;
    ++got;
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(inj.pop(), nullptr);
}

}  // namespace
}  // namespace wfl
