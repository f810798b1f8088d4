// Algorithm 1 (active set) and Algorithm 2 (multi active set).
//
// The linearizability-shaped checks exploit the simulator: because all
// fibers share one thread, plain C++ event logs give a total order of
// invocations/responses, against which we verify the containment rules that
// linearizability (active set) and set regularity (multi set) demand.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "wfl/active/active_set.hpp"
#include "wfl/active/multi_set.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"

namespace wfl {
namespace {

// A trivially flaggable item for multi-set tests.
struct Item {
  std::uint64_t id = 0;
  RealPlat::Atomic<int> flagged{0};
  bool flag() { return flagged.load() != 0; }
  void set_flag() { flagged.store(1); }
  void clear_flag() { flagged.store(0); }
};

struct SimItem {
  std::uint64_t id = 0;
  SimPlat::Atomic<int> flagged{0};
  bool flag() { return flagged.load() != 0; }
  void set_flag() { flagged.store(1); }
  void clear_flag() { flagged.store(0); }
};

template <typename T>
struct Harness {
  IndexPool<SetSnap<T*>> pool{4096};
  EbrDomain ebr{8};
  SetMem<T*> mem{pool, ebr};
};

TEST(ActiveSet, InsertGetRemoveSequential) {
  Harness<Item> h;
  ActiveSet<RealPlat, Item*> set(4, h.mem);
  const int pid = h.ebr.register_participant();
  Item a, b;

  EbrDomain::Guard g(h.ebr, pid);
  EXPECT_EQ(set.get_set()->count, 0u);
  const int sa = set.insert(&a, pid);
  EXPECT_TRUE(set.get_set()->contains(&a));
  const int sb = set.insert(&b, pid);
  EXPECT_TRUE(set.get_set()->contains(&a));
  EXPECT_TRUE(set.get_set()->contains(&b));
  EXPECT_EQ(set.get_set()->count, 2u);
  set.remove(sa, pid);
  EXPECT_FALSE(set.get_set()->contains(&a));
  EXPECT_TRUE(set.get_set()->contains(&b));
  set.remove(sb, pid);
  EXPECT_EQ(set.get_set()->count, 0u);
}

TEST(ActiveSet, ReinsertAfterRemoveReusesCapacity) {
  Harness<Item> h;
  ActiveSet<RealPlat, Item*> set(2, h.mem);
  const int pid = h.ebr.register_participant();
  Item a, b;
  EbrDomain::Guard g(h.ebr, pid);
  for (int round = 0; round < 50; ++round) {
    const int sa = set.insert(&a, pid);
    const int sb = set.insert(&b, pid);
    set.remove(sa, pid);
    set.remove(sb, pid);
  }
  EXPECT_EQ(set.get_set()->count, 0u);
}

TEST(ActiveSet, TopSlotDrainsViaSentinel) {
  // Regression for the pseudocode's j == C corner case: removing the item
  // in the *top* slot must actually drain it from the snapshots.
  Harness<Item> h;
  ActiveSet<RealPlat, Item*> set(2, h.mem);
  const int pid = h.ebr.register_participant();
  Item a, b;
  EbrDomain::Guard g(h.ebr, pid);
  const int sa = set.insert(&a, pid);  // slot 0
  const int sb = set.insert(&b, pid);  // slot 1 == top
  EXPECT_EQ(sa, 0);
  EXPECT_EQ(sb, 1);
  set.remove(sb, pid);
  EXPECT_FALSE(set.get_set()->contains(&b));
  set.remove(sa, pid);
  EXPECT_EQ(set.get_set()->count, 0u);
}

TEST(ActiveSet, GetSetIsConstantStepCount) {
  Harness<Item> h;
  ActiveSet<SimPlat, Item*> set_unused(2, h.mem);  // silence template
  (void)set_unused;

  // Count steps of get_set under sim with k resident members: must not grow.
  IndexPool<SetSnap<SimItem*>> pool{4096};
  EbrDomain ebr{4};
  SetMem<SimItem*> mem{pool, ebr};
  std::vector<std::uint64_t> costs;
  for (std::uint32_t k : {1u, 4u, 16u}) {
    ActiveSet<SimPlat, SimItem*> set(16, mem);
    const int pid = ebr.register_participant();
    std::vector<std::unique_ptr<SimItem>> items;
    for (std::uint32_t i = 0; i < k; ++i) {
      items.push_back(std::make_unique<SimItem>());
    }
    Simulator sim(1);
    std::uint64_t cost = 0;
    sim.add_process([&] {
      EbrDomain::Guard g(ebr, pid);
      for (std::uint32_t i = 0; i < k; ++i) set.insert(items[i].get(), pid);
      const std::uint64_t before = SimPlat::steps();
      (void)set.get_set();
      cost = SimPlat::steps() - before;
    });
    RoundRobinSchedule rr(1);
    ASSERT_TRUE(sim.run(rr, 1'000'000));
    costs.push_back(cost);
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);  // O(1) getSet, Theorem 5.2
}

// The exact cost of an uncontended climb: one successful CAS settles a
// level, so a level costs its cur, above and owner loads plus the CAS (the
// top level reads the sentinel, not a slot: one load fewer). An insert
// knows the owner of its own level — the item it just claimed the slot
// for — and skips that load; a remove reads it (DESIGN.md §2.1). A second
// pass per level would double every climb term below.
TEST(ActiveSet, UncontendedInsertRemoveStepCountIsExact) {
  constexpr std::uint32_t kC = 4;
  IndexPool<SetSnap<SimItem*>> pool{4096};
  EbrDomain ebr{4};
  SetMem<SimItem*> mem{pool, ebr};
  ActiveSet<SimPlat, SimItem*> set(kC, mem);
  const int pid = ebr.register_participant();
  std::vector<std::unique_ptr<SimItem>> items;
  for (std::uint32_t i = 0; i < kC; ++i) {
    items.push_back(std::make_unique<SimItem>());
  }
  std::uint64_t ins0 = 0, rem0 = 0, ins_top = 0, rem_top = 0;
  Simulator sim(1);
  sim.add_process([&] {
    EbrDomain::Guard g(ebr, pid);
    auto cost = [](auto&& op) {
      const std::uint64_t before = SimPlat::steps();
      op();
      return SimPlat::steps() - before;
    };
    int slot = -1;
    ins0 = cost([&] { slot = set.insert(items[0].get(), pid); });
    EXPECT_EQ(slot, 0);
    rem0 = cost([&] { set.remove(slot, pid); });
    for (std::uint32_t i = 0; i + 1 < kC; ++i) {
      EXPECT_EQ(set.insert(items[i].get(), pid), static_cast<int>(i));
    }
    ins_top = cost([&] { slot = set.insert(items[kC - 1].get(), pid); });
    EXPECT_EQ(slot, static_cast<int>(kC - 1));
    rem_top = cost([&] { set.remove(slot, pid); });
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 1'000'000));
  // Slot 0: owner load + owner CAS, then its own level: cur, above, CAS.
  EXPECT_EQ(ins0, 2u + 3u);
  // Owner store, then the same level with its owner load.
  EXPECT_EQ(rem0, 1u + 4u);
  // Slot C-1: C-1 occupied owner loads, owner load + CAS, the top level
  // (cur and CAS: the sentinel and the owner are known) and C-1 levels
  // below it (4 steps each).
  EXPECT_EQ(ins_top, (kC - 1) + 2u + 2u + 4u * (kC - 1));
  EXPECT_EQ(rem_top, 1u + 3u + 4u * (kC - 1));
}

TEST(ActiveSetSim, LinearizabilityContainmentUnderInterleaving) {
  // Workers churn insert/remove on a shared set; a monitor getSets. Using
  // the sim's total order we check:
  //  * items whose insert responded before the getSet and whose remove had
  //    not been invoked must appear;
  //  * items whose remove responded before the getSet must not appear;
  //  * items never inserted must not appear.
  const int kWorkers = 3;
  IndexPool<SetSnap<SimItem*>> pool{65536};
  EbrDomain ebr{8};
  SetMem<SimItem*> mem{pool, ebr};
  ActiveSet<SimPlat, SimItem*> set(kWorkers, mem);

  struct State {
    bool insert_responded = false;
    bool remove_invoked = false;
    bool remove_responded = false;
  };
  std::vector<std::unique_ptr<SimItem>> items(
      static_cast<std::size_t>(kWorkers));
  std::vector<State> state(static_cast<std::size_t>(kWorkers));
  for (auto& it : items) it = std::make_unique<SimItem>();

  Simulator sim(77);
  for (int w = 0; w < kWorkers; ++w) {
    sim.add_process([&, w] {
      const int pid = ebr.register_participant();
      for (int round = 0; round < 30; ++round) {
        EbrDomain::Guard g(ebr, pid);
        State& st = state[static_cast<std::size_t>(w)];
        st.remove_invoked = st.remove_responded = false;
        st.insert_responded = false;
        const int slot = set.insert(items[static_cast<std::size_t>(w)].get(),
                                    pid);
        st.insert_responded = true;
        // hold membership for a few steps
        for (int s = 0; s < 5; ++s) SimPlat::step();
        st.remove_invoked = true;
        set.remove(slot, pid);
        st.remove_responded = true;
      }
    });
  }
  int violations = 0;
  sim.add_process([&] {
    const int pid = ebr.register_participant();
    for (int q = 0; q < 200; ++q) {
      EbrDomain::Guard g(ebr, pid);
      const auto* snap = set.get_set();
      // The workers' state at the getSet's load (plain reads are safe: one
      // OS thread). A step yields before its access executes, so state
      // captured before get_set() was called can be stale by the time the
      // load runs: a worker may finish a remove in between. Nothing yields
      // between the load and here.
      const std::vector<State> at_load = state;
      for (int w = 0; w < kWorkers; ++w) {
        const bool present =
            snap->contains(items[static_cast<std::size_t>(w)].get());
        const State& st = at_load[static_cast<std::size_t>(w)];
        if (st.insert_responded && !st.remove_invoked && !present) {
          ++violations;  // must have been visible
        }
        if (st.remove_responded && present) {
          ++violations;  // must have been gone
        }
      }
      SimPlat::step();
    }
  });
  UniformSchedule sched(kWorkers + 1, 555);
  ASSERT_TRUE(sim.run(sched, 50'000'000));
  EXPECT_EQ(violations, 0);
}

TEST(MultiActiveSet, FlagGatesVisibility) {
  Harness<Item> h;
  ActiveSet<RealPlat, Item*> s0(4, h.mem), s1(4, h.mem);
  ActiveSet<RealPlat, Item*>* sets[] = {&s0, &s1};
  const int pid = h.ebr.register_participant();
  Item a;
  a.id = 1;
  int slots[2];

  EbrDomain::Guard g(h.ebr, pid);
  // Manually do the multiInsert steps to observe the intermediate state:
  a.clear_flag();
  slots[0] = s0.insert(&a, pid);
  slots[1] = s1.insert(&a, pid);
  MemberList<Item*> out;
  multi_get_set<RealPlat>(s0, out);
  EXPECT_EQ(out.count, 0u) << "unflagged item visible";
  a.set_flag();
  multi_get_set<RealPlat>(s0, out);
  ASSERT_EQ(out.count, 1u);
  EXPECT_EQ(out.items[0], &a);
  multi_get_set<RealPlat>(s1, out);
  ASSERT_EQ(out.count, 1u);

  multi_remove<RealPlat>(&a, sets, slots, 2, pid);
  multi_get_set<RealPlat>(s0, out);
  EXPECT_EQ(out.count, 0u);
  multi_get_set<RealPlat>(s1, out);
  EXPECT_EQ(out.count, 0u);
}

TEST(MultiActiveSet, MultiInsertHelperApi) {
  Harness<Item> h;
  ActiveSet<RealPlat, Item*> s0(4, h.mem), s1(4, h.mem), s2(4, h.mem);
  ActiveSet<RealPlat, Item*>* sets[] = {&s0, &s1, &s2};
  const int pid = h.ebr.register_participant();
  Item a;
  int slots[3];
  EbrDomain::Guard g(h.ebr, pid);
  multi_insert<RealPlat>(&a, sets, slots, 3, pid);
  EXPECT_TRUE(a.flag());
  MemberList<Item*> out;
  for (auto* s : sets) {
    multi_get_set<RealPlat>(*s, out);
    ASSERT_EQ(out.count, 1u);
  }
  multi_remove<RealPlat>(&a, sets, slots, 3, pid);
  EXPECT_FALSE(a.flag());
}

TEST(MultiActiveSetSim, SetRegularity) {
  // Set regularity (Theorem 5.1): a getSet invoked after a multiInsert's
  // flag-set must see the item; one responding before the multiInsert began
  // must not. Overlapping calls may go either way — not checked.
  IndexPool<SetSnap<SimItem*>> pool{65536};
  EbrDomain ebr{4};
  SetMem<SimItem*> mem{pool, ebr};
  ActiveSet<SimPlat, SimItem*> s0(2, mem), s1(2, mem);
  ActiveSet<SimPlat, SimItem*>* sets[] = {&s0, &s1};

  SimItem a;
  enum Phase { kOut, kInserting, kIn, kRemoving };
  Phase phase = kOut;
  int violations = 0;

  Simulator sim(9);
  sim.add_process([&] {
    const int pid = ebr.register_participant();
    int slots[2];
    for (int r = 0; r < 40; ++r) {
      EbrDomain::Guard g(ebr, pid);
      phase = kInserting;
      multi_insert<SimPlat>(&a, sets, slots, 2, pid);
      phase = kIn;
      for (int s = 0; s < 6; ++s) SimPlat::step();
      phase = kRemoving;
      multi_remove<SimPlat>(&a, sets, slots, 2, pid);
      phase = kOut;
      for (int s = 0; s < 6; ++s) SimPlat::step();
    }
  });
  sim.add_process([&] {
    const int pid = ebr.register_participant();
    MemberList<SimItem*> out;
    for (int q = 0; q < 300; ++q) {
      EbrDomain::Guard g(ebr, pid);
      const Phase pre = phase;
      multi_get_set<SimPlat>(s0, out);
      const Phase post = phase;
      bool present = false;
      for (auto* it : out) present |= (it == &a);
      if (pre == kIn && post == kIn && !present) ++violations;
      if (pre == kOut && post == kOut && present) ++violations;
    }
  });
  UniformSchedule sched(2, 1234);
  ASSERT_TRUE(sim.run(sched, 50'000'000));
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace wfl
