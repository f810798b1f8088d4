// LockedGraph: topology generators, the neighbourhood-locking apply
// operation, and the greedy-colouring / averaging updates — including the
// paper's headline use case: concurrent local updates on a graph yield a
// proper colouring because adjacent applies are serialized by their
// shared locks.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig graph_cfg(int procs, std::uint32_t max_deg) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs) + 1;
  cfg.max_locks = max_deg + 1;
  cfg.max_thunk_steps = LockedGraph<RealPlat>::thunk_step_budget(max_deg);
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(GraphTopology, RingIsSymmetricDegreeTwo) {
  const auto adj = LockedGraph<RealPlat>::ring(12);
  ASSERT_EQ(adj.size(), 12u);
  for (std::uint32_t v = 0; v < 12; ++v) {
    EXPECT_EQ(adj[v].size(), 2u);
    for (std::uint32_t u : adj[v]) {
      EXPECT_NE(u, v);
      EXPECT_NE(std::find(adj[u].begin(), adj[u].end(), v), adj[u].end());
    }
  }
}

TEST(GraphTopology, TorusIsSymmetricDegreeFour) {
  const auto adj = LockedGraph<RealPlat>::torus(4, 5);
  ASSERT_EQ(adj.size(), 20u);
  for (std::uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(adj[v].size(), 4u);
    for (std::uint32_t u : adj[v]) {
      EXPECT_NE(std::find(adj[u].begin(), adj[u].end(), v), adj[u].end());
    }
  }
}

TEST(GraphTopology, RandomRegularRespectsDegreeCapAndSymmetry) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto adj = LockedGraph<RealPlat>::random_regular(40, 4, seed);
    for (std::uint32_t v = 0; v < 40; ++v) {
      EXPECT_LE(adj[v].size() + 1, kMaxLocksPerAttempt);
      for (std::uint32_t u : adj[v]) {
        EXPECT_NE(u, v);
        EXPECT_NE(std::find(adj[u].begin(), adj[u].end(), v), adj[u].end());
        // No duplicate edges.
        EXPECT_EQ(std::count(adj[v].begin(), adj[v].end(), u), 1);
      }
    }
  }
}

TEST(Graph, SequentialColouringIsProper) {
  LockTable<RealPlat> space(graph_cfg(1, 2), 1, 12);
  LockedGraph<RealPlat> g(space, LockedGraph<RealPlat>::ring(12));
  BasicSession proc(space);
  for (std::uint32_t v = 0; v < 12; ++v) g.colour_vertex(proc, v);
  EXPECT_TRUE(g.properly_coloured());
  // A ring needs at most 3 colours under greedy.
  for (std::uint32_t v = 0; v < 12; ++v) EXPECT_LE(g.value(v), 3u);
}

TEST(Graph, ApplyRunsExactlyOncePerWin) {
  LockTable<RealPlat> space(graph_cfg(1, 2), 1, 8);
  LockedGraph<RealPlat> g(space, LockedGraph<RealPlat>::ring(8));
  BasicSession proc(space);
  for (int round = 0; round < 10; ++round) {
    g.apply(proc, 3, [](IdemCtx<RealPlat>& m, LockedGraph<RealPlat>::View nb) {
      m.store(*nb.centre, m.load(*nb.centre) + 1);
    });
  }
  EXPECT_EQ(g.value(3), 10u);
}

TEST(Graph, ConcurrentColouringOnRingIsProper) {
  const int threads = 4;
  const std::uint32_t n = 32;
  LockTable<RealPlat> space(graph_cfg(threads, 2), threads,
                            static_cast<int>(n));
  LockedGraph<RealPlat> g(space, LockedGraph<RealPlat>::ring(n));
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(17 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      // Interleaved vertex ownership maximizes boundary conflicts.
      for (std::uint32_t v = static_cast<std::uint32_t>(t); v < n;
           v += static_cast<std::uint32_t>(threads)) {
        g.colour_vertex(proc, v);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_TRUE(g.properly_coloured());
}

TEST(Graph, ConcurrentColouringOnTorusIsProper) {
  const int threads = 4;
  LockTable<RealPlat> space(graph_cfg(threads, 4), threads, 36);
  LockedGraph<RealPlat> g(space, LockedGraph<RealPlat>::torus(6, 6));
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(29 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      for (std::uint32_t v = static_cast<std::uint32_t>(t); v < 36;
           v += static_cast<std::uint32_t>(threads)) {
        g.colour_vertex(proc, v);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_TRUE(g.properly_coloured());
}

TEST(Graph, AveragingConvergesTowardsConsensus) {
  LockTable<RealPlat> space(graph_cfg(1, 2), 1, 10);
  LockedGraph<RealPlat> g(space, LockedGraph<RealPlat>::ring(10));
  BasicSession proc(space);
  for (std::uint32_t v = 0; v < 10; ++v) g.set_value(v, v * 100);
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t v = 0; v < 10; ++v) g.average_vertex(proc, v);
  }
  std::uint32_t lo = 0xFFFFFFFFu, hi = 0;
  for (std::uint32_t v = 0; v < 10; ++v) {
    lo = std::min(lo, g.value(v));
    hi = std::max(hi, g.value(v));
  }
  // Integer averaging contracts the range; after 50 sweeps on a 10-ring
  // the spread must have collapsed to a narrow band.
  EXPECT_LE(hi - lo, 5u);
}

TEST(GraphSim, ConcurrentColouringUnderAdversarialSchedule) {
  const int procs = 4;
  const std::uint32_t n = 16;
  LockConfig cfg = graph_cfg(procs, 2);
  LockTable<SimPlat> space(cfg, procs, static_cast<int>(n));
  LockedGraph<SimPlat> g(space, LockedGraph<SimPlat>::ring(n));
  Simulator sim(13);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      for (std::uint32_t v = static_cast<std::uint32_t>(p); v < n;
           v += static_cast<std::uint32_t>(procs)) {
        g.colour_vertex(proc, v);
      }
    });
  }
  WeightedSchedule sched({1.0, 0.05, 1.0, 0.2}, 37);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  EXPECT_TRUE(g.properly_coloured());
}

TEST(GraphSim, DeterministicReplay) {
  auto run_once = [] {
    const int procs = 3;
    const std::uint32_t n = 9;
    LockConfig cfg = graph_cfg(procs, 2);
    LockTable<SimPlat> space(cfg, procs, static_cast<int>(n));
    LockedGraph<SimPlat> g(space, LockedGraph<SimPlat>::ring(n));
    Simulator sim(3);
    for (int p = 0; p < procs; ++p) {
      sim.add_process([&, p] {
        BasicSession proc(space);
        for (std::uint32_t v = static_cast<std::uint32_t>(p); v < n;
             v += static_cast<std::uint32_t>(procs)) {
          g.colour_vertex(proc, v);
        }
      });
    }
    UniformSchedule sched(procs, 71);
    EXPECT_TRUE(sim.run(sched, 2'000'000'000ull));
    std::vector<std::uint32_t> colours;
    for (std::uint32_t v = 0; v < n; ++v) colours.push_back(g.value(v));
    return colours;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace wfl
