// Neighborhood-atomic graph updates — the paper's GraphLab motivation
// (§1): "it captures operations on ... graphs that require taking a lock
// on a node and its neighbors for the purpose of making a local update."
//
// Greedy distributed graph coloring: each step locks a vertex *and its
// whole neighborhood* (L = 1 + degree) and recolors the vertex with the
// smallest color unused by its neighbors. Because the update is atomic
// over the neighborhood, the invariant "no edge is monochrome once both
// endpoints were colored" holds at every quiescent point — validated at
// the end. tryLock failures (neighborhood contention) simply retry.
//
// Build & run:  ./examples/graph_update
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace {

constexpr int kThreads = 4;
constexpr std::uint32_t kVertices = 48;
constexpr std::uint32_t kMaxDegree = 5;  // L = 1 + degree <= 6 <= 8

// A random graph with bounded degree (ring + chords).
std::vector<std::vector<std::uint32_t>> make_graph(std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> adj(kVertices);
  auto connect = [&](std::uint32_t a, std::uint32_t b) {
    if (a == b) return;
    if (adj[a].size() >= kMaxDegree - 1 || adj[b].size() >= kMaxDegree - 1) {
      return;
    }
    for (auto x : adj[a]) {
      if (x == b) return;
    }
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  for (std::uint32_t v = 0; v < kVertices; ++v) connect(v, (v + 1) % kVertices);
  wfl::Xoshiro256 rng(seed);
  for (int i = 0; i < 60; ++i) {
    connect(static_cast<std::uint32_t>(rng.next_below(kVertices)),
            static_cast<std::uint32_t>(rng.next_below(kVertices)));
  }
  return adj;
}

}  // namespace

int main() {
  using Plat = wfl::RealPlat;
  const auto adj = make_graph(4242);

  wfl::LockConfig cfg;
  cfg.kappa = kThreads + 2;
  cfg.max_locks = 1 + kMaxDegree;
  cfg.max_thunk_steps = 2 * (1 + kMaxDegree) + 4;
  cfg.delay_mode = wfl::DelayMode::kOff;
  // +1 process slot: the main thread registers for the final stabilization
  // sweeps after the workers join.
  wfl::LockTable<Plat> space(cfg, kThreads + 1, kVertices);

  // color[v] == 0 means uncolored; colors are 1..kMaxDegree+1.
  std::vector<std::unique_ptr<wfl::Cell<Plat>>> color;
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    color.push_back(std::make_unique<wfl::Cell<Plat>>(0u));
  }

  std::atomic<std::uint64_t> recolors{0}, attempts{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Plat::seed_rng(100 + t);
      wfl::Session<Plat> session(space);
      wfl::Xoshiro256 rng(7 + t);
      // Each thread sweeps vertices until every vertex it sees is properly
      // colored (greedy coloring converges: each atomic step fixes one
      // vertex with respect to its neighborhood).
      for (int round = 0; round < 6; ++round) {
        for (std::uint32_t v0 = 0; v0 < kVertices; ++v0) {
          const std::uint32_t v =
              (v0 + static_cast<std::uint32_t>(rng.next_below(kVertices))) %
              kVertices;
          wfl::StaticLockSet<1 + kMaxDegree> locks{v};
          for (auto u : adj[v]) locks.insert(u);
          // Captured BY VALUE: helpers may replay the thunk after this
          // iteration's locals are gone, so the capture must be
          // self-contained (see README thunk rule #2).
          struct Hood {
            wfl::Cell<Plat>* self;
            wfl::Cell<Plat>* nbr[kMaxDegree];
            std::uint32_t n;
          } hood{};
          hood.self = color[v].get();
          hood.n = static_cast<std::uint32_t>(adj[v].size());
          for (std::uint32_t i = 0; i < hood.n; ++i) {
            hood.nbr[i] = color[adj[v][i]].get();
          }
          // One submission, retry policy: the executor owns the loop and
          // reports the attempts it spent.
          const wfl::Outcome o = wfl::submit(
              session, locks,
              [hood](wfl::IdemCtx<Plat>& m) {
                // Smallest color not used in the neighborhood.
                std::uint32_t used = 0;  // bitmask of colors 1..31
                for (std::uint32_t i = 0; i < hood.n; ++i) {
                  const std::uint32_t c = m.load(*hood.nbr[i]);
                  if (c > 0 && c < 32) used |= 1u << c;
                }
                std::uint32_t pick = 1;
                while (used & (1u << pick)) ++pick;
                if (m.load(*hood.self) != pick) m.store(*hood.self, pick);
              },
              wfl::Policy::retry());
          attempts.fetch_add(o.attempts, std::memory_order_relaxed);
          recolors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Concurrent greedy recoloring may leave a few vertices stale (a
  // neighbor changed after they were fixed). Stabilize with sequential
  // sweeps through the same locked path until a full sweep changes
  // nothing, then audit.
  {
    wfl::Session<Plat> session(space);
    wfl::Cell<Plat> changed_cell{0};
    for (int sweep = 0; sweep < 20; ++sweep) {
      bool changed = false;
      for (std::uint32_t v = 0; v < kVertices; ++v) {
        wfl::StaticLockSet<1 + kMaxDegree> locks{v};
        for (auto u : adj[v]) locks.insert(u);
        struct Hood {
          wfl::Cell<Plat>* self;
          wfl::Cell<Plat>* nbr[kMaxDegree];
          wfl::Cell<Plat>* changed;
          std::uint32_t n;
        } hood{};
        hood.self = color[v].get();
        hood.changed = &changed_cell;
        hood.n = static_cast<std::uint32_t>(adj[v].size());
        for (std::uint32_t i = 0; i < hood.n; ++i) {
          hood.nbr[i] = color[adj[v][i]].get();
        }
        wfl::submit(
            session, locks,
            [hood](wfl::IdemCtx<Plat>& m) {
              std::uint32_t used = 0;
              for (std::uint32_t i = 0; i < hood.n; ++i) {
                const std::uint32_t c = m.load(*hood.nbr[i]);
                if (c > 0 && c < 32) used |= 1u << c;
              }
              std::uint32_t pick = 1;
              while (used & (1u << pick)) ++pick;
              if (m.load(*hood.self) != pick) {
                m.store(*hood.self, pick);
                m.store(*hood.changed, 1);
              }
            },
            wfl::Policy::retry());
        if (changed_cell.peek() == 1) {
          changed = true;
          changed_cell.init(0);
        }
      }
      if (!changed) break;
    }
  }

  // Audit: proper coloring, bounded palette.
  bool proper = true;
  std::uint32_t max_color = 0;
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    const std::uint32_t cv = color[v]->peek();
    max_color = std::max(max_color, cv);
    if (cv == 0) proper = false;
    for (auto u : adj[v]) {
      if (color[u]->peek() == cv) proper = false;
    }
  }
  std::printf("vertices=%u maxdeg=%u  colors used: %u (bound: maxdeg+1=%u)\n",
              kVertices, kMaxDegree, max_color, kMaxDegree + 1);
  std::printf("recolor wins: %llu, tryLock attempts: %llu\n",
              static_cast<unsigned long long>(recolors.load()),
              static_cast<unsigned long long>(attempts.load()));
  std::printf("%s\n", proper && max_color <= kMaxDegree + 1
                          ? "OK: proper coloring via neighborhood-atomic "
                            "updates"
                          : "MISMATCH: improper coloring");
  return proper ? 0 : 1;
}
