// Example: playing the adversary — the simulator as a public API.
//
// The theorems in the paper quantify over *schedules*, so checking them
// needs control over scheduling that OS threads cannot give. This example
// shows the deterministic-simulator side of the library on the classic
// dining-philosophers workload (κ = L = 2 ⇒ per-attempt success ≥ 1/4):
//
//   1. a fair round-robin schedule — everyone eats at the same rate;
//   2. a weighted schedule that slows one philosopher 100x — the paper's
//      "arbitrarily delayed" process: it still finishes (wait-freedom),
//      and the *others* are not dragged down while it starves;
//   3. a CrashSchedule that kills one philosopher outright mid-run — its
//      neighbors keep eating, which no blocking protocol can promise.
//
// Build & run:  ./examples/adversary_demo
#include <cstdio>
#include <memory>
#include <vector>

#include "wfl/wfl.hpp"

namespace {

using Plat = wfl::SimPlat;
using Space = wfl::LockTable<Plat>;

constexpr int kPhilosophers = 5;
constexpr int kAttemptsEach = 40;

struct RunResult {
  std::vector<std::uint64_t> meals;     // successful attempts ("ate")
  std::vector<std::uint64_t> attempts;  // attempts completed
  std::vector<bool> finished;
};

// One dinner party: philosopher i tryLocks chopsticks {i, (i+1)%n}.
// Sessions are owned by this frame (registration happens off the fibers —
// it is not on the attempt path), so a philosopher crash-parked mid-run
// needs no manual cleanup: the Session destructor drops the victim's EBR
// guards on its behalf when the party ends, exactly the abandon semantics
// the crash model requires.
RunResult dine(wfl::Simulator& sim, wfl::Schedule& sched, Space& space,
               int crash_victim = -1) {
  const int n = kPhilosophers;
  RunResult res;
  res.meals.assign(n, 0);
  res.attempts.assign(n, 0);
  res.finished.assign(n, false);
  std::vector<wfl::Session<Plat>> sessions;
  for (int p = 0; p < n; ++p) sessions.emplace_back(space);

  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      wfl::Session<Plat>& session = sessions[static_cast<std::size_t>(p)];
      const auto left = static_cast<std::uint32_t>(p);
      const auto right = static_cast<std::uint32_t>((p + 1) % n);
      const wfl::StaticLockSet<2> chopsticks{left, right};
      for (int a = 0; a < kAttemptsEach; ++a) {
        // "Eating" is the critical section; a no-op thunk keeps the demo
        // focused on the lock dynamics.
        const wfl::Outcome o =
            wfl::submit(session, chopsticks, [](wfl::IdemCtx<Plat>&) {});
        ++res.attempts[static_cast<std::size_t>(p)];
        if (o.won) ++res.meals[static_cast<std::size_t>(p)];
      }
    });
  }

  // Run until everyone who can finish has finished.
  for (;;) {
    bool done = true;
    for (int p = 0; p < n; ++p) {
      if (p != crash_victim && !sim.is_finished(p)) done = false;
    }
    if (done) break;
    if (!sim.run(sched, 8'000'000'000ull, sim.finished_count() + 1)) break;
  }
  for (int p = 0; p < n; ++p) {
    res.finished[static_cast<std::size_t>(p)] = sim.is_finished(p);
  }
  return res;
}

Space make_space() {
  wfl::LockConfig cfg;
  cfg.kappa = 2;      // each chopstick is wanted by exactly two neighbors
  cfg.max_locks = 2;  // two chopsticks per meal
  cfg.max_thunk_steps = 1;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return Space(cfg, kPhilosophers, kPhilosophers);
}

void print_table(const char* title, const RunResult& r, int victim = -1) {
  std::printf("%s\n", title);
  std::printf("  philosopher |");
  for (int p = 0; p < kPhilosophers; ++p) std::printf(" %5d", p);
  std::printf("\n  meals       |");
  for (int p = 0; p < kPhilosophers; ++p) {
    std::printf(" %5llu",
                static_cast<unsigned long long>(
                    r.meals[static_cast<std::size_t>(p)]));
  }
  std::printf("\n  success %%   |");
  for (int p = 0; p < kPhilosophers; ++p) {
    const auto at = r.attempts[static_cast<std::size_t>(p)];
    if (at == 0) {
      std::printf("     -");
    } else {
      std::printf(" %4.0f%%", 100.0 *
                                  static_cast<double>(
                                      r.meals[static_cast<std::size_t>(p)]) /
                                  static_cast<double>(at));
    }
  }
  std::printf("\n  status      |");
  for (int p = 0; p < kPhilosophers; ++p) {
    std::printf(" %5s", p == victim               ? "dead"
                        : r.finished[static_cast<std::size_t>(p)] ? "done"
                                                                  : "live");
  }
  std::printf("\n\n");
}

}  // namespace

int main() {
  std::printf(
      "adversary_demo: %d dining philosophers, %d attempts each "
      "(kappa = L = 2 => per-attempt success floor 1/4)\n\n",
      kPhilosophers, kAttemptsEach);

  {  // 1. Fair schedule.
    Space space = make_space();
    wfl::Simulator sim(101);
    wfl::RoundRobinSchedule sched(kPhilosophers);
    const RunResult r = dine(sim, sched, space);
    print_table("1) round-robin schedule (fair)", r);
  }

  {  // 2. One philosopher delayed 100x.
    Space space = make_space();
    wfl::Simulator sim(202);
    std::vector<double> w(kPhilosophers, 1.0);
    w[2] = 0.01;
    wfl::WeightedSchedule sched(std::move(w), 202);
    const RunResult r = dine(sim, sched, space);
    print_table(
        "2) philosopher 2 scheduled 100x more rarely (still finishes — "
        "wait-freedom; neighbors unharmed)",
        r);
  }

  {  // 3. One philosopher crashed outright.
    Space space = make_space();
    wfl::Simulator sim(303);
    wfl::UniformSchedule inner(kPhilosophers, 303);
    wfl::CrashSchedule sched(inner, kPhilosophers, {{2, 20'000}}, 307);
    const RunResult r = dine(sim, sched, space, /*crash_victim=*/2);
    print_table(
        "3) philosopher 2 crash-failed mid-run (neighbors keep eating — "
        "no blocking protocol can promise this)",
        r, /*victim=*/2);
    for (int p = 0; p < kPhilosophers; ++p) {
      if (p != 2 && r.meals[static_cast<std::size_t>(p)] == 0) {
        std::printf("adversary_demo: FAILED (philosopher %d starved)\n", p);
        return 1;
      }
    }
  }

  std::printf("adversary_demo: OK\n");
  return 0;
}
