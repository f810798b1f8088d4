// Application substrate: the dining philosophers ring (the paper's running
// example), parameterized over the locking strategy so the same harness
// drives wflock, blocking 2PL, and Lehmann–Rabin in experiments.
//
// n philosophers, n forks; philosopher p needs forks {p, (p+1) % n}. Each
// hungry episode retries attempts until the philosopher eats, then thinks
// for a workload-chosen number of own steps. The harness records attempts,
// meals, and own-steps per meal — the quantities behind the paper's O(1)
// expected-steps claim for this topology (κ = L = 2).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "wfl/util/assert.hpp"
#include "wfl/util/rng.hpp"
#include "wfl/util/stats.hpp"

namespace wfl {

struct PhilosopherReport {
  std::uint64_t meals = 0;
  std::uint64_t attempts = 0;
  RunningStat steps_per_meal;  // own steps from hungry to fed
};

// TryEat: bool(int pid) — one bounded attempt; true means the philosopher
// ate. Blocking strategies simply always return true (one attempt = one
// meal) and burn steps inside.
template <typename Plat, typename TryEat>
void run_philosopher_episodes(int pid, int meals, std::uint64_t think_max,
                              std::uint64_t rng_seed, TryEat&& try_eat,
                              PhilosopherReport& report) {
  Xoshiro256 rng(rng_seed);
  for (int m = 0; m < meals; ++m) {
    const std::uint64_t hungry_at = Plat::steps();
    for (;;) {
      ++report.attempts;
      if (try_eat(pid)) break;
    }
    ++report.meals;
    report.steps_per_meal.add(
        static_cast<double>(Plat::steps() - hungry_at));
    const std::uint64_t think = think_max == 0 ? 0 : rng.next_below(think_max);
    Plat::idle_steps(think);
  }
}

// Fork lock ids for philosopher p at an n-seat table.
inline std::pair<std::uint32_t, std::uint32_t> forks_of(int p, int n) {
  WFL_CHECK(n >= 2 && p >= 0 && p < n);
  return {static_cast<std::uint32_t>(p),
          static_cast<std::uint32_t>((p + 1) % n)};
}

}  // namespace wfl
